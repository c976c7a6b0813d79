//! Pluggable event sinks.
//!
//! Search code emits structured [`Event`]s through an [`EventSink`].
//! The contract every implementation honours: **overflow is never
//! silent** — a sink that cannot keep an event must count it in
//! [`EventSink::dropped_events`]. Hot loops should guard emission with
//! [`EventSink::enabled`] so the null sink costs one predictable branch
//! per site.
//!
//! Instrumented code hands events over through
//! [`EventSink::emit_with`], which takes a builder rather than a built
//! event. The default calls the builder and forwards to
//! [`EventSink::emit`], so ordinary sinks see no difference. A bounded
//! sink that already knows it will discard the event (a full live-tail
//! buffer, for instance) overrides `emit_with` to count the drop
//! without ever calling the builder: the event's fields, strings and
//! serialization are never paid for.

use crate::json::Json;
use std::collections::VecDeque;
use std::io::Write;

/// A scalar field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters, depths).
    UInt(u64),
    /// Floating point (priorities, seconds).
    Float(f64),
    /// Text.
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Int(v) => Json::Num(*v as f64),
            Value::UInt(v) => Json::uint(*v),
            Value::Float(v) => Json::Num(*v),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::UInt(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured occurrence in a run (an expansion, a restart, a
/// progress snapshot, ...).
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Event kind tag, e.g. `"expand"`, `"restart"`, `"progress"`.
    pub kind: &'static str,
    /// Named scalar payload fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Builds an event from a kind and field list.
    pub fn new(kind: &'static str, fields: Vec<(&'static str, Value)>) -> Event {
        Event { kind, fields }
    }

    /// Serializes as a single JSON object (`{"event": kind, ...fields}`).
    pub fn to_json(&self) -> Json {
        let mut obj = Vec::with_capacity(self.fields.len() + 1);
        obj.push(("event".to_string(), Json::str(self.kind)));
        for (name, value) in &self.fields {
            obj.push((name.to_string(), value.to_json()));
        }
        Json::Obj(obj)
    }
}

/// Destination for run events.
pub trait EventSink {
    /// Whether emission does anything; hot paths skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one event. Implementations that cannot keep it must
    /// bump their dropped count rather than fail.
    fn emit(&mut self, event: Event);

    /// Accepts one event given as a builder, called at most once.
    ///
    /// The default builds the event and hands it to
    /// [`emit`](EventSink::emit). A sink that can tell in advance that it will
    /// drop the event overrides this to count the drop in
    /// [`dropped_events`](EventSink::dropped_events) without calling
    /// `make`, so the discarded event is never built.
    fn emit_with(&mut self, make: &mut dyn FnMut() -> Event) {
        self.emit(make());
    }

    /// Events this sink had to discard (buffer overflow, write errors).
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// Discards everything; `enabled()` is `false` so instrumented code
/// pays only a branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: Event) {}
}

/// Bounded in-memory ring: keeps the most recent `capacity` events and
/// counts what scrolled off.
#[derive(Clone, Debug)]
pub struct MemorySink {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl MemorySink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> MemorySink {
        MemorySink {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

/// Streams each event as one JSON line to a writer (file, stderr, ...).
/// Write errors are counted as drops rather than propagated into the
/// search loop.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
    buf: String,
    dropped: u64,
    written: u64,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps `writer`; each event becomes one `\n`-terminated line.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            writer,
            buf: String::new(),
            dropped: 0,
            written: 0,
        }
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> EventSink for JsonLinesSink<W> {
    fn emit(&mut self, event: Event) {
        self.buf.clear();
        event.to_json().write(&mut self.buf);
        self.buf.push('\n');
        match self.writer.write_all(self.buf.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(_) => self.dropped += 1,
        }
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str, n: u64) -> Event {
        Event::new(kind, vec![("n", Value::from(n))])
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn null_sink_is_disabled_and_lossless_by_definition() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(ev("x", 1));
        assert_eq!(sink.dropped_events(), 0);
    }

    #[test]
    fn memory_sink_counts_drops_and_keeps_most_recent() {
        let mut sink = MemorySink::new(3);
        for i in 0..10 {
            sink.emit(ev("tick", i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped_events(), 7);
        let kept: Vec<u64> = sink
            .events()
            .map(|e| match e.fields[0].1 {
                Value::UInt(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_memory_sink_drops_everything() {
        let mut sink = MemorySink::new(0);
        sink.emit(ev("tick", 1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped_events(), 1);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.emit(Event::new(
            "solution",
            vec![
                ("depth", Value::from(4u64)),
                ("improved", Value::from(true)),
            ],
        ));
        sink.emit(ev("restart", 1));
        assert_eq!(sink.written(), 2);
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"event":"solution","depth":4,"improved":true}"#
        );
        let parsed = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("restart"));
    }

    #[test]
    fn json_lines_sink_counts_write_errors_as_drops() {
        let mut sink = JsonLinesSink::new(FailingWriter);
        sink.emit(ev("tick", 1));
        assert_eq!(sink.dropped_events(), 1);
        assert_eq!(sink.written(), 0);
    }

    #[test]
    fn default_emit_with_matches_emit_for_memory_sinks() {
        let mut by_emit = MemorySink::new(3);
        let mut by_builder = MemorySink::new(3);
        let mut calls = 0;
        for i in 0..10 {
            by_emit.emit(ev("tick", i));
            by_builder.emit_with(&mut || {
                calls += 1;
                ev("tick", i)
            });
        }
        assert_eq!(calls, 10, "the default calls the builder once per event");
        assert_eq!(by_builder.dropped_events(), by_emit.dropped_events());
        assert_eq!(by_builder.dropped_events(), 7);
        assert!(by_builder.events().eq(by_emit.events()));

        let mut empty = MemorySink::new(0);
        empty.emit_with(&mut || ev("tick", 1));
        assert!(empty.is_empty());
        assert_eq!(empty.dropped_events(), 1);
    }

    #[test]
    fn default_emit_with_matches_emit_for_json_lines_sinks() {
        let events = [ev("tick", 1), ev("restart", 2), ev("tick", 3)];
        let mut by_emit = JsonLinesSink::new(Vec::new());
        let mut by_builder = JsonLinesSink::new(Vec::new());
        for e in &events {
            by_emit.emit(e.clone());
            by_builder.emit_with(&mut || e.clone());
        }
        assert_eq!(by_builder.written(), 3);
        assert_eq!(by_builder.dropped_events(), 0);
        assert_eq!(by_builder.into_inner(), by_emit.into_inner());

        let mut failing = JsonLinesSink::new(FailingWriter);
        failing.emit_with(&mut || ev("tick", 1));
        failing.emit(ev("tick", 2));
        assert_eq!(failing.dropped_events(), 2);
        assert_eq!(failing.written(), 0);
    }
}
