//! Property tests for the flight recorder: trace records survive a
//! JSON round-trip byte-for-byte, the ring never exceeds its byte
//! budget, and phase enter/exit records keep stack discipline.

use proptest::prelude::*;
use rmrls_obs::{FlightRecorder, Json, RecorderSnapshot, TraceKind, TraceRecord};

/// Decodes a fuzz tuple into one of the seven record kinds. The string
/// payloads exercise JSON escaping: quotes, backslashes, control
/// characters, and non-ASCII.
fn kind_from(selector: u8, a: u64, b: u64, text: String) -> TraceKind {
    // Counts travel through `Json::uint`, which insists on exact f64
    // representability (< 2^53); real counts are far below that.
    let (a, b) = (a % (1 << 53), b % (1 << 53));
    match selector % 7 {
        0 => TraceKind::PhaseEnter { phase: text },
        1 => TraceKind::PhaseExit { phase: text },
        2 => TraceKind::Expand {
            depth: (a % u64::from(u32::MAX)) as u32,
            terms: b,
        },
        3 => TraceKind::Gauge {
            name: text,
            // Gauge values travel through f64; stay in the exactly
            // representable range like the real gauges do.
            value: (a as i64) % (1 << 50),
        },
        4 => TraceKind::CacheLookup { hit: a % 2 == 0 },
        5 => TraceKind::TierEscalate {
            from: text.clone(),
            to: text,
        },
        _ => TraceKind::Anomaly {
            kind: "injected_fault".into(),
            site: text,
        },
    }
}

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(|bytes| {
        bytes
            .iter()
            .map(|&b| match b % 8 {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\u{1}',
                4 => 'é',
                5 => '𝄞',
                _ => (b % 26 + b'a') as char,
            })
            .collect()
    })
}

proptest! {
    /// Every record kind, with adversarial string payloads, round-trips
    /// through `rmrls_obs::json` text unchanged.
    #[test]
    fn trace_records_round_trip_through_json(
        ts in any::<u64>(),
        selector in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        text in text_strategy(),
    ) {
        // Timestamps travel through Json::uint, which is exact below
        // 2^53; recorder timestamps are microseconds, so cap likewise.
        let record = TraceRecord {
            ts_micros: ts % (1 << 53),
            kind: kind_from(selector, a, b, text),
        };
        let serialized = record.to_json().to_string();
        let parsed = Json::parse(&serialized).expect("export is valid JSON");
        let back = TraceRecord::from_json(&parsed);
        prop_assert_eq!(back.as_ref(), Some(&record), "{}", serialized);
    }

    /// Whatever is thrown at it, the ring's accounted bytes never
    /// exceed the budget, and every record is either retained or
    /// counted as dropped.
    #[test]
    fn ring_never_exceeds_its_byte_budget(
        budget in 0usize..2048,
        records in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), text_strategy()),
            0..64,
        ),
    ) {
        let recorder = FlightRecorder::new(budget);
        let total = records.len() as u64;
        for (selector, a, b, text) in records {
            recorder.record(kind_from(selector, a, b, text));
            prop_assert!(
                recorder.bytes_used() <= budget,
                "{} bytes used exceeds budget {}",
                recorder.bytes_used(),
                budget
            );
        }
        let snapshot = recorder.snapshot();
        prop_assert_eq!(snapshot.records.len() as u64 + snapshot.dropped, total);
        let recomputed: usize = snapshot.records.iter().map(TraceRecord::approx_bytes).sum();
        prop_assert_eq!(recomputed, snapshot.bytes_used);
    }

    /// Phases recorded from a well-nested caller come back properly
    /// nested: scanning the snapshot with a stack, every exit matches
    /// the innermost open phase and nothing is left open.
    #[test]
    fn phase_spans_nest_properly(shape in proptest::collection::vec(0u8..4, 1..24)) {
        let recorder = FlightRecorder::new(1 << 20);
        // Interpret the shape as a walk over a phase tree: each step
        // enters one of four phases and exits in LIFO order, with a
        // non-phase record interleaved to make sure they don't disturb
        // nesting.
        let names = ["dispatch", "scoring", "materialize", "dedup"];
        let mut open: Vec<&str> = Vec::new();
        for (i, &choice) in shape.iter().enumerate() {
            if choice < 2 || open.is_empty() {
                let name = names[usize::from(choice)];
                recorder.phase_enter(name);
                open.push(name);
            } else {
                recorder.record(TraceKind::Expand { depth: i as u32, terms: 1 });
                recorder.phase_exit(open.pop().unwrap());
            }
        }
        while let Some(name) = open.pop() {
            recorder.phase_exit(name);
        }

        let snapshot = recorder.snapshot();
        prop_assert_eq!(snapshot.dropped, 0);
        let mut stack: Vec<&str> = Vec::new();
        let mut last_ts = 0;
        for record in &snapshot.records {
            prop_assert!(record.ts_micros >= last_ts, "timestamps out of order");
            last_ts = record.ts_micros;
            match &record.kind {
                TraceKind::PhaseEnter { phase } => stack.push(phase),
                TraceKind::PhaseExit { phase } => {
                    let innermost = stack.pop();
                    prop_assert_eq!(innermost, Some(phase.as_str()), "crossed spans");
                }
                _ => {}
            }
        }
        prop_assert!(stack.is_empty(), "unclosed phases: {:?}", stack);
    }

    /// A snapshot with any record mix survives dump + reparse.
    #[test]
    fn snapshots_round_trip_through_dump_text(
        records in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), text_strategy()),
            0..32,
        ),
    ) {
        let recorder = FlightRecorder::new(1 << 20);
        for (selector, a, b, text) in records {
            recorder.record(kind_from(selector, a, b, text));
        }
        let snapshot = recorder.snapshot();
        let text = snapshot.to_json().to_string();
        let back = RecorderSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, snapshot);
    }
}
