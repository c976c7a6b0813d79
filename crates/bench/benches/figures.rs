//! Figures 1–6: the worked example — the Fig. 1 function, its PPRM
//! expansion (Eq. 3), the synthesized circuit of Fig. 3(d), and the
//! search-tree walk of Figs. 5/6 replayed from the observer's event
//! stream.

use std::cell::RefCell;
use std::rc::Rc;

use rmrls_circuit::render;
use rmrls_core::{synthesize_with_observer, Observer, PriorityMode, Synthesis, SynthesisOptions};
use rmrls_obs::{Event, EventSink, Value};
use rmrls_pprm::MultiPprm;
use rmrls_spec::Permutation;

/// Keeps every event in a vector the caller shares.
struct EventLog(Rc<RefCell<Vec<Event>>>);

impl EventSink for EventLog {
    fn emit(&mut self, event: Event) {
        self.0.borrow_mut().push(event);
    }
}

/// Runs the search with an event log attached.
fn synthesize_logged(pprm: &MultiPprm, opts: &SynthesisOptions) -> (Synthesis, Vec<Event>) {
    let events = Rc::new(RefCell::new(Vec::new()));
    let mut obs = Observer::with_sink(Box::new(EventLog(Rc::clone(&events))));
    let result = synthesize_with_observer(pprm, opts, &mut obs).expect("Fig. 1 synthesizes");
    let events = events.take();
    (result, events)
}

fn field<'a>(event: &'a Event, name: &str) -> &'a Value {
    &event
        .fields
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{} event has no {name}", event.kind))
        .1
}

fn text(value: &Value) -> String {
    match value {
        Value::Int(v) => v.to_string(),
        Value::UInt(v) => v.to_string(),
        Value::Float(v) => format!("{v:.3}"),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
    }
}

/// One step of the Fig. 5/6 walk, or `None` for the stream's other
/// events (run start/end, progress).
fn step(event: &Event) -> Option<String> {
    let f = |name| text(field(event, name));
    Some(match event.kind {
        "expand" => format!("expand depth={} terms={}", f("depth"), f("terms")),
        "push" => format!(
            "push {} depth={} elim={} priority={}",
            f("gate"),
            f("depth"),
            f("eliminated"),
            f("priority")
        ),
        "solution" => format!(
            "solution depth={}{}",
            f("depth"),
            if event.fields.contains(&("improved", Value::Bool(true))) {
                " (new best)"
            } else {
                ""
            }
        ),
        "restart" => format!("restart #{}", f("ordinal")),
        _ => return None,
    })
}

fn main() {
    println!("# Figures 1-6 — the worked example\n");

    let spec = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6]).expect("Fig. 1 spec");
    println!("## Fig. 1 — specification");
    println!("{spec}\n");

    let pprm = spec.to_multi_pprm();
    println!("## Eq. 3 — PPRM expansion");
    println!("{pprm}\n");

    // Basic algorithm (paper Eq. 4 reading), as in the Fig. 5 narrative.
    let opts = SynthesisOptions::new()
        .with_priority_mode(PriorityMode::CumulativeRate)
        .with_additional_substitutions(false);
    let (result, events) = synthesize_logged(&pprm, &opts);
    assert_eq!(result.circuit.to_permutation(), spec.as_slice());

    println!(
        "## Fig. 3(d) — synthesized circuit ({} gates)",
        result.circuit.gate_count()
    );
    println!("{}", result.circuit);
    println!("{}", render(&result.circuit));

    println!("## Figs. 5/6 — search walk (basic algorithm)");
    let mut expansions = 0;
    for (kind, line) in events.iter().filter_map(|e| Some((e.kind, step(e)?))) {
        if kind == "expand" {
            expansions += 1;
            println!("step {expansions}: {line}");
        } else {
            println!("         {line}");
        }
    }
    println!("\nsearch stats: {}", result.stats);

    // Fig. 6: the additional substitutions enlarge the first level from
    // 3 to 7 children.
    let with_extra = SynthesisOptions::new().with_priority_mode(PriorityMode::CumulativeRate);
    let (_, events) = synthesize_logged(&pprm, &with_extra);
    let is_depth1 = |e: &Event| e.fields.contains(&("depth", Value::UInt(1)));
    let first_level_pushes = events
        .iter()
        .take_while(|e| !(e.kind == "expand" && is_depth1(e)))
        .filter(|e| e.kind == "push" && is_depth1(e))
        .count();
    println!(
        "\n## Fig. 6 — with the §IV-D additional substitutions the root expands into {first_level_pushes} children (paper: 7)"
    );
}
