//! Integration tests pinning every circuit the paper publishes: each
//! printed gate list must realize its printed specification, and RMRLS
//! must re-synthesize the specification with a circuit of the published
//! quality.

use rmrls::circuit::{Circuit, Gate};
use rmrls::core::{synthesize_permutation, SynthesisOptions};
use rmrls::spec::Permutation;

fn tof(controls: &[usize], target: usize) -> Gate {
    Gate::toffoli(controls, target)
}

/// Wire letters: a=0, b=1, c=2, d=3 … as in the paper.
const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const D: usize = 3;

struct PaperCircuit {
    name: &'static str,
    spec: Vec<u64>,
    gates: Vec<Gate>,
}

fn published_circuits() -> Vec<PaperCircuit> {
    vec![
        PaperCircuit {
            // Fig. 3(d): circuit for the Fig. 1 function.
            name: "fig3d",
            spec: vec![1, 0, 7, 2, 3, 4, 5, 6],
            gates: vec![tof(&[], A), tof(&[A, C], B), tof(&[A, B], C)],
        },
        PaperCircuit {
            // Example 1: TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b) TOF1(a).
            name: "example1",
            spec: vec![1, 0, 3, 2, 5, 7, 4, 6],
            gates: vec![
                tof(&[C, A], B),
                tof(&[C, B], A),
                tof(&[C, A], B),
                tof(&[], A),
            ],
        },
        PaperCircuit {
            // Example 2: TOF1(a) TOF2(a,b) TOF3(b,a,c).
            name: "example2",
            spec: vec![7, 0, 1, 2, 3, 4, 5, 6],
            gates: vec![tof(&[], A), tof(&[A], B), tof(&[B, A], C)],
        },
        PaperCircuit {
            // Example 3: Fredkin from Toffolis.
            name: "example3",
            spec: vec![0, 1, 2, 3, 4, 6, 5, 7],
            gates: vec![tof(&[C, A], B), tof(&[C, B], A), tof(&[C, A], B)],
        },
        PaperCircuit {
            // Example 6: TOF3(b,a,c) TOF2(a,b) TOF1(a).
            name: "example6",
            spec: vec![1, 2, 3, 4, 5, 6, 7, 0],
            gates: vec![tof(&[B, A], C), tof(&[A], B), tof(&[], A)],
        },
        PaperCircuit {
            // Example 7: TOF4(c,b,a,d) TOF3(b,a,c) TOF2(a,b) TOF1(a).
            name: "example7",
            spec: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0],
            gates: vec![
                tof(&[C, B, A], D),
                tof(&[B, A], C),
                tof(&[A], B),
                tof(&[], A),
            ],
        },
        PaperCircuit {
            // Example 8 / Fig. 8: the augmented full adder.
            name: "example8",
            spec: vec![0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5],
            gates: vec![tof(&[B, A], D), tof(&[A], B), tof(&[C, B], D), tof(&[B], C)],
        },
        PaperCircuit {
            // Example 11: decod24.
            name: "example11",
            spec: vec![1, 2, 4, 8, 0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15],
            gates: vec![
                tof(&[C], A),
                tof(&[D], B),
                tof(&[C], B),
                tof(&[A, D], B),
                tof(&[D], A),
                tof(&[B], C),
                tof(&[A, B, C], D),
                tof(&[B, D], C),
                tof(&[C], A),
                tof(&[A], B),
                tof(&[], A),
            ],
        },
    ]
}

#[test]
fn published_gate_lists_realize_published_specs() {
    for pc in published_circuits() {
        let width = (pc.spec.len().trailing_zeros()) as usize;
        let circuit = Circuit::from_gates(width, pc.gates.clone());
        assert_eq!(
            circuit.to_permutation(),
            pc.spec,
            "{}: the paper's printed circuit does not match its printed spec",
            pc.name
        );
    }
}

#[test]
fn rmrls_matches_published_gate_counts() {
    // About 3 s of search on the 4-variable examples in a test build.
    let opts = SynthesisOptions::new().with_max_nodes(250_000);
    for pc in published_circuits() {
        let spec = Permutation::from_vec(pc.spec.clone()).expect("published specs are reversible");
        let result =
            synthesize_permutation(&spec, &opts).unwrap_or_else(|e| panic!("{}: {e}", pc.name));
        assert_eq!(
            result.circuit.to_permutation(),
            spec.as_slice(),
            "{}: synthesized circuit is wrong",
            pc.name
        );
        // Strict parity on 3 variables; one gate of slack on the wider
        // examples, where the paper ran minutes of search.
        let slack = if spec.num_vars() <= 3 { 0 } else { 1 };
        assert!(
            result.circuit.gate_count() <= pc.gates.len() + slack,
            "{}: RMRLS used {} gates, paper used {}",
            pc.name,
            result.circuit.gate_count(),
            pc.gates.len()
        );
    }
}

#[test]
fn example4_published_circuit_is_simplifiable() {
    // Example 4's printed 6-gate circuit contains a redundancy the paper
    // acknowledges (templates reduce such sequences); our synthesis finds
    // 5 gates and template simplification keeps the function intact.
    let spec = Permutation::from_vec(vec![0, 1, 2, 4, 3, 5, 6, 7]).unwrap();
    let result = synthesize_permutation(&spec, &SynthesisOptions::new()).expect("solvable");
    assert!(result.circuit.gate_count() <= 6);
    let mut simplified = result.circuit.clone();
    rmrls::circuit::simplify(&mut simplified);
    assert_eq!(simplified.to_permutation(), spec.as_slice());
}

#[test]
fn fig2_embedding_matches_example8_shape() {
    // Embedding the irreversible augmented adder of Fig. 2(a) must give a
    // 4-wire reversible function whose real outputs are the adder.
    use rmrls::spec::{embed, TruthTable};
    let adder = TruthTable::from_fn(3, 3, |x| {
        let ones = x.count_ones() as u64;
        (ones >> 1) << 2 | (ones & 1) << 1 | ((x ^ (x >> 1)) & 1)
    });
    let e = embed(&adder);
    assert_eq!(e.width(), 4);
    assert_eq!(e.garbage_outputs, 1);
    for x in 0..8u64 {
        assert_eq!(e.real_output(e.permutation.apply(x)), adder.row(x));
    }
    // And it synthesizes compactly (the paper's Example 8 uses 4 gates).
    let result =
        synthesize_permutation(&e.permutation, &SynthesisOptions::new()).expect("solvable");
    assert!(
        result.circuit.gate_count() <= 8,
        "embedded adder took {} gates",
        result.circuit.gate_count()
    );
}

#[test]
fn fig5_fig6_root_expands_into_three_then_seven_children() {
    // Figs. 5/6: under the paper's Eq. 4 priority the root of the Fig. 1
    // search gets 3 children from the basic substitutions, and 7 once
    // the §IV-D additional substitutions are on. Read from the
    // observer's event stream: the pushes at depth 1 before the first
    // depth-1 node is expanded.
    use rmrls::core::{synthesize_with_observer, Observer, PriorityMode};
    use rmrls::obs::{Event, EventSink, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct EventLog(Rc<RefCell<Vec<Event>>>);
    impl EventSink for EventLog {
        fn emit(&mut self, event: Event) {
            self.0.borrow_mut().push(event);
        }
    }

    let spec = Permutation::from_vec(vec![1, 0, 7, 2, 3, 4, 5, 6])
        .unwrap()
        .to_multi_pprm();
    let root_children = |additional: bool| {
        let events = Rc::new(RefCell::new(Vec::new()));
        let mut obs = Observer::with_sink(Box::new(EventLog(Rc::clone(&events))));
        let opts = SynthesisOptions::new()
            .with_priority_mode(PriorityMode::CumulativeRate)
            .with_additional_substitutions(additional);
        synthesize_with_observer(&spec, &opts, &mut obs).expect("Fig. 1 synthesizes");
        let at_depth1 = |e: &Event| e.fields.contains(&("depth", Value::UInt(1)));
        let events = events.borrow();
        events
            .iter()
            .take_while(|e| !(e.kind == "expand" && at_depth1(e)))
            .filter(|e| e.kind == "push" && at_depth1(e))
            .count()
    };
    assert_eq!(root_children(false), 3, "Fig. 5: basic substitutions");
    assert_eq!(root_children(true), 7, "Fig. 6: with §IV-D additions");
}
