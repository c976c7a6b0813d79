//! Criterion micro-benchmarks of the individual components: the ANF
//! transform, PPRM substitution, a full RMRLS synthesis, the MMD
//! baseline, the optimal-table BFS, and the batch cache's
//! canonicalization under wire relabeling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_baselines::{
    mmd_synthesize, MmdVariant, OptimalLibrary, OptimalTable, PeepholeOptimizer,
};
use rmrls_circuit::decompose_to_nct;
use rmrls_core::{synthesize, synthesize_with_observer, Observer, Pruning, SynthesisOptions};
use rmrls_obs::{Event, EventSink};
use rmrls_pprm::{anf_transform, BitTable, MultiPprm, Term};
use rmrls_spec::Permutation;

fn bench_anf(c: &mut Criterion) {
    let mut group = c.benchmark_group("anf_transform");
    for n in [8usize, 12, 16] {
        let table = BitTable::from_fn(1 << n, |x| x.count_ones() % 3 == 1);
        group.bench_function(format!("n{n}"), |b| {
            b.iter_batched(
                || table.clone(),
                |mut t| {
                    anf_transform(&mut t, n);
                    black_box(t)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_substitution(c: &mut Criterion) {
    let spec = Permutation::from_rank(4, 20_123_456_789).to_multi_pprm();
    c.bench_function("multipprm_substitute", |b| {
        b.iter(|| {
            let (next, elim) = spec.substitute(1, Term::of(&[0, 2]));
            black_box((next.total_terms(), elim))
        })
    });
}

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesize");
    group.sample_size(20);
    let fig1 = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
    let opts = SynthesisOptions::new();
    group.bench_function("fig1_3var", |b| {
        b.iter(|| {
            black_box(
                synthesize(&fig1, &opts)
                    .expect("solvable")
                    .circuit
                    .gate_count(),
            )
        })
    });
    let four = Permutation::from_rank(4, 9_876_543_210).to_multi_pprm();
    let opts4 = SynthesisOptions::new()
        .with_stop_at_first(true)
        .with_max_gates(40)
        .with_max_nodes(100_000);
    group.bench_function("random_4var_first_solution", |b| {
        b.iter(|| {
            black_box(
                synthesize(&four, &opts4)
                    .expect("solvable")
                    .circuit
                    .gate_count(),
            )
        })
    });
    // The batch engine's hard job: a random 5-wire permutation (the
    // first row of core's wide search pins) under greedy first-solution
    // pruning spends its whole 1500-node budget, expanding 1501 nodes,
    // so ns/node is the median per iteration over 1501.
    let five = rmrls_spec::random_permutation(5, &mut StdRng::seed_from_u64(21)).to_multi_pprm();
    let greedy = SynthesisOptions::new()
        .with_pruning(Pruning::Greedy)
        .with_stop_at_first(true)
        .with_max_nodes(1500);
    group.bench_function("random_5var_greedy_first_solution", |b| {
        b.iter(|| {
            let stats = synthesize(&five, &greedy).expect_err("budget-bound").stats;
            assert_eq!(stats.nodes_expanded, 1501);
            black_box(stats.children_pushed)
        })
    });
    group.finish();
}

/// The `--report`/`--log-json` acceptance check: a null observer must
/// not measurably slow the search relative to the plain entry point.
/// Compare `synthesize/fig1_3var` above against these two runs.
fn bench_observer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer_overhead");
    group.sample_size(20);
    let fig1 = MultiPprm::from_permutation(&[1, 0, 7, 2, 3, 4, 5, 6], 3);
    let opts = SynthesisOptions::new();
    group.bench_function("fig1_null_observer", |b| {
        b.iter(|| {
            let mut obs = Observer::null();
            black_box(
                synthesize_with_observer(&fig1, &opts, &mut obs)
                    .expect("solvable")
                    .circuit
                    .gate_count(),
            )
        })
    });
    group.bench_function("fig1_metrics_observer", |b| {
        b.iter(|| {
            let mut obs = Observer::null().with_metrics();
            black_box(
                synthesize_with_observer(&fig1, &opts, &mut obs)
                    .expect("solvable")
                    .circuit
                    .gate_count(),
            )
        })
    });
    // The serve daemon's per-request stream: a 4-variable search that
    // emits ~21k events into a log that keeps 512. Compare the capped
    // row against the null row; the gap is what streaming costs.
    let four = Permutation::from_vec(vec![4, 2, 13, 14, 6, 15, 3, 1, 12, 7, 10, 0, 8, 5, 11, 9])
        .expect("bijective")
        .to_multi_pprm();
    let opts4 = SynthesisOptions::new()
        .with_pruning(Pruning::TopK(4))
        .with_max_nodes(2_000);
    group.bench_function("topk4_4var_null_observer", |b| {
        b.iter(|| {
            let mut obs = Observer::null();
            black_box(
                synthesize_with_observer(&four, &opts4, &mut obs)
                    .expect("solvable")
                    .circuit
                    .gate_count(),
            )
        })
    });
    group.bench_function("topk4_4var_capped_sink", |b| {
        b.iter(|| {
            let mut obs = Observer::with_sink(Box::new(CappedLines::default()));
            black_box(
                synthesize_with_observer(&four, &opts4, &mut obs)
                    .expect("solvable")
                    .circuit
                    .gate_count(),
            )
        })
    });
    group.finish();
}

/// The serve daemon's event-log policy: keep the first 512 serialized
/// lines, count the rest without building them.
#[derive(Default)]
struct CappedLines {
    lines: Vec<String>,
    dropped: u64,
}

const SERVE_EVENT_LOG_CAP: usize = 512;

impl EventSink for CappedLines {
    fn emit(&mut self, event: Event) {
        if self.lines.len() < SERVE_EVENT_LOG_CAP {
            self.lines.push(event.to_json().to_string());
        } else {
            self.dropped += 1;
        }
    }

    fn emit_with(&mut self, make: &mut dyn FnMut() -> Event) {
        if self.lines.len() < SERVE_EVENT_LOG_CAP {
            self.emit(make());
        } else {
            self.dropped += 1;
        }
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

fn bench_mmd(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut group = c.benchmark_group("mmd");
    let mut rng = StdRng::seed_from_u64(5);
    for n in [3usize, 6, 8] {
        let spec = rmrls_spec::random_permutation(n, &mut rng);
        group.bench_function(format!("bidirectional_n{n}"), |b| {
            b.iter(|| black_box(mmd_synthesize(&spec, MmdVariant::Bidirectional).gate_count()))
        });
    }
    group.finish();
}

fn bench_fredkin_substitution(c: &mut Criterion) {
    let spec = Permutation::from_rank(4, 9_876_543_210).to_multi_pprm();
    c.bench_function("multipprm_substitute_fredkin", |b| {
        b.iter(|| black_box(spec.substitute_fredkin(0, 1, Term::var(3)).1))
    });
}

fn bench_decompose(c: &mut Criterion) {
    use rmrls_circuit::{Circuit, Gate};
    let wide = Circuit::from_gates(10, vec![Gate::toffoli(&[0, 1, 2, 3, 4, 5, 6, 7], 8)]);
    c.bench_function("decompose_tof9_to_nct", |b| {
        b.iter(|| black_box(decompose_to_nct(&wide).expect("free line").gate_count()))
    });
}

fn bench_peephole(c: &mut Criterion) {
    let mut group = c.benchmark_group("peephole");
    group.sample_size(10);
    let optimizer = PeepholeOptimizer::new();
    let spec = Permutation::from_rank(3, 20_000);
    let circuit = mmd_synthesize(&spec, MmdVariant::Unidirectional);
    group.bench_function("optimize_mmd_3var", |b| {
        b.iter_batched(
            || circuit.clone(),
            |mut c| {
                optimizer.optimize(&mut c);
                black_box(c.gate_count())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Canonicalization of randomly relabeled random 4-gate GT circuit
/// specs, the batch workload's input class, at the widths where its
/// `n!` relabelings dominate.
fn bench_canonical_form(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rmrls_engine::canon::{canonical_form, conjugate_table};
    use rmrls_spec::{random_circuit_spec, random_permutation, GateLibrary};
    let mut group = c.benchmark_group("canonical_form");
    group.sample_size(10);
    let mut bench_row = |name: String, specs: &[Permutation]| {
        group.bench_function(name, |b| {
            b.iter(|| {
                for p in specs {
                    black_box(canonical_form(p, 8));
                }
            })
        });
    };
    // Sparse circuit specs take the class-prefix skip; random
    // permutations have tiny classes and keep the plain walk;
    // functions with large stabilizers tie on long prefixes.
    let mut rng = StdRng::seed_from_u64(7);
    for n in [4usize, 6, 7, 8] {
        let specs: Vec<Permutation> = (0..4)
            .map(|_| {
                let (p, _) = random_circuit_spec(n, 4, GateLibrary::Gt, &mut rng);
                let mut sigma: Vec<u8> = (0..n as u8).collect();
                sigma.shuffle(&mut rng);
                Permutation::from_vec(conjugate_table(p.as_slice(), &sigma)).expect("bijective")
            })
            .collect();
        bench_row(format!("gt4_relabeled_n{n}"), &specs);
    }
    let mut rng = StdRng::seed_from_u64(8);
    for n in [7usize, 8] {
        let specs: Vec<Permutation> = (0..4).map(|_| random_permutation(n, &mut rng)).collect();
        bench_row(format!("random_n{n}"), &specs);
        let mask = (1u64 << n) - 1;
        let top = 1u64 << (n - 1);
        let ties: Vec<Permutation> = [
            (0..=mask).collect(),
            (0..=mask).map(|x| x ^ mask).collect(),
            (0..=mask).map(|x| x ^ (x & 1) << 1).collect(),
            (0..=mask)
                .map(|x| if x | top == mask { x ^ top } else { x })
                .collect(),
        ]
        .into_iter()
        .map(|table| Permutation::from_vec(table).expect("bijective"))
        .collect();
        bench_row(format!("tie_heavy_n{n}"), &ties);
    }
    group.finish();
}

fn bench_optimal_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_bfs");
    group.sample_size(10);
    group.bench_function("build_nct_40320", |b| {
        b.iter(|| black_box(OptimalTable::build(OptimalLibrary::Nct).average()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_anf,
    bench_substitution,
    bench_synthesis,
    bench_observer_overhead,
    bench_mmd,
    bench_fredkin_substitution,
    bench_decompose,
    bench_peephole,
    bench_canonical_form,
    bench_optimal_bfs
);
criterion_main!(benches);
