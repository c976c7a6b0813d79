//! Ablation study of the design choices documented in DESIGN.md:
//! priority modes (Eq. 4 readings vs. the A* default), pruning
//! strategies, the §IV-D additional substitutions, and template
//! post-processing — all on a fixed deterministic workload.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rmrls_baselines::{mmd_synthesize, MmdVariant, PeepholeOptimizer};
use rmrls_bench::{print_row, print_rule, scaled};
use rmrls_circuit::simplify;
use rmrls_core::{synthesize, FredkinMode, PriorityMode, Pruning, SynthesisOptions};
use rmrls_spec::{random_permutation, Permutation};

fn workload_3var(samples: usize) -> Vec<Permutation> {
    (0..40320u128)
        .step_by((40320 / samples).max(1))
        .map(|r| Permutation::from_rank(3, r))
        .collect()
}

fn workload_4var(samples: usize) -> Vec<Permutation> {
    let mut rng = StdRng::seed_from_u64(0xab1a);
    (0..samples)
        .map(|_| random_permutation(4, &mut rng))
        .collect()
}

fn evaluate(name: &str, workload: &[Permutation], opts: &SynthesisOptions, widths: &[usize]) {
    let mut solved = 0usize;
    let mut total_gates = 0usize;
    let mut simplified_gates = 0usize;
    let t0 = std::time::Instant::now();
    for spec in workload {
        if let Ok(r) = synthesize(&spec.to_multi_pprm(), opts) {
            solved += 1;
            total_gates += r.circuit.gate_count();
            let mut c = r.circuit;
            simplify(&mut c);
            simplified_gates += c.gate_count();
        }
    }
    let avg = |total: usize| {
        if solved == 0 {
            f64::NAN
        } else {
            total as f64 / solved as f64
        }
    };
    print_row(
        &[
            name.into(),
            format!("{solved}/{}", workload.len()),
            format!("{:.3}", avg(total_gates)),
            format!("{:.3}", avg(simplified_gates)),
            format!("{:.2?}", t0.elapsed()),
        ],
        widths,
    );
}

fn main() {
    println!("# Ablation — priority modes, pruning, §IV-D substitutions, templates\n");
    let widths = [26usize, 10, 10, 14, 12];
    let header = [
        "configuration".to_string(),
        "solved".into(),
        "avg gates".into(),
        "avg simplified".into(),
        "elapsed".into(),
    ];

    // Node-bounded, so every row is the same on every host.
    let base = SynthesisOptions::new()
        .with_max_gates(40)
        .with_max_nodes(20_000);

    println!("## 3-variable sweep (sampled)");
    let w3 = workload_3var(scaled(200, 2016));
    print_row(&header, &widths);
    print_rule(&widths);
    for (name, opts) in [
        ("astar (default)", base.clone()),
        (
            "eq4 cumulative",
            base.clone()
                .with_priority_mode(PriorityMode::CumulativeRate),
        ),
        (
            "eq4 step",
            base.clone().with_priority_mode(PriorityMode::StepElim),
        ),
        (
            "fewest-terms",
            base.clone().with_priority_mode(PriorityMode::FewestTerms),
        ),
        (
            "no additional subs",
            base.clone().with_additional_substitutions(false),
        ),
        (
            "monotone-only (paper lit.)",
            base.clone().with_monotone_only(true),
        ),
        ("greedy pruning", base.clone().with_pruning(Pruning::Greedy)),
        ("top-3 pruning", base.clone().with_pruning(Pruning::TopK(3))),
        (
            "ncts (swap subs, §VI)",
            base.clone()
                .with_fredkin_substitutions(FredkinMode::SwapOnly),
        ),
        (
            "gf (full fredkin, §VI)",
            base.clone().with_fredkin_substitutions(FredkinMode::Full),
        ),
        ("no seeding dive", base.clone().with_initial_dive(false)),
    ] {
        evaluate(name, &w3, &opts, &widths);
    }

    println!("\n## 4-variable random functions");
    let w4 = workload_4var(scaled(40, 500));
    let base4 = base
        .clone()
        .with_max_nodes(60_000)
        .with_pruning(Pruning::TopK(4));
    print_row(&header, &widths);
    print_rule(&widths);
    for (name, opts) in [
        ("astar top-4 (default)", base4.clone()),
        (
            "eq4 cumulative top-4",
            base4
                .clone()
                .with_priority_mode(PriorityMode::CumulativeRate),
        ),
        ("astar greedy", base4.clone().with_pruning(Pruning::Greedy)),
        (
            "astar exhaustive",
            base4.clone().with_pruning(Pruning::Exhaustive),
        ),
        ("no restarts", base4.clone().with_restart_after(None)),
        ("no state dedup", base4.clone().with_dedup_states(false)),
    ] {
        evaluate(name, &w4, &opts, &widths);
    }

    println!("\n'avg simplified' shows the effect of template post-processing ([21]; the paper reports 6.10 → 6.05 on Table I).");

    // Post-processing comparison on MMD output, which the paper notes
    // "frequently contains sequences of gates that can be simplified".
    println!("\n## Post-processing of MMD unidirectional output (3-variable sample)");
    let peephole = PeepholeOptimizer::new();
    let (mut raw, mut templated, mut peeped, mut n) = (0usize, 0usize, 0usize, 0usize);
    for spec in workload_3var(scaled(200, 2016)) {
        let c = mmd_synthesize(&spec, MmdVariant::Unidirectional);
        raw += c.gate_count();
        let mut t = c.clone();
        simplify(&mut t);
        templated += t.gate_count();
        let mut pkt = c.clone();
        peephole.optimize(&mut pkt);
        peeped += pkt.gate_count();
        n += 1;
    }
    println!(
        "raw MMD avg {:.3} | after templates {:.3} | after peephole ([17]) {:.3} (n={n})",
        raw as f64 / n as f64,
        templated as f64 / n as f64,
        peeped as f64 / n as f64
    );
}
