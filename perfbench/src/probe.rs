//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions on the
//! workload's own inputs, from the benchmark's code, and records every
//! call as a span. The unit costs found here, multiplied by the counts
//! the workload itself produced, give each layer's share of the
//! end-to-end time (see `decompose` in `main.rs`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rmrls_baselines::{mmd_synthesize, MmdVariant};
use rmrls_circuit::Circuit;
use rmrls_core::{synthesize, Pruning, SynthesisOptions};
use rmrls_engine::{
    canonical_form, uncanonicalize_circuit, CacheKey, SharedCache, SharedStore, SolveTier,
};
use rmrls_obs::Json;
use rmrls_pprm::{MultiPprm, SubstScratch, Term};
use rmrls_serve::{RequestJournal, SynthesisRequest};
use rmrls_spec::{random_circuit_spec, GateLibrary, Permutation};
use rmrls_telemetry::{read_request_limited, write_response, Response};

use crate::inputs::{request_body, Spec};
use crate::measure::Tracer;

/// Spend at least this long timing each cheap kernel, so its per-call
/// figure rests on many calls.
const MIN_KERNEL_S: f64 = 0.05;
/// Cap on specs given to the expensive probes (search, canonicalize,
/// MMD, store and journal appends).
const MAX_PROBE_SPECS: usize = 12;

pub type Costs = BTreeMap<&'static str, f64>;

pub const CANON_BY_WIDTH: [&str; 6] = [
    "canon.us.w3",
    "canon.us.w4",
    "canon.us.w5",
    "canon.us.w6",
    "canon.us.w7",
    "canon.us.w8",
];
pub const VERIFY_BY_WIDTH: [&str; 6] = [
    "verify.us.w3",
    "verify.us.w4",
    "verify.us.w5",
    "verify.us.w6",
    "verify.us.w7",
    "verify.us.w8",
];

/// Times `f` repeatedly for at least `MIN_KERNEL_S`; returns seconds
/// per operation, where one call of `f` performs `ops` operations.
fn per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u64;
    loop {
        f();
        reps += 1;
        let t = start.elapsed().as_secs_f64();
        if t >= MIN_KERNEL_S {
            return t / (reps as f64 * ops.max(1) as f64);
        }
    }
}

fn perm(spec: &Spec) -> Permutation {
    Permutation::from_vec(spec.table.clone()).expect("generated specs are permutations")
}

/// Search states drawn from the specs: each root PPRM plus a few
/// descendants reached by seeded random substitutions, with every
/// candidate substitution `(state, var, factor)` of each state.
fn state_corpus(specs: &[&Spec], rng: &mut StdRng) -> Vec<(MultiPprm, usize, Term)> {
    let mut scratch = SubstScratch::new();
    let mut corpus = Vec::new();
    for spec in specs {
        let mut state = perm(spec).to_multi_pprm();
        for _depth in 0..4 {
            let candidates: Vec<(usize, Term)> = (0..state.num_vars())
                .flat_map(|v| {
                    state
                        .output(v)
                        .terms()
                        .iter()
                        .filter(move |t| !t.contains_var(v))
                        .map(move |&t| (v, t))
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            for &(v, t) in &candidates {
                corpus.push((state.clone(), v, t));
            }
            let (v, t) = candidates[rng.random_range(0..candidates.len())];
            state = state.substitute_with(v, t, &mut scratch).0;
        }
    }
    corpus
}

/// Runs every layer probe on `specs` with the workload's search options,
/// keeping its files under `dir`.
pub fn run(
    specs: &[Spec],
    sopts: &SynthesisOptions,
    dir: &std::path::Path,
    rng: &mut StdRng,
    tracer: &mut Tracer,
) -> Result<Costs, String> {
    let mut c = Costs::new();
    // A seeded random sample of the workload's inputs.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.shuffle(rng);
    order.truncate(MAX_PROBE_SPECS);
    order.sort_unstable();
    let sample: Vec<&Spec> = order.iter().map(|&i| &specs[i]).collect();
    let root = tracer.open("probe", None, 0);

    // pprm: ANF transform, candidate scoring and materialization.
    let span = tracer.open("pprm.probe", root, 0);
    let perms: Vec<Permutation> = specs.iter().map(perm).collect();
    let anf_s = per_op(perms.len(), || {
        for p in &perms {
            black_box(p.to_multi_pprm());
        }
    });
    c.insert("pprm.anf_ns", anf_s * 1e9);
    let corpus = state_corpus(&sample, rng);
    let mut scratch = SubstScratch::new();
    let score_s = per_op(corpus.len(), || {
        for (s, v, t) in &corpus {
            black_box(s.count_substitute(*v, *t, &mut scratch));
        }
    });
    c.insert("pprm.score_ns", score_s * 1e9);
    let materialize_s = per_op(corpus.len(), || {
        for (s, v, t) in &corpus {
            black_box(s.substitute_with(*v, *t, &mut scratch));
        }
    });
    c.insert("pprm.materialize_ns", materialize_s * 1e9);
    tracer.close(span);

    // core: the search itself, with the workload's options.
    let span = tracer.open("core.probe", root, 0);
    let mut circuits: Vec<(Permutation, Circuit)> = Vec::new();
    let (mut nodes, mut scored, mut materialized, mut search_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut dedup, mut queue_peak, mut threads, mut tier1_s) = (0.0, 0.0f64, 0.0f64, 0.0);
    for (i, spec) in sample.iter().enumerate() {
        let p = perm(spec);
        let pprm = p.to_multi_pprm();
        let t = Instant::now();
        let mut result = synthesize(&pprm, sopts);
        tier1_s += match &result {
            Ok(s) => s.stats.elapsed.as_secs_f64(),
            Err(e) => e.stats.elapsed.as_secs_f64(),
        };
        if let Err(e) = &result {
            // The engine's second ladder tier: greedy, small queue, first
            // solution.
            search_s += e.stats.elapsed.as_secs_f64();
            let relaxed = sopts
                .clone()
                .with_pruning(Pruning::Greedy)
                .with_stop_at_first(true)
                .with_max_queue(Some(10_000));
            result = synthesize(&pprm, &relaxed);
        }
        tracer.record("core.synthesize", t, Instant::now(), span, i as u64);
        let stats = match result {
            Ok(s) => {
                circuits.push((p, s.circuit));
                s.stats
            }
            Err(e) => {
                circuits.push((p.clone(), mmd_synthesize(&p, MmdVariant::Bidirectional)));
                e.stats
            }
        };
        nodes += stats.nodes_expanded as f64;
        scored += stats.candidates_scored as f64;
        materialized += stats.candidates_materialized as f64;
        search_s += stats.elapsed.as_secs_f64();
        dedup += stats.dedup_hits as f64;
        queue_peak = queue_peak.max(stats.queue_peak as f64);
        threads = threads.max(stats.threads_used as f64);
    }
    // The same searches at the synth default thread count (auto), for
    // the intra-job parallelism question.
    let auto = sopts.clone().with_threads(0);
    let (mut auto_s, mut auto_threads, mut auto_scored, mut auto_wasted) = (0.0, 0.0f64, 0.0, 0.0);
    for spec in &sample {
        let pprm = perm(spec).to_multi_pprm();
        let stats = match synthesize(&pprm, &auto) {
            Ok(s) => s.stats,
            Err(e) => e.stats,
        };
        auto_s += stats.elapsed.as_secs_f64();
        auto_threads = auto_threads.max(stats.threads_used as f64);
        auto_scored += stats.candidates_scored as f64;
        auto_wasted += stats.spec_scored_wasted as f64;
    }
    tracer.close(span);
    c.insert("core.auto_threads", auto_threads);
    c.insert("core.auto_thread_speedup", tier1_s / auto_s.max(1e-12));
    c.insert(
        "core.spec_waste_ratio",
        if auto_scored > 0.0 {
            auto_wasted / auto_scored
        } else {
            0.0
        },
    );
    let searches = sample.len().max(1) as f64;
    c.insert("core.search_s_per_search", search_s / searches);
    c.insert("core.nodes_per_search", nodes / searches);
    c.insert("core.scored_per_search", scored / searches);
    c.insert("core.materialized_per_search", materialized / searches);
    c.insert("core.dedup_hits_per_search", dedup / searches);
    c.insert("core.queue_peak", queue_peak);
    c.insert("core.threads_used", threads);
    if circuits.is_empty() {
        return Err("no probe search produced a circuit".to_string());
    }

    // engine::canon and circuit by width: canonicalization costs
    // n!·2^n whatever the function, verification 2^n simulations.
    let span = tracer.open("width.probe", root, 0);
    for (i, width) in (3..=8).enumerate() {
        let (p, circ) = random_circuit_spec(width, 8, GateLibrary::Gt, rng);
        let canon_s = per_op(1, || {
            black_box(canonical_form(&p, 8));
        });
        c.insert(CANON_BY_WIDTH[i], canon_s * 1e6);
        let verify_s = per_op(1, || {
            black_box(circ.to_permutation() == p.as_slice());
        });
        c.insert(VERIFY_BY_WIDTH[i], verify_s * 1e6);
    }
    tracer.close(span);

    // engine::canon: canonicalization and the way back.
    let span = tracer.open("canon.probe", root, 0);
    let keyed: Vec<(CacheKey, Vec<u8>, &Circuit)> = circuits
        .iter()
        .map(|(p, circ)| {
            let (table, sigma) = canonical_form(p, 8);
            let key = CacheKey {
                num_vars: p.num_vars(),
                table,
            };
            (key, sigma, circ)
        })
        .collect();
    let canon_s = per_op(circuits.len(), || {
        for (p, _) in &circuits {
            black_box(canonical_form(p, 8));
        }
    });
    c.insert("canon.us", canon_s * 1e6);
    let uncanon_s = per_op(keyed.len(), || {
        for (_, sigma, circ) in &keyed {
            black_box(uncanonicalize_circuit(circ, sigma));
        }
    });
    c.insert("canon.uncanon_us", uncanon_s * 1e6);
    tracer.close(span);

    // engine::cache: the shared LRU.
    let span = tracer.open("cache.probe", root, 0);
    let cache = SharedCache::new(1024);
    let insert_s = per_op(keyed.len(), || {
        for (key, _, circ) in &keyed {
            cache
                .lock()
                .insert(key.clone(), (*circ).clone(), SolveTier::Rmrls);
        }
    });
    c.insert("cache.insert_ns", insert_s * 1e9);
    let get_s = per_op(keyed.len(), || {
        for (key, _, _) in &keyed {
            black_box(cache.lock().get(key));
        }
    });
    c.insert("cache.get_ns", get_s * 1e9);
    tracer.close(span);

    // circuit: simulate and compare, as the engine's verifier does.
    let span = tracer.open("circuit.probe", root, 0);
    let verify_s = per_op(circuits.len(), || {
        for (p, circ) in &circuits {
            black_box(circ.to_permutation() == p.as_slice());
        }
    });
    c.insert("verify.us", verify_s * 1e6);
    tracer.close(span);

    // baselines: the MMD fallback tier.
    let span = tracer.open("baselines.probe", root, 0);
    let mmd_s = per_op(circuits.len(), || {
        for (p, _) in &circuits {
            black_box(mmd_synthesize(p, MmdVariant::Bidirectional));
        }
    });
    c.insert("baselines.mmd_ms", mmd_s * 1e3);
    tracer.close(span);

    // engine::store: fsync'd appends, open with re-verify, lookups.
    let span = tracer.open("store.probe", root, 0);
    let store_path = dir.join("probe.store");
    let _ = std::fs::remove_file(&store_path);
    let store_path = store_path.to_string_lossy().to_string();
    let store = SharedStore::open(&store_path)?;
    let t = Instant::now();
    for (key, _, circ) in &keyed {
        store
            .lock()
            .insert(key, circ, SolveTier::Rmrls, "perfbench")?;
    }
    c.insert(
        "store.append_ms",
        t.elapsed().as_secs_f64() * 1e3 / keyed.len() as f64,
    );
    drop(store);
    let mut opened = None;
    let open_s = per_op(1, || opened = Some(SharedStore::open(&store_path)));
    let store = opened.expect("the store was opened at least once")?;
    c.insert("store.open_ms", open_s * 1e3);
    c.insert("store.open_us_per_entry", open_s * 1e6 / keyed.len() as f64);
    let store_get_s = per_op(keyed.len(), || {
        for (key, _, _) in &keyed {
            black_box(store.lock().get(key));
        }
    });
    c.insert("store.get_ns", store_get_s * 1e9);
    tracer.close(span);

    // serve::journal: fsync'd appends and replay.
    let span = tracer.open("journal.probe", root, 0);
    let journal_path = dir.join("probe.journal");
    let _ = std::fs::remove_file(&journal_path);
    let journal_path = journal_path.to_string_lossy().to_string();
    let (journal, _) = RequestJournal::open(&journal_path)?;
    let requests: Vec<SynthesisRequest> = sample
        .iter()
        .map(|s| SynthesisRequest::from_json_str(&request_body(s)))
        .collect::<Result<_, _>>()?;
    let record = Json::Obj(vec![("status".to_string(), Json::str("solved"))]);
    let t = Instant::now();
    for (id, r) in requests.iter().enumerate() {
        journal.append_submitted(id as u64 + 1, r)?;
        journal.append_completed(id as u64 + 1, false, &record)?;
    }
    c.insert(
        "journal.append_ms",
        t.elapsed().as_secs_f64() * 1e3 / (2 * requests.len()) as f64,
    );
    drop(journal);
    let replay_s = per_op(1, || {
        black_box(RequestJournal::open(&journal_path).map(|(_, replay)| replay.max_id)).ok();
    });
    c.insert("journal.replay_ms", replay_s * 1e3);
    c.insert(
        "journal.bytes",
        std::fs::metadata(&journal_path).map_or(0.0, |m| m.len() as f64),
    );
    tracer.close(span);

    // serve + telemetry::http: parse the exact request bytes, write a
    // reply, parse and admit the body.
    let span = tracer.open("http.probe", root, 0);
    let raw: Vec<(Vec<u8>, String)> = sample
        .iter()
        .map(|s| {
            let body = request_body(s);
            let head = format!(
                "POST /synthesize HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            ([head.as_bytes(), body.as_bytes()].concat(), body)
        })
        .collect();
    let parse_s = per_op(raw.len(), || {
        for (bytes, _) in &raw {
            black_box(read_request_limited(&bytes[..], 1 << 20).is_ok());
        }
    });
    c.insert("http.parse_us", parse_s * 1e6);
    let gates: Vec<String> = keyed[0]
        .2
        .gates()
        .iter()
        .map(|g| format!("\"{g}\""))
        .collect();
    let reply_body = format!(
        "{{\"id\":1,\"cache_hit\":false,\"record\":{{\"circuit\":[{}]}}}}",
        gates.join(",")
    );
    let mut out = Vec::with_capacity(4096);
    let write_s = per_op(1, || {
        out.clear();
        let _ = write_response(&mut out, &Response::json(200, reply_body.clone()), false);
        black_box(out.len());
    });
    c.insert("http.write_us", write_s * 1e6);
    let admit_s = per_op(raw.len(), || {
        for (_, body) in &raw {
            if let Ok(r) = SynthesisRequest::from_json_str(body) {
                black_box(r.admit(0));
            }
        }
    });
    c.insert("serve.request_parse_us", admit_s * 1e6);
    tracer.close(span);
    tracer.close(root);
    Ok(c)
}
