//! `perfbench` — the RMRLS benchmark.
//!
//! ```text
//! perfbench --workload <paper_search|batch_wide|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets the workload up,
//! runs one warm-up round and then timed rounds for `--seconds`, checks
//! every circuit with its own oracle, and prints every metric by name
//! with its unit. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run (half the rounds untraced, half traced, then the layer
//! probes). Run files (inputs, report, Chrome trace) go to
//! `.bench_runs/<workload>-s<seed>-t<trace>/` under the current
//! directory. See `README.md` for the metric definitions.

mod inputs;
mod loadgen;
mod measure;
mod oracle;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use measure::{lower_quartile, per_input, percentile, tail, upper_quartile, Tracer};
use workloads::{BatchWide, PaperSearch, Round, ServeMix, Workload};

/// Fewest timed rounds a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                map.insert(flag.clone(), value.clone());
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.clone();
    if !["paper_search", "batch_wide", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// FNV-1a over every file under `crates/` (sorted paths and contents):
/// identifies the source the program was built from when no git
/// revision is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn sum_counts(rounds: &[Round]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for r in rounds {
        for (k, v) in &r.counts {
            *out.entry(*k).or_insert(0.0) += v;
        }
    }
    let n = rounds.len().max(1) as f64;
    out.values_mut().for_each(|v| *v /= n);
    out
}

/// The layer decomposition of one average round: per-layer self time
/// from the probes' unit costs times the round's counts, and the
/// leftover against the base time the layers add up to (wall time for
/// `paper_search`, workers × wall for `batch_wide`, summed request
/// latency for `serve_mix`).
fn decompose(
    workload: &str,
    counts: &BTreeMap<&'static str, f64>,
    costs: &probe::Costs,
    base_s: f64,
) -> BTreeMap<&'static str, f64> {
    let n = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| costs.get(k).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    let per_width = |prefix: &str, cost: &[&str; 6]| -> f64 {
        (3..=8)
            .zip(cost)
            .map(|(w, k)| n(&format!("{prefix}.w{w}")) * c(k))
            .sum::<f64>()
    };
    let canon_us = per_width("canon", &probe::CANON_BY_WIDTH);
    let verify_us = per_width("verify", &probe::VERIFY_BY_WIDTH);
    // Search time: measured around each call (paper_search); the time
    // of the cache-miss jobs less their canonicalization and
    // verification (batch_wide); searches × the probe's mean search
    // (serve_mix). Node and candidate counts scale with it.
    let searches = match workload {
        "paper_search" => n("search_s") / c("core.search_s_per_search").max(1e-12),
        "batch_wide" => {
            let canon_verify_us = per_width("miss", &probe::CANON_BY_WIDTH)
                + per_width("miss", &probe::VERIFY_BY_WIDTH);
            (n("miss_s") - canon_verify_us * 1e-6).max(0.0)
                / c("core.search_s_per_search").max(1e-12)
        }
        _ => n("searches"),
    };
    let (nodes, scored, materialized, search_s) = if workload == "paper_search" {
        (n("nodes"), n("scored"), n("materialized"), n("search_s"))
    } else {
        (
            searches * c("core.nodes_per_search"),
            searches * c("core.scored_per_search"),
            searches * c("core.materialized_per_search"),
            searches * c("core.search_s_per_search"),
        )
    };
    let score_s = scored * c("pprm.score_ns") * 1e-9;
    let materialize_s = materialized * c("pprm.materialize_ns") * 1e-9;
    m.insert("pprm.scored", scored);
    m.insert("pprm.materialized", materialized);
    m.insert(
        "pprm.materialize_ratio",
        if scored > 0.0 {
            materialized / scored
        } else {
            0.0
        },
    );
    m.insert("core.nodes", nodes);
    m.insert("core.search_s", search_s);
    m.insert("core.self_s", search_s - score_s - materialize_s);
    m.insert(
        "core.nodes_per_s",
        c("core.nodes_per_search") / c("core.search_s_per_search").max(1e-12),
    );
    m.insert(
        "core.dedup_hits",
        c("core.dedup_hits_per_search") * searches.max(1.0),
    );
    m.insert("canon.calls", n("canon"));
    let lookups = n("cache_hits") + n("cache_misses");
    m.insert(
        "cache.hit_ratio",
        if lookups > 0.0 {
            n("cache_hits") / lookups
        } else {
            0.0
        },
    );
    m.insert("cache_hits", n("cache_hits"));
    m.insert("ladder.rmrls", n("ladder.rmrls"));
    m.insert("ladder.relaxed", n("ladder.relaxed"));
    m.insert("ladder.mmd", n("ladder.mmd"));
    m.insert("engine.busy_frac", n("busy_s") / base_s);

    let layers = [
        (
            "self_s.pprm",
            n("anf") * c("pprm.anf_ns") * 1e-9 + score_s + materialize_s,
        ),
        ("self_s.core", search_s - score_s - materialize_s),
        (
            "self_s.canon",
            (canon_us + n("uncanon") * c("canon.uncanon_us")) * 1e-6,
        ),
        (
            "self_s.cache",
            (n("cache_get") * c("cache.get_ns") + n("cache_insert") * c("cache.insert_ns")) * 1e-9,
        ),
        ("self_s.circuit", verify_us * 1e-6),
        ("self_s.baselines", n("mmd") * c("baselines.mmd_ms") * 1e-3),
        (
            "self_s.store",
            n("store_get") * c("store.get_ns") * 1e-9
                + n("store_append") * c("store.append_ms") * 1e-3,
        ),
        (
            "self_s.journal",
            n("journal_append") * c("journal.append_ms") * 1e-3,
        ),
        (
            "self_s.http",
            n("http")
                * (c("http.parse_us") + c("http.write_us") + c("serve.request_parse_us"))
                * 1e-6,
        ),
    ];
    let layer_sum: f64 = layers.iter().map(|(_, v)| v).sum();
    for (k, v) in layers {
        m.insert(k, v);
    }
    let leftover = base_s - layer_sum;
    m.insert("leftover_s", leftover);
    m.insert("leftover_frac", leftover / base_s);
    assert!(
        (layer_sum + leftover - base_s).abs() <= 1e-9 * base_s.abs().max(1.0),
        "layers plus leftover must equal the end-to-end base"
    );
    m
}

/// Unit of every metric the benchmark prints.
fn unit(name: &str) -> &'static str {
    match name {
        "setup_s" | "wall_s" | "leftover_s" | "core.search_s" | "core.self_s" => "s",
        "jobs_per_s" => "jobs/s",
        "latency_mean_ms" => "ms",
        "gates_total" => "gates",
        "peak_rss_mb" => "MiB",
        "core.nodes_per_s" => "nodes/s",
        "journal.bytes" => "bytes",
        n if n.starts_with("self_s.") => "s",
        n if n.ends_with("_ns") => "ns",
        n if n.ends_with("_us") || n.contains(".us") || n.ends_with("_us_per_entry") => "us",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_frac") || n.ends_with("_ratio") => "fraction",
        "canon.calls" | "cache_hits" | "pprm.scored" | "pprm.materialized" | "core.nodes"
        | "core.dedup_hits" | "core.queue_peak" => "count",
        n if n.starts_with("ladder.") => "jobs",
        "core.threads_used" | "core.auto_threads" => "threads",
        "core.auto_thread_speedup" => "ratio",
        _ => "count",
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let dir = PathBuf::from(".bench_runs").join(format!(
        "{}-s{}-t{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let (mut workload, setup_s): (Box<dyn Workload>, Option<f64>) = match args.workload.as_str() {
        "paper_search" => {
            let (w, s) = PaperSearch::setup(args.seed, &dir)?;
            (Box::new(w), Some(s))
        }
        "batch_wide" => {
            let (w, s) = BatchWide::setup(args.seed, &dir)?;
            (Box::new(w), Some(s))
        }
        _ => (Box::new(ServeMix::setup(args.seed, &dir)?), None),
    };

    // One untimed warm-up round, then timed rounds. A traced run spends
    // the first half of its time untraced and the second half traced.
    let mut tracer = Tracer::new(false);
    let warmup = workload.round(0, &mut tracer);
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    let mut index = 1;
    while untraced.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < untraced_s {
        untraced.push(workload.round(index, &mut tracer));
        index += 1;
    }
    if args.trace {
        tracer.set_enabled(true);
        let start = Instant::now();
        while traced.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
            traced.push(workload.round(index, &mut tracer));
            index += 1;
        }
    }

    // Peak memory of the rounds, before any probe runs.
    let rounds_rss = measure::peak_rss_mib();

    // Correctness: every unit succeeded and every round produced the
    // same circuits.
    let all: Vec<&Round> = std::iter::once(&warmup)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let attempted: usize = all.iter().map(|r| r.attempted).sum();
    let failed: usize = all.iter().map(|r| r.failed).sum();
    let mut problems: Vec<String> = all.iter().flat_map(|r| r.errors.clone()).take(10).collect();
    let digests: Vec<String> = all
        .iter()
        .map(|r| r.digest.map_or("none".to_string(), |d| d.hex()))
        .collect();
    if digests.iter().any(|d| d != &digests[0]) {
        problems.push(format!("circuits differ between rounds: {digests:?}"));
    }
    if all.iter().any(|r| r.gates_total != warmup.gates_total) {
        problems.push("gates_total differs between rounds".to_string());
    }
    let correct = failed == 0 && problems.is_empty();

    // End-to-end figures, from the untraced rounds. Every round repeats
    // the same inputs, and interference from the host only ever adds
    // time, so each figure takes the undisturbed quartile over rounds:
    // the lower quartile of times, the upper quartile of rates, and, per
    // input, the lower quartile of its latency before the percentiles
    // across inputs are taken.
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.attempted as f64 / r.wall_s)
        .collect();
    let latencies = per_input(untraced.iter().map(|r| &r.latencies_ms));
    let setup_s = setup_s.unwrap_or_else(|| {
        lower_quartile(
            &untraced
                .iter()
                .filter_map(|r| r.setup_s)
                .collect::<Vec<_>>(),
        )
    });
    let wall_s = lower_quartile(&walls);
    let mut e2e: Vec<(&str, f64)> = vec![
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("jobs_per_s", upper_quartile(&rates)),
        (
            "latency_mean_ms",
            latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
        ),
        ("gates_total", warmup.gates_total as f64),
    ];

    // Latency percentiles across inputs and the serve_mix phase
    // breakdown: printed and kept in the report. Across inputs of
    // different widths and tiers these land on gaps between classes, so
    // they are too unsteady to gate on.
    let mut phases: Vec<(String, f64)> = vec![
        ("latency_p50_ms".to_string(), percentile(&latencies, 50.0)),
        ("latency_p90_ms".to_string(), percentile(&latencies, 90.0)),
        ("latency_inputs".to_string(), latencies.len() as f64),
    ];
    for name in ["cold", "hit", "store_hit"] {
        let lat = per_input(untraced.iter().filter_map(|r| r.phases.get(name)));
        if lat.is_empty() {
            continue;
        }
        let (label, value) = tail(&lat);
        phases.push((format!("{name}_p50_ms"), percentile(&lat, 50.0)));
        if label != "p50" {
            phases.push((format!("{name}_{label}_ms"), value));
        }
        phases.push((format!("{name}_inputs"), lat.len() as f64));
        let sent: usize = untraced
            .iter()
            .filter_map(|r| r.phases.get(name))
            .map(Vec::len)
            .sum();
        let failed: usize = untraced
            .iter()
            .filter_map(|r| r.phase_failed.get(name))
            .sum();
        phases.push((format!("{name}_sent"), sent as f64));
        phases.push((format!("{name}_succeeded"), (sent - failed) as f64));
        phases.push((format!("{name}_failed"), failed as f64));
        if name == "hit" {
            let rps: Vec<f64> = untraced
                .iter()
                .filter_map(|r| Some(r.phases.get(name)?.len() as f64 / r.phase_wall_s.get(name)?))
                .collect();
            phases.push(("hit_req_per_s".to_string(), upper_quartile(&rps)));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let mut span_self = BTreeMap::new();
    if args.trace {
        let mut rng = inputs::rng_for(args.seed, 4);
        let costs = probe::run(
            workload.specs(),
            workload.search_options(),
            &dir,
            &mut rng,
            &mut tracer,
        )?;
        // Counts are averaged over the untraced rounds, so the base is
        // too.
        let counts = sum_counts(&untraced);
        let mean_wall = walls.iter().sum::<f64>() / walls.len() as f64;
        let base_s = match args.workload.as_str() {
            "paper_search" => mean_wall,
            "batch_wide" => mean_wall * nproc as f64,
            _ => {
                untraced
                    .iter()
                    .map(|r| r.latencies_ms.iter().sum::<f64>() / 1e3)
                    .sum::<f64>()
                    / untraced.len() as f64
            }
        };
        let mut derived = decompose(&args.workload, &counts, &costs, base_s);
        let traced_wall = lower_quartile(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        derived.insert("trace.overhead_frac", traced_wall / wall_s - 1.0);
        derived.insert("peak_rss_mb", rounds_rss);
        for key in [
            "pprm.anf_ns",
            "pprm.score_ns",
            "pprm.materialize_ns",
            "core.queue_peak",
            "core.threads_used",
            "core.auto_threads",
            "core.auto_thread_speedup",
            "core.spec_waste_ratio",
            "canon.us",
            "canon.uncanon_us",
            "cache.get_ns",
            "cache.insert_ns",
            "baselines.mmd_ms",
            "verify.us",
            "store.open_ms",
            "store.open_us_per_entry",
            "store.get_ns",
            "store.append_ms",
            "journal.append_ms",
            "journal.replay_ms",
            "journal.bytes",
            "http.parse_us",
            "http.write_us",
            "serve.request_parse_us",
        ]
        .into_iter()
        .chain(probe::CANON_BY_WIDTH)
        .chain(probe::VERIFY_BY_WIDTH)
        {
            derived.insert(key, costs[key]);
        }
        metrics = derived.into_iter().collect();
        span_self = tracer.self_seconds();
        std::fs::write(dir.join("trace.json"), tracer.chrome_json())
            .map_err(|e| format!("cannot write trace: {e}"))?;
    } else {
        metrics.append(&mut e2e);
    }

    // Human-readable lines, then the report file, then the result line.
    let threads = workload.search_options().resolved_threads();
    println!(
        "perfbench {} seed={} trace={} rounds={} nproc={} search_threads={} profile={} git_rev={} src_digest={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        untraced.len() + traced.len(),
        nproc,
        threads,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        source_digest(Path::new("crates")),
    );
    println!(
        "circuits digest={} attempted={attempted} failed={failed} error_rate={}",
        digests[0],
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        println!("problem: {p}");
    }
    for (name, value) in &metrics {
        println!("{name:<28} {:>16} {}", json_num(*value), unit(name));
    }
    for (name, value) in &phases {
        println!(
            "{name:<28} {:>16} {}",
            json_num(*value),
            if name.ends_with("_ms") {
                "ms"
            } else if name.ends_with("per_s") {
                "req/s"
            } else {
                "count"
            }
        );
    }
    for (name, secs) in &span_self {
        println!("span_self_s.{name:<16} {:>16} s", json_num(*secs));
    }

    let obj = |pairs: &mut dyn Iterator<Item = (String, String)>| -> String {
        let fields: Vec<String> = pairs.map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    };
    let metrics_json = obj(&mut metrics.iter().map(|(k, v)| {
        (
            k.to_string(),
            format!("{{\"value\":{},\"unit\":\"{}\"}}", json_num(*v), unit(k)),
        )
    }));
    let report = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{nproc},\"search_threads\":{threads},\"rounds\":{},\"digest\":\"{}\",\"metrics\":{metrics_json},\"phases\":{},\"span_self_s\":{},\"round_wall_s\":[{}],\"input_latency_ms\":[{}]}}\n",
        args.workload,
        args.seed,
        args.trace,
        untraced.len() + traced.len(),
        digests[0],
        obj(&mut phases.iter().map(|(k, v)| (k.clone(), json_num(*v)))),
        obj(&mut span_self.iter().map(|(k, v)| (k.to_string(), json_num(*v)))),
        walls.iter().map(|w| json_num(*w)).collect::<Vec<_>>().join(","),
        latencies.iter().map(|w| json_num(*w)).collect::<Vec<_>>().join(","),
    );
    std::fs::write(dir.join("report.json"), report)
        .map_err(|e| format!("cannot write report: {e}"))?;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_json}}}"
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper_search|batch_wide|serve_mix> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
