//! The three workloads, each driven through public APIs only.
//!
//! - `paper_search`: `rmrls_core::synthesize` on the paper's examples;
//! - `batch_wide`: `rmrls_engine::run_batch` on a wide random manifest;
//! - `serve_mix`: `rmrls_serve::ServeDaemon` over TCP, cold / hit /
//!   restart phases.
//!
//! A workload is set up once, then run in rounds; every round does the
//! same work on the same inputs, so a run's figures are medians over
//! its rounds.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rmrls_core::{synthesize, Pruning, SynthesisOptions};
use rmrls_engine::{
    load_manifest, run_batch, Admission, BatchOptions, JobOutcome, SharedStore, ShutdownHandles,
};
use rmrls_obs::Json;
use rmrls_serve::{ServeDaemon, ServeOptions};
use rmrls_spec::Permutation;

use crate::inputs::{self, Spec};
use crate::loadgen::{self, PhaseResult};
use crate::measure::Tracer;
use crate::oracle::{self, Digest};

/// What one round produced.
#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    /// Units of work attempted: synth calls, batch jobs, or requests.
    pub attempted: usize,
    pub failed: usize,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Per-unit latency in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub gates_total: u64,
    pub digest: Option<Digest>,
    /// Per-phase latencies (`serve_mix`) and phase wall times.
    pub phases: BTreeMap<&'static str, Vec<f64>>,
    pub phase_wall_s: BTreeMap<&'static str, f64>,
    pub phase_failed: BTreeMap<&'static str, usize>,
    /// Work counted at layer boundaries, for the layer decomposition.
    pub counts: BTreeMap<&'static str, f64>,
    /// Set-up time measured inside the round (`serve_mix` restart).
    pub setup_s: Option<f64>,
}

impl Round {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn count(&mut self, key: &'static str, by: f64) {
        *self.counts.entry(key).or_insert(0.0) += by;
    }

    /// Checks one circuit with the oracle and folds it into the digest.
    fn circuit(&mut self, spec: &Spec, gates: &[String]) {
        self.digest.get_or_insert_with(Digest::new).add(gates);
        match oracle::check(gates, spec.width, &spec.table) {
            Ok(()) => self.gates_total += gates.len() as u64,
            Err(e) => self.fail(format!("{}: oracle mismatch: {e}", spec.name)),
        }
    }
}

pub trait Workload {
    /// The specs the workload sends (for the layer probes).
    fn specs(&self) -> &[Spec];
    /// The search options its searches run with (for the probes).
    fn search_options(&self) -> &SynthesisOptions;
    /// One round of the workload.
    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round;
}

/// Count keys of per-width work (widths 3–8).
fn by_width(prefix: &str, width: usize) -> &'static str {
    const CANON: [&str; 6] = [
        "canon.w3", "canon.w4", "canon.w5", "canon.w6", "canon.w7", "canon.w8",
    ];
    const VERIFY: [&str; 6] = [
        "verify.w3",
        "verify.w4",
        "verify.w5",
        "verify.w6",
        "verify.w7",
        "verify.w8",
    ];
    const MISS: [&str; 6] = [
        "miss.w3", "miss.w4", "miss.w5", "miss.w6", "miss.w7", "miss.w8",
    ];
    let table = match prefix {
        "canon" => &CANON,
        "verify" => &VERIFY,
        _ => &MISS,
    };
    table[width.clamp(3, 8) - 3]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn gate_strings(c: &rmrls_circuit::Circuit) -> Vec<String> {
    c.gates().iter().map(ToString::to_string).collect()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Lower quartile of `reps` timings of `f`, in seconds.
fn timed_quartile<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("reps >= 1"),
        crate::measure::lower_quartile(&times),
    ))
}

// ---------------------------------------------------------------- paper

/// Node budget per search: every spec finds a solution well inside it
/// and then spends the rest improving, so each search does a fixed
/// amount of work whatever the relabeling.
const PAPER_NODES: u64 = 3_000;
const PAPER_MAX_GATES: usize = 40;
/// A small queue keeps the search's working set in cache, so the figures
/// depend less on what else shares the machine's caches.
const PAPER_MAX_QUEUE: usize = 2_000;

pub struct PaperSearch {
    specs: Vec<Spec>,
    opts: SynthesisOptions,
}

impl PaperSearch {
    /// Generates the inputs and writes them as a batch manifest.
    pub fn setup(seed: u64, dir: &Path) -> Result<(PaperSearch, f64), String> {
        let (specs, setup_s) = timed_quartile(9, || {
            let specs = inputs::paper_specs(&mut inputs::rng_for(seed, 1));
            for s in &specs {
                std::hint::black_box(
                    Permutation::from_vec(s.table.clone())
                        .map_err(|e| e.to_string())?
                        .to_multi_pprm(),
                );
            }
            Ok(specs)
        })?;
        write_file(&dir.join("inputs.manifest"), &inputs::manifest_text(&specs))?;
        let opts = SynthesisOptions::new()
            .with_pruning(Pruning::TopK(4))
            .with_max_gates(PAPER_MAX_GATES)
            .with_max_nodes(PAPER_NODES)
            .with_max_queue(Some(PAPER_MAX_QUEUE))
            .with_threads(1);
        Ok((PaperSearch { specs, opts }, setup_s))
    }
}

impl Workload for PaperSearch {
    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn search_options(&self) -> &SynthesisOptions {
        &self.opts
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut r = Round::default();
        let start = Instant::now();
        let round_span = tracer.open("paper.round", None, index);
        for (i, spec) in self.specs.iter().enumerate() {
            r.attempted += 1;
            let t0 = Instant::now();
            let call = tracer.open("core.synthesize_permutation", round_span, i as u64);
            let anf = tracer.open("pprm.anf", call, i as u64);
            let pprm = Permutation::from_vec(spec.table.clone())
                .expect("generated specs are permutations")
                .to_multi_pprm();
            tracer.close(anf);
            let t1 = Instant::now();
            let result = synthesize(&pprm, &self.opts);
            let t2 = Instant::now();
            tracer.close(call);
            r.latencies_ms.push((t2 - t0).as_secs_f64() * 1e3);
            r.count("anf", 1.0);
            r.count("search_s", (t2 - t1).as_secs_f64());
            let stats = match result {
                Ok(s) => {
                    r.circuit(spec, &gate_strings(&s.circuit));
                    s.stats
                }
                Err(e) => {
                    r.fail(format!("{}: {e}", spec.name));
                    e.stats
                }
            };
            r.count("nodes", stats.nodes_expanded as f64);
            r.count("scored", stats.candidates_scored as f64);
            r.count("materialized", stats.candidates_materialized as f64);
        }
        tracer.close(round_span);
        r.wall_s = start.elapsed().as_secs_f64();
        r
    }
}

// ---------------------------------------------------------------- batch

/// Greedy first-solution budget: the random circuit specs solve well
/// inside it; the random 5-variable permutations exhaust it and descend
/// the fallback ladder.
const BATCH_NODES: u64 = 1_500;

pub struct BatchWide {
    specs: Vec<Spec>,
    admissions: Vec<Admission>,
    opts: BatchOptions,
}

impl BatchWide {
    /// Generates the manifest, writes it, and loads it back through the
    /// engine's manifest loader (the timed set-up).
    pub fn setup(seed: u64, dir: &Path) -> Result<(BatchWide, f64), String> {
        let specs = inputs::batch_specs(&mut inputs::rng_for(seed, 2));
        let manifest = dir.join("inputs.manifest");
        let text = inputs::manifest_text(&specs);
        let path = manifest.to_string_lossy().to_string();
        let (admissions, setup_s) = timed_quartile(21, || {
            write_file(&manifest, &text)?;
            load_manifest(&path)
        })?;
        if admissions.len() != specs.len() {
            return Err(format!(
                "manifest admitted {} jobs for {} specs",
                admissions.len(),
                specs.len()
            ));
        }
        let mut opts = BatchOptions {
            workers: nproc(),
            fallback: true,
            verify: true,
            ..BatchOptions::default()
        };
        opts.synthesis = SynthesisOptions::new()
            .with_pruning(Pruning::Greedy)
            .with_stop_at_first(true)
            .with_max_nodes(BATCH_NODES)
            .with_threads(1);
        Ok((
            BatchWide {
                specs,
                admissions,
                opts,
            },
            setup_s,
        ))
    }
}

impl Workload for BatchWide {
    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn search_options(&self) -> &SynthesisOptions {
        &self.opts.synthesis
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut r = Round::default();
        let start = Instant::now();
        let span = tracer.open("engine.run_batch", None, index);
        let run = run_batch(&self.admissions, &self.opts, &ShutdownHandles::new());
        tracer.close(span);
        r.wall_s = start.elapsed().as_secs_f64();
        for (spec, record) in self.specs.iter().zip(&run.records) {
            r.attempted += 1;
            r.count(by_width("canon", spec.width), 1.0);
            r.count(by_width("verify", spec.width), 1.0);
            if !record.cache_hit {
                r.count(by_width("miss", spec.width), 1.0);
                r.count("miss_s", record.seconds);
            }
            r.latencies_ms.push(record.seconds * 1e3);
            match &record.outcome {
                JobOutcome::Solved {
                    circuit, verified, ..
                } => {
                    if *verified != Some(true) {
                        r.fail(format!("{}: engine verification {verified:?}", spec.name));
                    }
                    r.circuit(spec, &gate_strings(circuit));
                }
                other => r.fail(format!("{}: {other:?}", spec.name)),
            }
        }
        if run.records.len() != self.specs.len() {
            r.fail(format!(
                "{} records for {} jobs",
                run.records.len(),
                self.specs.len()
            ));
        }
        let c = &run.counters;
        let jobs = c.jobs_total as f64;
        r.count("canon", jobs);
        r.count("cache_get", jobs);
        r.count("uncanon", jobs);
        r.count("cache_insert", c.cache_misses as f64);
        r.count("cache_hits", c.cache_hits as f64);
        r.count("cache_misses", c.cache_misses as f64);
        r.count("searches", c.cache_misses as f64);
        r.count("ladder.rmrls", c.solved_by_rmrls as f64);
        r.count("ladder.relaxed", c.solved_by_relaxed as f64);
        r.count("ladder.mmd", c.solved_by_mmd as f64);
        r.count("mmd", c.solved_by_mmd as f64);
        r.count(
            "busy_s",
            run.records.iter().map(|rec| rec.seconds).sum::<f64>(),
        );
        r
    }
}

// ---------------------------------------------------------------- serve

/// Distinct cold specs per round.
const SERVE_COLD: usize = 40;
/// Search budget per cold request (the fallback ladder guarantees a
/// circuit if the search gives up).
const SERVE_NODES: u64 = 2_000;

pub struct ServeMix {
    cold: Vec<Spec>,
    hit: Vec<Spec>,
    restart: Vec<Spec>,
    all: Vec<Spec>,
    dir: PathBuf,
    opts: SynthesisOptions,
    clients: usize,
}

impl ServeMix {
    /// Generates the three request lists and writes them as one request
    /// file. The set-up metric of this workload is the restart, timed
    /// inside every round.
    pub fn setup(seed: u64, dir: &Path) -> Result<ServeMix, String> {
        let mut rng: StdRng = inputs::rng_for(seed, 3);
        let cold = inputs::serve_cold_specs(SERVE_COLD, &mut rng);
        let hit = inputs::relabeled(&cold, "hit", &mut rng);
        let restart = inputs::relabeled(&cold, "restart", &mut rng);
        let all: Vec<Spec> = cold.iter().chain(&hit).chain(&restart).cloned().collect();
        let lines: Vec<String> = all.iter().map(inputs::request_body).collect();
        write_file(&dir.join("requests.jsonl"), &(lines.join("\n") + "\n"))?;
        let opts = SynthesisOptions::new()
            .with_pruning(Pruning::TopK(4))
            .with_max_nodes(SERVE_NODES)
            .with_threads(1);
        Ok(ServeMix {
            cold,
            hit,
            restart,
            all,
            dir: dir.to_path_buf(),
            opts,
            clients: nproc(),
        })
    }

    fn start(&self, store: &str, journal: &str) -> Result<ServeDaemon, String> {
        let mut batch = BatchOptions {
            workers: nproc(),
            fallback: true,
            verify: true,
            store: Some(SharedStore::open(store)?),
            store_provenance: "serve".to_string(),
            ..BatchOptions::default()
        };
        batch.synthesis = self.opts.clone();
        let opts = ServeOptions {
            workers: nproc(),
            queue_capacity: 4 * self.clients.max(1),
            journal_path: Some(journal.to_string()),
            batch,
            ..ServeOptions::default()
        };
        ServeDaemon::start(opts, ShutdownHandles::new())
    }

    fn phase(
        &self,
        r: &mut Round,
        name: &'static str,
        addr: SocketAddr,
        specs: &[Spec],
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) {
        let bodies: Vec<String> = specs.iter().map(inputs::request_body).collect();
        let span = tracer.open(name, parent, 0);
        let result: PhaseResult = loadgen::run_phase(addr, &bodies, self.clients);
        for (i, reply) in result.replies.iter().enumerate() {
            let end = reply.sent + std::time::Duration::from_secs_f64(reply.latency_ms / 1e3);
            tracer.record("serve.request", reply.sent, end, span, i as u64);
        }
        tracer.close(span);
        r.phase_wall_s.insert(name, result.wall_s);
        r.phase_failed.insert(name, result.failed());
        let mut hits = 0.0;
        for (spec, reply) in specs.iter().zip(&result.replies) {
            r.attempted += 1;
            r.count(by_width("canon", spec.width), 1.0);
            r.count(by_width("verify", spec.width), 1.0);
            r.latencies_ms.push(reply.latency_ms);
            r.phases.entry(name).or_default().push(reply.latency_ms);
            let body = match &reply.body {
                Ok(b) => b,
                Err(e) => {
                    r.fail(format!("{}: {e}", spec.name));
                    continue;
                }
            };
            let parsed = Json::parse(body).ok();
            let gates = parsed.as_ref().and_then(|j| {
                if j.get("cache_hit").and_then(Json::as_bool) == Some(true) {
                    hits += 1.0;
                }
                if name == "cold" {
                    match j.get("record")?.get("solved_by")?.as_str()? {
                        "rmrls" => r.count("ladder.rmrls", 1.0),
                        "rmrls-relaxed" => r.count("ladder.relaxed", 1.0),
                        _ => {
                            r.count("ladder.mmd", 1.0);
                            r.count("mmd", 1.0);
                        }
                    }
                }
                j.get("record")?
                    .get("circuit")?
                    .as_arr()?
                    .iter()
                    .map(|g| g.as_str().map(str::to_string))
                    .collect::<Option<Vec<String>>>()
            });
            match gates {
                Some(g) => r.circuit(spec, &g),
                None => r.fail(format!("{}: reply has no circuit: {body}", spec.name)),
            }
        }
        let n = specs.len() as f64;
        r.count("http", n);
        r.count("journal_append", 2.0 * n);
        r.count("canon", n);
        r.count("cache_get", n);
        r.count("cache_hits", hits);
        match name {
            "cold" => {
                r.count("searches", n);
                r.count("cache_insert", n);
                r.count("store_append", n);
                r.count("cache_misses", n);
            }
            "hit" => r.count("uncanon", n),
            _ => {
                r.count("store_get", n);
                r.count("cache_insert", n);
                r.count("uncanon", n);
            }
        }
    }
}

impl Workload for ServeMix {
    fn specs(&self) -> &[Spec] {
        &self.all
    }

    fn search_options(&self) -> &SynthesisOptions {
        &self.opts
    }

    /// The round's wall time is its three phases plus the restart;
    /// starting the first daemon and draining both are not timed (a
    /// drain waits out the daemon's sampler and worker poll intervals).
    fn round(&mut self, index: u64, tracer: &mut Tracer) -> Round {
        let mut r = Round::default();
        let dir = self.dir.join(format!("serve-round{index}"));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            r.fail(format!("cannot create {}: {e}", dir.display()));
            return r;
        }
        let store = dir.join("circuits.store").to_string_lossy().to_string();
        let journal = dir.join("requests.journal").to_string_lossy().to_string();
        let round_span = tracer.open("serve.round", None, index);
        let daemon = match self.start(&store, &journal) {
            Ok(d) => d,
            Err(e) => {
                r.fail(format!("daemon start: {e}"));
                return r;
            }
        };
        let addr = daemon.local_addr();
        self.phase(&mut r, "cold", addr, &self.cold, tracer, round_span);
        self.phase(&mut r, "hit", addr, &self.hit, tracer, round_span);
        let span = tracer.open("serve.drain", round_span, index);
        daemon.drain();
        daemon.wait();
        tracer.close(span);

        // Restart on the same store and journal: open (re-verifying
        // every store entry), replay the journal, bind, and answer.
        let span = tracer.open("serve.restart", round_span, index);
        let t = Instant::now();
        let daemon = match self.start(&store, &journal) {
            Ok(d) => d,
            Err(e) => {
                r.fail(format!("daemon restart: {e}"));
                return r;
            }
        };
        let addr = daemon.local_addr();
        if let Err(e) = std::net::TcpStream::connect(addr) {
            r.fail(format!("restarted daemon does not accept: {e}"));
        }
        r.setup_s = Some(t.elapsed().as_secs_f64());
        tracer.close(span);
        self.phase(&mut r, "store_hit", addr, &self.restart, tracer, round_span);
        daemon.drain();
        daemon.wait();
        tracer.close(round_span);
        r.wall_s = r.phase_wall_s.values().sum::<f64>() + r.setup_s.unwrap_or(0.0);
        r
    }
}
