//! Implementation of the `rmrls` command-line tool.
//!
//! Subcommands:
//!
//! - `rmrls synth` — synthesize a specification (inline permutation,
//!   named benchmark, or TFC file) with RMRLS;
//! - `rmrls batch` — run a manifest or bundled suite of specifications
//!   on the concurrent batch engine;
//! - `rmrls serve` — run the long-lived synthesis daemon (`POST
//!   /synthesize`, request status, live telemetry, crash-safe journal);
//! - `rmrls mmd` — synthesize with the MMD transformation baseline;
//! - `rmrls info` — inspect a TFC circuit (gates, cost, diagram);
//! - `rmrls trace` — summarize a flight-recorder dump (top phases,
//!   record-kind counts, anomaly context);
//! - `rmrls benchmarks` — list the built-in benchmark suite.
//!
//! The library layer exists so argument parsing and command execution
//! are unit-testable; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::time::Duration;

use rmrls_baselines::{mmd_synthesize, MmdVariant};
use rmrls_circuit::{analyze, real, render, simplify, simplify_with_stats, tfc, Circuit};
use rmrls_core::{
    run_report, synthesize_bidirectional, synthesize_embedded, synthesize_with_observer,
    FlightRecorder, FredkinMode, Observer, Progress, Pruning, SynthesisOptions,
};
use rmrls_obs::{
    chrome_trace_json, prometheus_text, EventSink, JsonLinesSink, RecorderSnapshot, TraceKind,
    TraceRecord,
};
use rmrls_pprm::MultiPprm;
use rmrls_spec::{benchmarks, Permutation};

/// A usage or input error, printed to stderr with exit code 2.
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text for `--help`.
pub const USAGE: &str = "\
rmrls — Reed-Muller reversible logic synthesizer

USAGE:
  rmrls synth    [OPTIONS] (--spec \"1,0,7,2,...\" | --benchmark NAME |
                            --tfc FILE | --spec-file FILE)
  rmrls batch    [OPTIONS] (--manifest FILE | --suite table4|examples|
                            extended|all)
  rmrls serve    [OPTIONS] [--addr HOST:PORT]   long-lived synthesis
                 daemon: POST /synthesize, GET /requests/<id>[/events],
                 /metrics, /healthz, /jobs
  rmrls mmd      (--spec \"...\" | --benchmark NAME | --tfc FILE) [--uni]
  rmrls info     --tfc FILE
  rmrls analyze  --tfc FILE
  rmrls simplify --tfc FILE [--tfc-out FILE]
  rmrls embed    --table FILE --outputs N   (irreversible truth table:
                 2^k output words, whitespace-separated; embeds with the
                 don't-care portfolio, then synthesizes)
  rmrls trace    --dump FILE [--chrome-out FILE]   summarize a
                 flight-recorder dump (phases, anomalies, record counts)
  rmrls store    (stats | fsck | compact) --store FILE   inspect or
                 repair a persistent circuit store
  rmrls benchmarks

SYNTH OPTIONS:
  --pruning greedy|exhaustive|topN   substitution pruning (default exhaustive)
  --time-limit SECONDS               wall-clock budget
  --max-gates N                      circuit size cap
  --bidi                             synthesize f and f^-1, keep the smaller
  --fredkin swap|full                enable Fredkin substitutions (SVI ext.)
  --simplify                         post-process with templates
  --render                           print an ASCII diagram
  --tfc-out FILE                     write the circuit as TFC
  --real-out FILE                    write the circuit as RevLib .real
  --report FILE                      write a machine-readable JSON run report
  --progress                         print periodic search progress to stderr
  --log-json FILE                    stream search events as JSON lines
                                     (FILE '-' streams to stderr)
  --trace FILE                       write the flight-recorder dump as
                                     JSON (read it with 'rmrls trace')
  --trace-out FILE                   write a Chrome trace-event JSON file
                                     (load in chrome://tracing)
  --metrics-out FILE                 write metrics as Prometheus text
                                     exposition
  --metrics-addr HOST:PORT           serve live telemetry over HTTP while
                                     the search runs: GET /metrics
                                     (Prometheus text), /healthz, /jobs.
                                     Port 0 picks a free port; the bound
                                     address is announced on stderr

BATCH OPTIONS:
  --jobs N            worker threads (default: available parallelism)
  --deadline-ms M     per-job wall-clock deadline in milliseconds
  --cache-size K      canonical-form result cache capacity (default 1024)
  --no-cache          disable the result cache
  --canon-limit N     widest spec canonicalized for caching (default 8)
  --no-verify         skip per-circuit equivalence verification
  --fallback          never-fail mode: retry failed searches with relaxed
                      pruning, then the MMD baseline (tier recorded per
                      job as solved_by)
  --results FILE      write per-job results as a crash-safe journal
                      (header line + one JSON record per job, fsync'd as
                      jobs finish; readable as JSON lines)
  --resume FILE       resume from a results journal: completed jobs are
                      recovered, only the remainder re-runs (requires
                      the same job list and options; a torn final
                      record is tolerated)
  --report FILE       write the aggregate JSON run report
  --trace DIR         write per-job flight-recorder dumps into DIR as
                      <index>-<job>.trace.json; jobs with anomalies
                      (shed, escalation, deadline, panic) also write
                      <index>-<job>.anomaly.json
  --store FILE        persistent circuit store: canonical results are
                      loaded (verified) at start and fresh syntheses are
                      appended, so reruns serve repeated specs from disk
                      instead of searching. Crash-safe and
                      corruption-detecting; see 'rmrls store'
  --strict            exit nonzero on any error, panic, or verify failure
  --metrics-addr HOST:PORT
                      serve live telemetry over HTTP during the run:
                      GET /metrics (Prometheus counters, latency
                      histograms, sampled gauges), /healthz (liveness +
                      degraded flag), /jobs (per-job status board).
                      Port 0 picks a free port; the bound address is
                      announced on stderr. Telemetry is observation-only:
                      results are byte-identical with or without it

SERVE OPTIONS:
  --addr HOST:PORT    listen address (default 127.0.0.1:0; port 0 picks
                      a free port, announced on stderr)
  --jobs N            worker threads executing requests (default:
                      available parallelism)
  --queue N           admission-queue depth; beyond it new requests are
                      shed with 429 + Retry-After (default 16)
  --deadline-ms M     default per-request deadline for requests that do
                      not carry their own deadline_ms
  --cache-size K      shared canonical result cache, warm across
                      requests (default 1024); --no-cache disables it
  --canon-limit N     widest spec canonicalized for caching (default 8)
  --no-verify         skip per-circuit equivalence verification
  --fallback          never-fail mode: relaxed pruning then the MMD
                      baseline for requests RMRLS cannot solve
  --max-body-bytes N  largest accepted request body (default 262144)
  --journal FILE      append-only request journal: on restart completed
                      requests are restored read-only and interrupted
                      ones re-run (crash recovery)
  --store FILE        persistent circuit store shared by all workers:
                      the warm cache survives restarts, and every fresh
                      synthesis is appended (store gauges on /metrics)

STORE SUBCOMMANDS (rmrls store <sub> --store FILE):
  stats               print the store's index and health counters as JSON
  fsck                read-only integrity check: scans every record,
                      re-verifies every circuit, reports quarantined /
                      torn / unverifiable bytes without modifying the
                      file; exits nonzero if damage is found
  compact             atomically rewrite the file keeping only the live
                      best-known records (drops quarantined regions and
                      superseded entries)
";

/// Where the input specification comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecSource {
    /// Inline permutation, e.g. `1,0,7,2,3,4,5,6`.
    Inline(String),
    /// Named benchmark from the built-in suite.
    Benchmark(String),
    /// TFC circuit file whose permutation is re-synthesized.
    Tfc(String),
    /// `.perm` specification file.
    PermFile(String),
}

impl SpecSource {
    /// Resolves the source into a multi-output PPRM plus a display name.
    ///
    /// # Errors
    ///
    /// Fails on malformed inline specs, unknown benchmarks, or unreadable
    /// TFC files.
    pub fn resolve(&self) -> Result<(MultiPprm, String), CliError> {
        match self {
            SpecSource::Inline(text) => {
                let values: Result<Vec<u64>, _> =
                    text.split(',').map(|s| s.trim().parse::<u64>()).collect();
                let values = values.map_err(|e| err(format!("bad --spec: {e}")))?;
                let perm =
                    Permutation::from_vec(values).map_err(|e| err(format!("bad --spec: {e}")))?;
                Ok((perm.to_multi_pprm(), format!("{perm}")))
            }
            SpecSource::Benchmark(name) => {
                let b = benchmarks::find(name)
                    .ok_or_else(|| err(format!("unknown benchmark '{name}'")))?;
                Ok((b.to_multi_pprm(), b.to_string()))
            }
            SpecSource::PermFile(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read {path}: {e}")))?;
                let perm = rmrls_spec::formats::parse_permutation(&text)
                    .map_err(|e| err(format!("cannot parse {path}: {e}")))?;
                Ok((perm.to_multi_pprm(), format!("permutation from {path}")))
            }
            SpecSource::Tfc(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read {path}: {e}")))?;
                let circuit =
                    tfc::parse(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))?;
                if circuit.width() > 16 {
                    return Err(err("TFC re-synthesis is limited to 16 wires"));
                }
                let perm = Permutation::from_circuit(&circuit);
                Ok((perm.to_multi_pprm(), format!("circuit from {path}")))
            }
        }
    }
}

/// Where a batch run's job list comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchSource {
    /// Manifest file, one job per line.
    Manifest(String),
    /// Bundled suite: `table4`, `examples`, `extended`, or `all`.
    Suite(String),
}

/// What `rmrls store` does to a store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Print index and health counters.
    Stats,
    /// Read-only integrity check (exits nonzero on damage).
    Fsck,
    /// Atomic rewrite keeping only live records.
    Compact,
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `rmrls synth`.
    Synth {
        /// Input specification.
        source: SpecSource,
        /// Pruning strategy.
        pruning: Pruning,
        /// Wall-clock budget.
        time_limit: Option<Duration>,
        /// Gate cap.
        max_gates: Option<usize>,
        /// Synthesize both directions, keep the smaller circuit.
        bidirectional: bool,
        /// Fredkin substitution mode.
        fredkin: FredkinMode,
        /// Run template simplification afterwards.
        simplify: bool,
        /// Print an ASCII diagram.
        render: bool,
        /// Write the result to this TFC file.
        tfc_out: Option<String>,
        /// Write the result to this RevLib .real file.
        real_out: Option<String>,
        /// Write a machine-readable JSON run report to this file.
        report: Option<String>,
        /// Print periodic progress snapshots to stderr.
        progress: bool,
        /// Stream search events as JSON lines to this file (`-` =
        /// stderr).
        log_json: Option<String>,
        /// Write the flight-recorder dump (JSON) to this file.
        trace: Option<String>,
        /// Write a Chrome trace-event JSON export to this file.
        trace_out: Option<String>,
        /// Write a Prometheus text exposition of metrics to this file.
        metrics_out: Option<String>,
        /// Serve live telemetry over HTTP at this address while the
        /// search runs.
        metrics_addr: Option<String>,
    },
    /// `rmrls batch`.
    Batch {
        /// Job list: a manifest file or a bundled suite.
        source: BatchSource,
        /// Worker threads (`None` = available parallelism).
        jobs: Option<usize>,
        /// Per-job wall-clock deadline.
        deadline: Option<Duration>,
        /// Result-cache capacity (`None` disables the cache).
        cache_size: Option<usize>,
        /// Widest spec canonicalized for caching.
        canon_limit: usize,
        /// Verify each circuit against its specification.
        verify: bool,
        /// Run the fallback ladder so every well-formed job solves.
        fallback: bool,
        /// Write per-job records to this file as a crash-safe journal.
        results: Option<String>,
        /// Resume from this results journal, skipping completed jobs.
        resume: Option<String>,
        /// Write the aggregate JSON run report to this file.
        report: Option<String>,
        /// Write per-job flight-recorder dumps into this directory.
        trace_dir: Option<String>,
        /// Exit nonzero on any error, panic, or verification failure.
        strict: bool,
        /// Serve live telemetry over HTTP at this address during the
        /// run.
        metrics_addr: Option<String>,
        /// Persistent circuit store opened (or created) for the run.
        store: Option<String>,
    },
    /// `rmrls serve`.
    Serve {
        /// Listen address (`host:0` binds a free port, announced on
        /// stderr).
        addr: String,
        /// Worker threads executing requests (`None` = available
        /// parallelism).
        jobs: Option<usize>,
        /// Admission-queue depth; beyond it requests are shed with 429.
        queue: usize,
        /// Default deadline for requests without their own
        /// `deadline_ms`.
        deadline: Option<Duration>,
        /// Result-cache capacity (`None` disables the cache).
        cache_size: Option<usize>,
        /// Widest spec canonicalized for caching.
        canon_limit: usize,
        /// Verify each circuit against its specification.
        verify: bool,
        /// Run the fallback ladder so every well-formed request solves.
        fallback: bool,
        /// Largest accepted request body in bytes.
        max_body_bytes: usize,
        /// Request-journal path enabling crash recovery.
        journal: Option<String>,
        /// Persistent circuit store keeping the warm cache across
        /// restarts.
        store: Option<String>,
    },
    /// `rmrls mmd`.
    Mmd {
        /// Input specification.
        source: SpecSource,
        /// Unidirectional instead of bidirectional.
        unidirectional: bool,
    },
    /// `rmrls info`.
    Info {
        /// TFC file to inspect.
        tfc_path: String,
    },
    /// `rmrls analyze`.
    Analyze {
        /// TFC file to analyze.
        tfc_path: String,
    },
    /// `rmrls simplify`.
    Simplify {
        /// TFC file to simplify.
        tfc_path: String,
        /// Output file (stdout when absent).
        tfc_out: Option<String>,
    },
    /// `rmrls embed`.
    Embed {
        /// Truth-table file (whitespace-separated output words).
        table_path: String,
        /// Number of output bits.
        outputs: usize,
        /// Wall-clock budget.
        time_limit: Option<Duration>,
    },
    /// `rmrls trace`.
    Trace {
        /// Flight-recorder dump file to summarize.
        dump: String,
        /// Also write a Chrome trace-event export to this file.
        chrome_out: Option<String>,
    },
    /// `rmrls store`.
    Store {
        /// Subcommand: what to do with the store file.
        action: StoreAction,
        /// Store file path.
        store: String,
    },
    /// `rmrls benchmarks`.
    Benchmarks,
    /// `rmrls --help` / no arguments.
    Help,
}

fn parse_source(
    spec: Option<String>,
    benchmark: Option<String>,
    tfc_path: Option<String>,
    spec_file: Option<String>,
) -> Result<SpecSource, CliError> {
    match (spec, benchmark, tfc_path, spec_file) {
        (Some(s), None, None, None) => Ok(SpecSource::Inline(s)),
        (None, Some(b), None, None) => Ok(SpecSource::Benchmark(b)),
        (None, None, Some(t), None) => Ok(SpecSource::Tfc(t)),
        (None, None, None, Some(p)) => Ok(SpecSource::PermFile(p)),
        _ => Err(err(
            "provide exactly one of --spec, --benchmark, --tfc, --spec-file",
        )),
    }
}

/// Every flag, with the subcommands that read it. A flag given to any
/// other subcommand is rejected instead of silently ignored.
const FLAG_READERS: &[(&str, &[&str])] = &[
    ("--spec", &["synth", "mmd"]),
    ("--benchmark", &["synth", "mmd"]),
    ("--tfc", &["synth", "mmd", "info", "analyze", "simplify"]),
    ("--spec-file", &["synth", "mmd"]),
    ("--pruning", &["synth"]),
    ("--time-limit", &["synth", "embed"]),
    ("--max-gates", &["synth"]),
    ("--simplify", &["synth"]),
    ("--render", &["synth"]),
    ("--tfc-out", &["synth", "simplify"]),
    ("--real-out", &["synth"]),
    ("--uni", &["mmd"]),
    ("--bidi", &["synth"]),
    ("--fredkin", &["synth"]),
    ("--table", &["embed"]),
    ("--outputs", &["embed"]),
    ("--report", &["synth", "batch"]),
    ("--progress", &["synth"]),
    ("--log-json", &["synth"]),
    ("--trace", &["synth", "batch"]),
    ("--trace-out", &["synth"]),
    ("--metrics-out", &["synth"]),
    ("--metrics-addr", &["synth", "batch"]),
    ("--manifest", &["batch"]),
    ("--suite", &["batch"]),
    ("--jobs", &["batch", "serve"]),
    ("--deadline-ms", &["batch", "serve"]),
    ("--cache-size", &["batch", "serve"]),
    ("--no-cache", &["batch", "serve"]),
    ("--canon-limit", &["batch", "serve"]),
    ("--no-verify", &["batch", "serve"]),
    ("--fallback", &["batch", "serve"]),
    ("--results", &["batch"]),
    ("--resume", &["batch"]),
    ("--strict", &["batch"]),
    ("--addr", &["serve"]),
    ("--queue", &["serve"]),
    ("--max-body-bytes", &["serve"]),
    ("--journal", &["serve"]),
    ("--store", &["batch", "serve", "store"]),
    ("--dump", &["trace"]),
    ("--chrome-out", &["trace"]),
];

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or conflicting
/// sources.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut args = args.into_iter().peekable();
    let Some(cmd) = args.next() else {
        return Ok(Command::Help);
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        return Ok(Command::Help);
    }
    // `rmrls store` takes its subcommand as the next positional word.
    let store_action = if cmd == "store" {
        Some(match args.next().as_deref() {
            Some("stats") => StoreAction::Stats,
            Some("fsck") => StoreAction::Fsck,
            Some("compact") => StoreAction::Compact,
            Some(other) => {
                return Err(err(format!(
                    "unknown store subcommand '{other}' (stats, fsck, compact)"
                )))
            }
            None => return Err(err("store needs a subcommand: stats, fsck, or compact")),
        })
    } else {
        None
    };

    let mut spec = None;
    let mut benchmark = None;
    let mut tfc_path = None;
    let mut pruning = Pruning::Exhaustive;
    let mut time_limit = None;
    let mut max_gates = None;
    let mut do_simplify = false;
    let mut do_render = false;
    let mut tfc_out = None;
    let mut real_out = None;
    let mut unidirectional = false;
    let mut bidirectional = false;
    let mut fredkin = FredkinMode::Off;
    let mut table_path = None;
    let mut outputs = None;
    let mut spec_file = None;
    let mut report = None;
    let mut progress = false;
    let mut log_json = None;
    let mut manifest = None;
    let mut suite = None;
    let mut jobs = None;
    let mut deadline_ms = None;
    let mut cache_size = None;
    let mut no_cache = false;
    let mut canon_limit = None;
    let mut no_verify = false;
    let mut fallback = false;
    let mut results = None;
    let mut resume = None;
    let mut strict = false;
    let mut trace = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut metrics_addr = None;
    let mut dump = None;
    let mut chrome_out = None;
    let mut addr = None;
    let mut queue = None;
    let mut max_body_bytes = None;
    let mut journal = None;
    let mut store = None;

    let take_value =
        |args: &mut std::iter::Peekable<I::IntoIter>, flag: &str| -> Result<String, CliError> {
            args.next()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };

    while let Some(arg) = args.next() {
        let Some((_, readers)) = FLAG_READERS.iter().find(|(flag, _)| *flag == arg) else {
            return Err(err(format!("unknown argument '{arg}'")));
        };
        if !readers.contains(&cmd.as_str()) {
            return Err(err(format!("'{arg}' does not apply to '{cmd}'")));
        }
        match arg.as_str() {
            "--spec" => spec = Some(take_value(&mut args, "--spec")?),
            "--benchmark" => benchmark = Some(take_value(&mut args, "--benchmark")?),
            "--tfc" => tfc_path = Some(take_value(&mut args, "--tfc")?),
            "--pruning" => {
                let v = take_value(&mut args, "--pruning")?;
                pruning = match v.as_str() {
                    "greedy" => Pruning::Greedy,
                    "exhaustive" => Pruning::Exhaustive,
                    other => match other.strip_prefix("top") {
                        Some(k) => Pruning::TopK(
                            k.parse()
                                .map_err(|_| err(format!("bad --pruning value '{other}'")))?,
                        ),
                        None => return Err(err(format!("bad --pruning value '{other}'"))),
                    },
                };
            }
            "--time-limit" => {
                let v = take_value(&mut args, "--time-limit")?;
                let secs: f64 = v.parse().map_err(|_| err("bad --time-limit"))?;
                time_limit = Some(Duration::from_secs_f64(secs));
            }
            "--max-gates" => {
                let v = take_value(&mut args, "--max-gates")?;
                max_gates = Some(v.parse().map_err(|_| err("bad --max-gates"))?);
            }
            "--simplify" => do_simplify = true,
            "--render" => do_render = true,
            "--tfc-out" => tfc_out = Some(take_value(&mut args, "--tfc-out")?),
            "--real-out" => real_out = Some(take_value(&mut args, "--real-out")?),
            "--uni" => unidirectional = true,
            "--bidi" => bidirectional = true,
            "--table" => table_path = Some(take_value(&mut args, "--table")?),
            "--spec-file" => spec_file = Some(take_value(&mut args, "--spec-file")?),
            "--outputs" => {
                let v = take_value(&mut args, "--outputs")?;
                outputs = Some(v.parse().map_err(|_| err("bad --outputs"))?);
            }
            "--report" => report = Some(take_value(&mut args, "--report")?),
            "--progress" => progress = true,
            "--log-json" => log_json = Some(take_value(&mut args, "--log-json")?),
            "--manifest" => manifest = Some(take_value(&mut args, "--manifest")?),
            "--suite" => suite = Some(take_value(&mut args, "--suite")?),
            "--jobs" => {
                let v = take_value(&mut args, "--jobs")?;
                let n: usize = v.parse().map_err(|_| err("bad --jobs"))?;
                if n == 0 {
                    return Err(err("--jobs must be at least 1"));
                }
                jobs = Some(n);
            }
            "--deadline-ms" => {
                let v = take_value(&mut args, "--deadline-ms")?;
                let ms: u64 = v.parse().map_err(|_| err("bad --deadline-ms"))?;
                deadline_ms = Some(Duration::from_millis(ms));
            }
            "--cache-size" => {
                let v = take_value(&mut args, "--cache-size")?;
                cache_size = Some(v.parse().map_err(|_| err("bad --cache-size"))?);
            }
            "--no-cache" => no_cache = true,
            "--canon-limit" => {
                let v = take_value(&mut args, "--canon-limit")?;
                canon_limit = Some(v.parse().map_err(|_| err("bad --canon-limit"))?);
            }
            "--no-verify" => no_verify = true,
            "--fallback" => fallback = true,
            "--results" => results = Some(take_value(&mut args, "--results")?),
            "--resume" => resume = Some(take_value(&mut args, "--resume")?),
            "--strict" => strict = true,
            "--trace" => trace = Some(take_value(&mut args, "--trace")?),
            "--trace-out" => trace_out = Some(take_value(&mut args, "--trace-out")?),
            "--metrics-out" => metrics_out = Some(take_value(&mut args, "--metrics-out")?),
            "--metrics-addr" => metrics_addr = Some(take_value(&mut args, "--metrics-addr")?),
            "--addr" => addr = Some(take_value(&mut args, "--addr")?),
            "--queue" => {
                let v = take_value(&mut args, "--queue")?;
                let n: usize = v.parse().map_err(|_| err("bad --queue"))?;
                if n == 0 {
                    return Err(err("--queue must be at least 1"));
                }
                queue = Some(n);
            }
            "--max-body-bytes" => {
                let v = take_value(&mut args, "--max-body-bytes")?;
                max_body_bytes = Some(v.parse().map_err(|_| err("bad --max-body-bytes"))?);
            }
            "--journal" => journal = Some(take_value(&mut args, "--journal")?),
            "--store" => store = Some(take_value(&mut args, "--store")?),
            "--dump" => dump = Some(take_value(&mut args, "--dump")?),
            "--chrome-out" => chrome_out = Some(take_value(&mut args, "--chrome-out")?),
            "--fredkin" => {
                fredkin = match take_value(&mut args, "--fredkin")?.as_str() {
                    "swap" => FredkinMode::SwapOnly,
                    "full" => FredkinMode::Full,
                    other => return Err(err(format!("bad --fredkin value '{other}'"))),
                };
            }
            _ => unreachable!("every flag in FLAG_READERS is handled above"),
        }
    }

    match cmd.as_str() {
        "synth" => {
            if progress && log_json.as_deref() == Some("-") {
                return Err(err(
                    "--progress and '--log-json -' both write to stderr; pick one",
                ));
            }
            if bidirectional && (progress || log_json.is_some()) {
                return Err(err(
                    "--progress/--log-json instrument a single search; drop --bidi \
                     (--report works with --bidi)",
                ));
            }
            if bidirectional && (trace.is_some() || trace_out.is_some()) {
                return Err(err(
                    "--trace/--trace-out record a single search; drop --bidi",
                ));
            }
            Ok(Command::Synth {
                source: parse_source(spec, benchmark, tfc_path, spec_file)?,
                pruning,
                time_limit,
                max_gates,
                bidirectional,
                fredkin,
                simplify: do_simplify,
                render: do_render,
                tfc_out,
                real_out,
                report,
                progress,
                log_json,
                trace,
                trace_out,
                metrics_out,
                metrics_addr,
            })
        }
        "batch" => {
            if no_cache && cache_size.is_some() {
                return Err(err("--no-cache conflicts with --cache-size"));
            }
            let source = match (manifest, suite) {
                (Some(m), None) => BatchSource::Manifest(m),
                (None, Some(s)) => BatchSource::Suite(s),
                _ => return Err(err("batch needs exactly one of --manifest, --suite")),
            };
            Ok(Command::Batch {
                source,
                jobs,
                deadline: deadline_ms,
                cache_size: if no_cache {
                    None
                } else {
                    Some(cache_size.unwrap_or(1024))
                },
                canon_limit: canon_limit.unwrap_or(8),
                verify: !no_verify,
                fallback,
                results,
                resume,
                report,
                trace_dir: trace,
                strict,
                metrics_addr,
                store,
            })
        }
        "serve" => {
            if no_cache && cache_size.is_some() {
                return Err(err("--no-cache conflicts with --cache-size"));
            }
            Ok(Command::Serve {
                addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
                jobs,
                queue: queue.unwrap_or(16),
                deadline: deadline_ms,
                cache_size: if no_cache {
                    None
                } else {
                    Some(cache_size.unwrap_or(1024))
                },
                canon_limit: canon_limit.unwrap_or(8),
                verify: !no_verify,
                fallback,
                max_body_bytes: max_body_bytes.unwrap_or(256 * 1024),
                journal,
                store,
            })
        }
        "store" => Ok(Command::Store {
            action: store_action.expect("store action parsed above"),
            store: store.ok_or_else(|| err("store needs --store FILE"))?,
        }),
        "trace" => Ok(Command::Trace {
            dump: dump.ok_or_else(|| err("trace needs --dump FILE"))?,
            chrome_out,
        }),
        "mmd" => Ok(Command::Mmd {
            source: parse_source(spec, benchmark, tfc_path, spec_file)?,
            unidirectional,
        }),
        "info" => Ok(Command::Info {
            tfc_path: tfc_path.ok_or_else(|| err("info needs --tfc FILE"))?,
        }),
        "analyze" => Ok(Command::Analyze {
            tfc_path: tfc_path.ok_or_else(|| err("analyze needs --tfc FILE"))?,
        }),
        "simplify" => Ok(Command::Simplify {
            tfc_path: tfc_path.ok_or_else(|| err("simplify needs --tfc FILE"))?,
            tfc_out,
        }),
        "embed" => Ok(Command::Embed {
            table_path: table_path.ok_or_else(|| err("embed needs --table FILE"))?,
            outputs: outputs.ok_or_else(|| err("embed needs --outputs N"))?,
            time_limit,
        }),
        "benchmarks" => Ok(Command::Benchmarks),
        other => Err(err(format!("unknown command '{other}'"))),
    }
}

fn report(circuit: &Circuit, name: &str, out: &mut impl fmt::Write) -> fmt::Result {
    writeln!(out, "specification: {name}")?;
    writeln!(out, "circuit: {circuit}")?;
    writeln!(
        out,
        "gates: {}   quantum cost: {}   width: {}",
        circuit.gate_count(),
        circuit.quantum_cost(),
        circuit.width()
    )
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on input errors or failed synthesis.
pub fn run(command: Command, out: &mut impl fmt::Write) -> Result<(), CliError> {
    // Fault injection (no-op unless built with `--features failpoints`
    // *and* RMRLS_FAILPOINTS is set) — armed before any work starts so
    // the CI fault matrix covers the whole run.
    rmrls_obs::fail::configure_from_env().map_err(err)?;
    match command {
        Command::Help => {
            out.write_str(USAGE).map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        Command::Benchmarks => {
            for b in benchmarks::table4_suite()
                .iter()
                .chain(&benchmarks::example_suite())
            {
                writeln!(out, "{b}").map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        Command::Synth {
            source,
            pruning,
            time_limit,
            max_gates,
            bidirectional,
            fredkin,
            simplify: do_simplify,
            render: do_render,
            tfc_out,
            real_out,
            report: report_path,
            progress,
            log_json,
            trace,
            trace_out,
            metrics_out,
            metrics_addr,
        } => {
            let (pprm, name) = source.resolve()?;
            let mut opts = SynthesisOptions::new()
                .with_pruning(pruning)
                .with_fredkin_substitutions(fredkin);
            if let Some(t) = time_limit {
                opts = opts.with_time_limit(t);
            }
            if let Some(g) = max_gates {
                opts = opts.with_max_gates(g);
            }
            // One recorder serves both the raw dump and the Chrome
            // export; absent both flags the search pays nothing.
            let recorder =
                (trace.is_some() || trace_out.is_some()).then(FlightRecorder::with_default_budget);

            let mut obs = match &log_json {
                Some(path) if path == "-" => {
                    Observer::with_sink(Box::new(JsonLinesSink::new(std::io::stderr())))
                }
                Some(path) => {
                    let file = std::fs::File::create(path)
                        .map_err(|e| err(format!("cannot create {path}: {e}")))?;
                    let sink: Box<dyn EventSink> =
                        Box::new(JsonLinesSink::new(std::io::BufWriter::new(file)));
                    Observer::with_sink(sink)
                }
                None => Observer::null(),
            };
            if report_path.is_some() || metrics_out.is_some() {
                obs = obs.with_metrics();
            }
            if let Some(r) = &recorder {
                obs = obs.with_recorder(r.clone());
            }
            // Live telemetry: a one-job status board plus latency
            // histograms, served over HTTP while the search runs.
            // Observation-only — the progress hook writes slot atomics
            // and a histogram, so the synthesized circuit is
            // byte-identical with or without --metrics-addr.
            let telemetry = metrics_addr.as_ref().map(|_| {
                std::sync::Arc::new(rmrls_engine::BatchTelemetry::new(vec![name.clone()]))
            });
            let _server = match (&metrics_addr, &telemetry) {
                (Some(addr), Some(t)) => Some(bind_telemetry_server(addr, t)?),
                _ => None,
            };
            if progress || telemetry.is_some() {
                // The engine's own progress hook, plus a gauge beat:
                // there is no batch sampler thread here.
                let mut board = telemetry
                    .as_ref()
                    .map(|t| (std::sync::Arc::clone(t), t.progress_hook(0)));
                obs = obs.with_progress(Box::new(move |p: &Progress| {
                    if let Some((t, hook)) = &mut board {
                        hook(p);
                        t.sample(None);
                    }
                    if progress {
                        eprintln!(
                            "progress: {} nodes, queue {}, best {}, {} restarts, {:.1}s",
                            p.nodes_expanded,
                            p.queue_depth,
                            p.best_gates
                                .map(|g| g.to_string())
                                .unwrap_or_else(|| "-".into()),
                            p.restarts,
                            p.elapsed.as_secs_f64()
                        );
                    }
                }));
            }

            let write_report = |stats: &rmrls_core::SearchStats,
                                circuit: Option<&Circuit>,
                                obs: &Observer,
                                out: &mut dyn fmt::Write|
             -> Result<(), CliError> {
                let Some(path) = &report_path else {
                    return Ok(());
                };
                let metrics = obs.metrics_snapshot();
                let json = run_report(
                    &opts,
                    stats,
                    circuit,
                    metrics.as_ref(),
                    obs.dropped_events(),
                );
                rmrls_engine::write_atomic(path, &format!("{json}\n")).map_err(CliError)?;
                writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
                Ok(())
            };

            // Trace, Chrome, and metrics files are written on failures
            // too — a run that died of a budget or anomaly is exactly
            // the one worth inspecting.
            let write_observability =
                |obs: &Observer, out: &mut dyn fmt::Write| -> Result<(), CliError> {
                    if let Some(r) = &recorder {
                        let snapshot = r.snapshot();
                        if snapshot.dropped > 0 {
                            writeln!(
                                out,
                                "note: {} trace records evicted (ring budget); the dump \
                             holds the most recent history",
                                snapshot.dropped
                            )
                            .map_err(|e| err(e.to_string()))?;
                        }
                        if let Some(path) = &trace {
                            rmrls_engine::write_atomic(path, &format!("{}\n", snapshot.to_json()))
                                .map_err(CliError)?;
                            writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
                        }
                        if let Some(path) = &trace_out {
                            rmrls_engine::write_atomic(
                                path,
                                &format!("{}\n", chrome_trace_json(&snapshot)),
                            )
                            .map_err(CliError)?;
                            writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
                        }
                    }
                    if let Some(path) = &metrics_out {
                        let snapshot = obs.metrics_snapshot().unwrap_or_default();
                        rmrls_engine::write_atomic(path, &prometheus_text(&snapshot))
                            .map_err(CliError)?;
                        writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
                    }
                    Ok(())
                };

            if let Some(t) = &telemetry {
                t.jobs.mark_running(0);
                t.sample(None);
            }
            let job_started = std::time::Instant::now();
            let outcome = if bidirectional {
                if pprm.num_vars() > 16 {
                    return Err(err("--bidi needs an explicit truth table (<= 16 wires)"));
                }
                let perm = Permutation::from_vec(pprm.to_permutation())
                    .map_err(|e| err(format!("specification is not reversible: {e}")))?;
                synthesize_bidirectional(&perm, &opts)
            } else {
                synthesize_with_observer(&pprm, &opts, &mut obs)
            };
            if let Some(t) = &telemetry {
                t.job_seconds.record(job_started.elapsed().as_secs_f64());
                match &outcome {
                    Ok(_) => t.jobs.mark_done(0, Some(rmrls_engine::SolveTier::Rmrls)),
                    Err(_) => t.jobs.mark_failed(0),
                }
                t.sample(None);
            }
            let result = match outcome {
                Ok(r) => r,
                Err(e) => {
                    // Failed runs still get a report (stop reason and
                    // counters are exactly what post-mortems need).
                    write_report(&e.stats, None, &obs, out)?;
                    write_observability(&obs, out)?;
                    return Err(err(e.to_string()));
                }
            };
            let mut circuit = result.circuit;
            if do_simplify {
                let s = simplify_with_stats(&mut circuit);
                writeln!(
                    out,
                    "template simplification removed {} gates \
                     ({} cancellations, {} merges, {} passes)",
                    s.removed(),
                    s.cancellations,
                    s.merges,
                    s.passes
                )
                .map_err(|e| err(e.to_string()))?;
            }
            write_report(&result.stats, Some(&circuit), &obs, out)?;
            write_observability(&obs, out)?;
            report(&circuit, &name, out).map_err(|e| err(e.to_string()))?;
            writeln!(out, "search: {}", result.stats).map_err(|e| err(e.to_string()))?;
            if do_render {
                out.write_str(&render(&circuit))
                    .map_err(|e| err(e.to_string()))?;
            }
            if let Some(path) = tfc_out {
                std::fs::write(&path, tfc::write(&circuit))
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
            }
            if let Some(path) = real_out {
                let doc = real::RealDocument::new(circuit.clone());
                std::fs::write(&path, real::write(&doc))
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        Command::Batch {
            source,
            jobs,
            deadline,
            cache_size,
            canon_limit,
            verify,
            fallback,
            results,
            resume,
            report: report_path,
            trace_dir,
            strict,
            metrics_addr,
            store,
        } => {
            let admissions = match &source {
                BatchSource::Manifest(path) => {
                    rmrls_engine::load_manifest(path).map_err(CliError)?
                }
                BatchSource::Suite(name) => {
                    rmrls_engine::suite_admissions(name).ok_or_else(|| {
                        err(format!(
                            "unknown suite '{name}' (table4, examples, extended, all)"
                        ))
                    })?
                }
            };
            let workers = jobs.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            if let Some(dir) = &trace_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| err(format!("cannot create --trace dir {dir}: {e}")))?;
            }
            let mut options = rmrls_engine::BatchOptions {
                workers,
                deadline,
                cache_size,
                canon_limit,
                verify,
                fallback,
                trace_dir: trace_dir.clone(),
                ..rmrls_engine::BatchOptions::default()
            };
            // An unopenable store degrades to a store-less run: the
            // batch still produces correct results, it merely won't
            // remember them. The warning is the only difference.
            let store_handle = match &store {
                Some(path) => match rmrls_engine::SharedStore::open(path) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        writeln!(
                            out,
                            "warning: --store {path}: {e}; continuing without a store"
                        )
                        .map_err(|e| err(e.to_string()))?;
                        None
                    }
                },
                None => None,
            };
            if let Some(s) = &store_handle {
                let st = s.stats();
                if st.quarantined_records > 0 || st.verify_rejected > 0 {
                    writeln!(
                        out,
                        "warning: store {}: {} corrupt records quarantined, {} rejected \
                         by re-verification (run 'rmrls store fsck' for details)",
                        store.as_deref().unwrap_or(""),
                        st.quarantined_records,
                        st.verify_rejected
                    )
                    .map_err(|e| err(e.to_string()))?;
                }
                options.store = Some(s.clone());
            }
            // Live telemetry: per-job status board, latency histograms,
            // and sampled gauges served over HTTP for the whole run.
            // Deliberately excluded from the options fingerprint — a
            // scraped run resumes a plain journal and vice versa.
            let telemetry = metrics_addr.as_ref().map(|_| {
                std::sync::Arc::new(rmrls_engine::BatchTelemetry::new(
                    admissions.iter().map(|a| a.name().to_string()).collect(),
                ))
            });
            let _server = match (&metrics_addr, &telemetry) {
                (Some(addr), Some(t)) => Some(bind_telemetry_server(addr, t)?),
                _ => None,
            };
            if let Some(t) = &telemetry {
                options.telemetry = Some(std::sync::Arc::clone(t));
            }
            let header = rmrls_engine::JournalHeader::new(&admissions, &options);

            // --resume: recover completed jobs, refusing a journal that
            // was written for a different job list or configuration.
            let resumed = match &resume {
                Some(path) => {
                    let data = rmrls_engine::read_journal(path).map_err(CliError)?;
                    if data.header.manifest_hash != header.manifest_hash {
                        return Err(err(format!(
                            "--resume {path}: journal was written for a different job list \
                             (manifest hash {:016x}, expected {:016x})",
                            data.header.manifest_hash, header.manifest_hash
                        )));
                    }
                    if data.header.options_fingerprint != header.options_fingerprint {
                        return Err(err(format!(
                            "--resume {path}: journal was written under different options \
                             (fingerprint {:016x}, expected {:016x})",
                            data.header.options_fingerprint, header.options_fingerprint
                        )));
                    }
                    if data.torn_tail {
                        writeln!(
                            out,
                            "note: {path} ends in a torn record (crash mid-append); \
                             that job will re-run"
                        )
                        .map_err(|e| err(e.to_string()))?;
                    }
                    writeln!(
                        out,
                        "resuming: {} of {} jobs already complete",
                        data.completed.len(),
                        admissions.len()
                    )
                    .map_err(|e| err(e.to_string()))?;
                    Some(data.completed)
                }
                None => None,
            };

            // The journal target: --results when given, else continue
            // journaling into the --resume file itself. Recovered
            // records are re-seeded first, so the journal is complete
            // from the moment the resumed run starts.
            let journal_path = results.clone().or_else(|| resume.clone());
            let journal = match &journal_path {
                Some(path) => {
                    let mut w =
                        rmrls_engine::JournalWriter::create(path, &header).map_err(CliError)?;
                    if let Some(done) = &resumed {
                        let mut indices: Vec<usize> = done.keys().copied().collect();
                        indices.sort_unstable();
                        for i in indices {
                            w.append(&done[&i].json.to_string()).map_err(CliError)?;
                        }
                    }
                    Some(std::sync::Mutex::new(w))
                }
                None => None,
            };

            // Ctrl-C once drains (running jobs finish, the rest are
            // skipped and the partial report is still written); twice
            // aborts in-flight searches.
            let shutdown = rmrls_engine::ShutdownHandles::install_sigint();
            let run = rmrls_engine::run_batch_resumable(
                &admissions,
                &options,
                &shutdown,
                journal.as_ref(),
                resumed.as_ref(),
            );
            drop(journal);

            let c = &run.counters;
            writeln!(
                out,
                "batch: {} jobs on {} workers in {:.2}s ({:.1} specs/sec)",
                c.jobs_total,
                run.workers,
                run.elapsed.as_secs_f64(),
                run.specs_per_second()
            )
            .map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "  solved: {}   unsolved: {}   errors: {}   \
                 panics_contained: {}   skipped: {}",
                c.jobs_completed,
                c.jobs_unsolved,
                c.jobs_errored,
                c.panics_contained,
                c.jobs_skipped
            )
            .map_err(|e| err(e.to_string()))?;
            if let Some(rate) = c.cache_hit_rate() {
                writeln!(
                    out,
                    "  cache: {} hits / {} misses ({:.0}% hit rate)",
                    c.cache_hits,
                    c.cache_misses,
                    rate * 100.0
                )
                .map_err(|e| err(e.to_string()))?;
            }
            if let Some(s) = &store_handle {
                let st = s.stats();
                writeln!(
                    out,
                    "  store: {} hits, {} inserts, {} append errors; \
                     {} entries on disk ({} bytes)",
                    c.store_hits, c.store_inserts, c.store_append_errors, st.entries, st.file_bytes
                )
                .map_err(|e| err(e.to_string()))?;
            }
            if verify {
                writeln!(
                    out,
                    "  verified: {} ok, {} failed",
                    c.verified_ok, c.verify_failures
                )
                .map_err(|e| err(e.to_string()))?;
            }
            if options.fallback {
                writeln!(
                    out,
                    "  solved_by: {} rmrls, {} relaxed, {} mmd",
                    c.solved_by_rmrls, c.solved_by_relaxed, c.solved_by_mmd
                )
                .map_err(|e| err(e.to_string()))?;
            }
            if c.jobs_resumed > 0 {
                writeln!(out, "  resumed from journal: {}", c.jobs_resumed)
                    .map_err(|e| err(e.to_string()))?;
            }
            if let Some(dir) = &trace_dir {
                // Truncation and write failures are reported, never
                // silent: a missing or shortened dump is itself a fact
                // the operator needs.
                writeln!(
                    out,
                    "  traces: {dir} ({} anomaly dumps, {} records evicted, {} write errors)",
                    c.anomaly_dumps, c.trace_records_dropped, c.trace_write_errors
                )
                .map_err(|e| err(e.to_string()))?;
            }
            if let Some(path) = &journal_path {
                // Rewrite the journal in admission order (journal order
                // was completion order) — atomically, so a crash here
                // still leaves a complete, resumable file.
                let mut text = header.to_json().to_string();
                text.push('\n');
                for (i, record) in run.records.iter().enumerate() {
                    text.push_str(&record.to_json_indexed(i).to_string());
                    text.push('\n');
                }
                rmrls_engine::write_atomic(path, &text).map_err(CliError)?;
                writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
            }
            if let Some(path) = &report_path {
                rmrls_engine::write_atomic(path, &format!("{}\n", run.report_json(&options)))
                    .map_err(CliError)?;
                writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
            }
            if strict
                && (c.panics_contained > 0
                    || c.verify_failures > 0
                    || c.jobs_errored > 0
                    || c.journal_append_errors > 0)
            {
                return Err(err(format!(
                    "strict batch failed: {} errors, {} panics, {} verification failures, \
                     {} journal append failures",
                    c.jobs_errored, c.panics_contained, c.verify_failures, c.journal_append_errors
                )));
            }
            Ok(())
        }
        Command::Serve {
            addr,
            jobs,
            queue,
            deadline,
            cache_size,
            canon_limit,
            verify,
            fallback,
            max_body_bytes,
            journal,
            store,
        } => {
            let workers = jobs.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            let mut batch = rmrls_engine::BatchOptions {
                workers,
                deadline,
                cache_size,
                canon_limit,
                verify,
                fallback,
                ..rmrls_engine::BatchOptions::default()
            };
            // The warm cache persists across restarts: circuits solved
            // by earlier incarnations are re-verified on open and served
            // as cache hits. An unopenable store degrades to warning.
            if let Some(path) = &store {
                match rmrls_engine::SharedStore::open(path) {
                    Ok(s) => {
                        batch.store = Some(s);
                        batch.store_provenance = "serve".to_string();
                    }
                    Err(e) => {
                        eprintln!("warning: --store {path}: {e}; continuing without a store");
                    }
                }
            }
            let opts = rmrls_serve::ServeOptions {
                addr,
                workers,
                queue_capacity: queue,
                max_body_bytes,
                journal_path: journal,
                batch,
            };
            // Ctrl-C once drains (running requests finish, queued work
            // is skipped — and replayed on restart when journaled);
            // twice aborts in-flight searches.
            let shutdown = rmrls_engine::ShutdownHandles::install_sigint();
            let daemon = rmrls_serve::ServeDaemon::start(opts, shutdown).map_err(err)?;
            // Stdout is buffered until exit, so the address a client
            // needs now is announced on stderr (matching
            // --metrics-addr), including when port 0 picked a port.
            eprintln!(
                "serve: listening on http://{} — POST /synthesize, \
                 GET /requests/<id>[/events], /metrics, /healthz, /jobs",
                daemon.local_addr()
            );
            // Registry handles are shared by name, so this counter
            // stays readable after `wait` consumes the daemon.
            let completed = daemon.telemetry().registry().counter("requests_completed");
            daemon.wait();
            writeln!(
                out,
                "serve: shut down ({} requests completed)",
                completed.get()
            )
            .map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        Command::Store { action, store } => {
            match action {
                StoreAction::Stats => {
                    // Opening performs the full recovery pass (torn-tail
                    // truncation, quarantine, re-verification), so the
                    // stats describe the store as the engine would see it.
                    let s = rmrls_engine::CircuitStore::open(&store)
                        .map_err(|e| err(format!("{store}: {e}")))?;
                    writeln!(out, "{}", s.stats().to_json()).map_err(|e| err(e.to_string()))?;
                }
                StoreAction::Fsck => {
                    // Read-only: reports damage without modifying the
                    // file (open/compact are the repair paths).
                    let report =
                        rmrls_engine::fsck(&store).map_err(|e| err(format!("{store}: {e}")))?;
                    writeln!(out, "{}", report.to_json()).map_err(|e| err(e.to_string()))?;
                    if !report.clean() {
                        return Err(err(format!(
                            "{store}: damage found ({} quarantined records, {} \
                             verify-rejected, {} torn tail bytes)",
                            report.quarantined.len(),
                            report.verify_rejected,
                            report.torn_tail_bytes
                        )));
                    }
                }
                StoreAction::Compact => {
                    let mut s = rmrls_engine::CircuitStore::open(&store)
                        .map_err(|e| err(format!("{store}: {e}")))?;
                    let stats = s.compact().map_err(|e| err(format!("{store}: {e}")))?;
                    writeln!(
                        out,
                        "compacted {}: {} records kept, {} -> {} bytes",
                        store, stats.records_kept, stats.bytes_before, stats.bytes_after
                    )
                    .map_err(|e| err(e.to_string()))?;
                }
            }
            Ok(())
        }
        Command::Trace { dump, chrome_out } => {
            let text = std::fs::read_to_string(&dump)
                .map_err(|e| err(format!("cannot read {dump}: {e}")))?;
            let json = rmrls_obs::Json::parse(&text)
                .map_err(|e| err(format!("cannot parse {dump}: {e}")))?;
            let snapshot =
                RecorderSnapshot::from_json(&json).map_err(|e| err(format!("{dump}: {e}")))?;
            writeln!(out, "trace: {dump}").map_err(|e| err(e.to_string()))?;
            if let Some(job) = json.get("job").and_then(rmrls_obs::Json::as_str) {
                writeln!(out, "job: {job}").map_err(|e| err(e.to_string()))?;
            }
            if let Some(trigger) = json.get("trigger").and_then(rmrls_obs::Json::as_str) {
                writeln!(out, "trigger: {trigger}").map_err(|e| err(e.to_string()))?;
            }
            let span_micros = snapshot.records.last().map(|r| r.ts_micros).unwrap_or(0);
            writeln!(
                out,
                "records: {} ({} evicted)   anomalies: {}   span: {:.3} ms",
                snapshot.records.len(),
                snapshot.dropped,
                snapshot.anomalies,
                span_micros as f64 / 1e3
            )
            .map_err(|e| err(e.to_string()))?;

            let phases = phase_spans(&snapshot.records);
            if !phases.is_empty() {
                writeln!(out, "top phases:").map_err(|e| err(e.to_string()))?;
                for (name, calls, micros) in &phases {
                    writeln!(
                        out,
                        "  {name:<14} {:>10.3} ms  x{calls}",
                        *micros as f64 / 1e3
                    )
                    .map_err(|e| err(e.to_string()))?;
                }
            }

            // Record-kind census in first-seen order.
            let mut kinds: Vec<(&'static str, u64)> = Vec::new();
            for r in &snapshot.records {
                let tag = r.kind.tag();
                match kinds.iter_mut().find(|(t, _)| *t == tag) {
                    Some(k) => k.1 += 1,
                    None => kinds.push((tag, 1)),
                }
            }
            if !kinds.is_empty() {
                let census: Vec<String> = kinds.iter().map(|(t, n)| format!("{t} x{n}")).collect();
                writeln!(out, "record kinds: {}", census.join("  "))
                    .map_err(|e| err(e.to_string()))?;
            }

            // Anomaly tally: kind @ site occurrence counts in
            // first-seen order — the one-glance answer to "what went
            // wrong, and how often" for an .anomaly.json dump.
            let mut tally: Vec<(String, u64)> = Vec::new();
            for r in &snapshot.records {
                let TraceKind::Anomaly { kind, site } = &r.kind else {
                    continue;
                };
                let key = format!("{kind} @ {site}");
                match tally.iter_mut().find(|(k, _)| *k == key) {
                    Some(t) => t.1 += 1,
                    None => tally.push((key, 1)),
                }
            }
            if !tally.is_empty() {
                writeln!(out, "anomaly tally:").map_err(|e| err(e.to_string()))?;
                for (key, n) in &tally {
                    writeln!(out, "  {key} x{n}").map_err(|e| err(e.to_string()))?;
                }
            }

            // Each anomaly with the records leading up to it — the
            // trailing context that names the failing site.
            for (i, r) in snapshot.records.iter().enumerate() {
                let TraceKind::Anomaly { kind, site } = &r.kind else {
                    continue;
                };
                writeln!(
                    out,
                    "anomaly at {:.3} ms: {kind} @ {site}",
                    r.ts_micros as f64 / 1e3
                )
                .map_err(|e| err(e.to_string()))?;
                for prev in &snapshot.records[i.saturating_sub(3)..i] {
                    writeln!(
                        out,
                        "  before: [{:.3} ms] {}",
                        prev.ts_micros as f64 / 1e3,
                        prev.kind.tag()
                    )
                    .map_err(|e| err(e.to_string()))?;
                }
            }

            if let Some(path) = &chrome_out {
                rmrls_engine::write_atomic(path, &format!("{}\n", chrome_trace_json(&snapshot)))
                    .map_err(CliError)?;
                writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        Command::Mmd {
            source,
            unidirectional,
        } => {
            let (pprm, name) = source.resolve()?;
            if pprm.num_vars() > 16 {
                return Err(err("mmd needs an explicit truth table (≤ 16 wires)"));
            }
            let perm = Permutation::from_vec(pprm.to_permutation())
                .map_err(|e| err(format!("specification is not reversible: {e}")))?;
            let variant = if unidirectional {
                MmdVariant::Unidirectional
            } else {
                MmdVariant::Bidirectional
            };
            let circuit = mmd_synthesize(&perm, variant);
            report(&circuit, &name, out).map_err(|e| err(e.to_string()))
        }
        Command::Embed {
            table_path,
            outputs,
            time_limit,
        } => {
            let text = std::fs::read_to_string(&table_path)
                .map_err(|e| err(format!("cannot read {table_path}: {e}")))?;
            let rows: Vec<u64> = text
                .split_whitespace()
                .map(|w| {
                    w.parse()
                        .map_err(|e| err(format!("bad output word '{w}': {e}")))
                })
                .collect::<Result<_, _>>()?;
            if rows.is_empty() || !rows.len().is_power_of_two() {
                return Err(err(format!(
                    "table has {} rows; need a power of two",
                    rows.len()
                )));
            }
            let inputs = rows.len().trailing_zeros() as usize;
            let table = rmrls_spec::TruthTable::from_rows(inputs, outputs, rows);
            let mut opts = SynthesisOptions::new();
            if let Some(t) = time_limit {
                opts = opts.with_time_limit(t);
            }
            let best = synthesize_embedded(&table, &opts).map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "embedding ({:?}): {} wires = {} real + {} constant inputs; {} garbage outputs",
                best.strategy,
                best.embedding.width(),
                best.embedding.real_inputs,
                best.embedding.garbage_inputs,
                best.embedding.garbage_outputs
            )
            .map_err(|e| err(e.to_string()))?;
            report(&best.synthesis.circuit, &table_path, out).map_err(|e| err(e.to_string()))
        }
        Command::Info { tfc_path } => {
            let circuit = load_tfc(&tfc_path)?;
            report(&circuit, &tfc_path, out).map_err(|e| err(e.to_string()))?;
            out.write_str(&render(&circuit))
                .map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        Command::Analyze { tfc_path } => {
            let circuit = load_tfc(&tfc_path)?;
            let stats = analyze(&circuit);
            writeln!(out, "{tfc_path}: {stats}").map_err(|e| err(e.to_string()))?;
            for (size, count) in stats.gate_size_histogram.iter().enumerate() {
                if *count > 0 {
                    writeln!(out, "  size-{size} gates: {count}")
                        .map_err(|e| err(e.to_string()))?;
                }
            }
            writeln!(out, "  idle wires: {}", stats.idle_wires())
                .map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        Command::Simplify { tfc_path, tfc_out } => {
            let mut circuit = load_tfc(&tfc_path)?;
            let before = circuit.gate_count();
            let removed = simplify(&mut circuit);
            writeln!(
                out,
                "{before} gates -> {} (removed {removed})",
                circuit.gate_count()
            )
            .map_err(|e| err(e.to_string()))?;
            match tfc_out {
                Some(path) => {
                    std::fs::write(&path, tfc::write(&circuit))
                        .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                    writeln!(out, "wrote {path}").map_err(|e| err(e.to_string()))?;
                }
                None => out
                    .write_str(&tfc::write(&circuit))
                    .map_err(|e| err(e.to_string()))?,
            }
            Ok(())
        }
    }
}

/// Binds the live-telemetry HTTP server over a shared telemetry board
/// and announces the bound address on stderr. Stdout carries the
/// command's result; stderr is where a scraper discovers the actual
/// port when `--metrics-addr host:0` asked for an ephemeral one.
fn bind_telemetry_server(
    addr: &str,
    telemetry: &std::sync::Arc<rmrls_engine::BatchTelemetry>,
) -> Result<rmrls_telemetry::HttpServer, CliError> {
    let server = rmrls_serve::serve_board(addr, std::sync::Arc::clone(telemetry))
        .map_err(|e| err(format!("cannot bind --metrics-addr {addr}: {e}")))?;
    eprintln!("telemetry: serving http://{}/metrics", server.local_addr());
    Ok(server)
}

/// Folds phase-enter/exit record pairs into per-phase totals
/// `(name, spans, total_micros)`, sorted by total descending. Unmatched
/// enters (a dump cut short by eviction or a panic) are ignored rather
/// than failing the summary.
fn phase_spans(records: &[TraceRecord]) -> Vec<(String, u64, u64)> {
    let mut stack: Vec<(&str, u64)> = Vec::new();
    let mut totals: Vec<(String, u64, u64)> = Vec::new();
    for r in records {
        match &r.kind {
            TraceKind::PhaseEnter { phase } => stack.push((phase, r.ts_micros)),
            TraceKind::PhaseExit { phase } => {
                let Some(pos) = stack.iter().rposition(|(p, _)| p == phase) else {
                    continue;
                };
                let (_, started) = stack.remove(pos);
                let micros = r.ts_micros.saturating_sub(started);
                match totals.iter_mut().find(|(n, _, _)| n == phase) {
                    Some(t) => {
                        t.1 += 1;
                        t.2 += micros;
                    }
                    None => totals.push((phase.clone(), 1, micros)),
                }
            }
            _ => {}
        }
    }
    totals.sort_by_key(|t| std::cmp::Reverse(t.2));
    totals
}

fn load_tfc(path: &str) -> Result<Circuit, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    tfc::parse(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn synth_with_inline_spec() {
        let c = parse(&["synth", "--spec", "1,0", "--max-gates", "5"]).unwrap();
        match c {
            Command::Synth {
                source, max_gates, ..
            } => {
                assert_eq!(source, SpecSource::Inline("1,0".into()));
                assert_eq!(max_gates, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pruning_values_parse() {
        for (text, expect) in [
            ("greedy", Pruning::Greedy),
            ("exhaustive", Pruning::Exhaustive),
            ("top4", Pruning::TopK(4)),
        ] {
            match parse(&["synth", "--spec", "0,1", "--pruning", text]).unwrap() {
                Command::Synth { pruning, .. } => assert_eq!(pruning, expect),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse(&["synth", "--spec", "0,1", "--pruning", "bogus"]).is_err());
    }

    #[test]
    fn conflicting_sources_rejected() {
        assert!(parse(&["synth", "--spec", "0,1", "--benchmark", "rd32"]).is_err());
        assert!(parse(&["synth"]).is_err());
    }

    #[test]
    fn removed_flags_are_unknown_arguments() {
        for (args, flag) in [
            (
                &["synth", "--spec", "0,1", "--threads", "2"][..],
                "--threads",
            ),
            (
                &["batch", "--suite", "table4", "--threads", "2"][..],
                "--threads",
            ),
            (&["serve", "--threads", "2"][..], "--threads"),
            (&["synth", "--spec", "0,1", "--profile"][..], "--profile"),
            (
                &["batch", "--suite", "table4", "--profile"][..],
                "--profile",
            ),
        ] {
            let e = parse(args).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("unknown argument '{flag}'"),
                "{args:?}"
            );
        }
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        match parse(&["serve"]).unwrap() {
            Command::Serve {
                addr,
                jobs,
                queue,
                deadline,
                cache_size,
                canon_limit,
                verify,
                fallback,
                max_body_bytes,
                journal,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(jobs, None);
                assert_eq!(queue, 16);
                assert_eq!(deadline, None);
                assert_eq!(cache_size, Some(1024));
                assert_eq!(canon_limit, 8);
                assert!(verify);
                assert!(!fallback);
                assert_eq!(max_body_bytes, 256 * 1024);
                assert_eq!(journal, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "serve",
            "--addr",
            "0.0.0.0:8791",
            "--jobs",
            "4",
            "--queue",
            "2",
            "--deadline-ms",
            "500",
            "--no-cache",
            "--fallback",
            "--max-body-bytes",
            "1024",
            "--journal",
            "reqs.jsonl",
        ])
        .unwrap()
        {
            Command::Serve {
                addr,
                jobs,
                queue,
                deadline,
                cache_size,
                fallback,
                max_body_bytes,
                journal,
                ..
            } => {
                assert_eq!(addr, "0.0.0.0:8791");
                assert_eq!(jobs, Some(4));
                assert_eq!(queue, 2);
                assert_eq!(deadline, Some(Duration::from_millis(500)));
                assert_eq!(cache_size, None);
                assert!(fallback);
                assert_eq!(max_body_bytes, 1024);
                assert_eq!(journal.as_deref(), Some("reqs.jsonl"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_flags_are_scoped_and_checked() {
        assert!(parse(&["serve", "--queue", "0"]).is_err());
        assert!(parse(&["serve", "--no-cache", "--cache-size", "8"]).is_err());
        assert!(parse(&["batch", "--suite", "table4", "--addr", "x:1"]).is_err());
        assert!(parse(&["synth", "--spec", "0,1", "--journal", "j.jsonl"]).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["synth", "--spec", "0,1", "--frobnicate"]).is_err());
    }

    #[test]
    fn flags_the_subcommand_ignores_are_rejected() {
        // Search flags are synth's: batch takes its search options from
        // the engine defaults and would silently drop them.
        let e = parse(&[
            "batch",
            "--suite",
            "examples",
            "--pruning",
            "greedy",
            "--time-limit",
            "1",
            "--max-gates",
            "3",
        ])
        .unwrap_err();
        assert_eq!(e.0, "'--pruning' does not apply to 'batch'");
        for flag in ["--time-limit", "--max-gates"] {
            let e = parse(&["batch", "--suite", "examples", flag, "1"]).unwrap_err();
            assert_eq!(e.0, format!("'{flag}' does not apply to 'batch'"));
        }
        // Engine flags are batch's and serve's: synth runs one search
        // with no deadline, worker pool or fallback ladder.
        let e = parse(&[
            "synth",
            "--spec",
            "1,0,3,2",
            "--deadline-ms",
            "1",
            "--jobs",
            "3",
            "--fallback",
        ])
        .unwrap_err();
        assert_eq!(e.0, "'--deadline-ms' does not apply to 'synth'");
        for flag in ["--jobs", "--fallback"] {
            let e = parse(&["synth", "--spec", "1,0,3,2", flag, "3"]).unwrap_err();
            assert_eq!(e.0, format!("'{flag}' does not apply to 'synth'"));
        }
    }

    #[test]
    fn usage_documents_every_flag() {
        for (flag, _) in FLAG_READERS {
            assert!(USAGE.contains(flag), "USAGE lacks {flag}");
        }
    }

    #[test]
    fn store_flag_and_subcommands_parse_and_are_scoped() {
        match parse(&["batch", "--suite", "examples", "--store", "c.store"]).unwrap() {
            Command::Batch { store, .. } => assert_eq!(store.as_deref(), Some("c.store")),
            other => panic!("{other:?}"),
        }
        match parse(&["serve", "--store", "c.store"]).unwrap() {
            Command::Serve { store, .. } => assert_eq!(store.as_deref(), Some("c.store")),
            other => panic!("{other:?}"),
        }
        for (sub, action) in [
            ("stats", StoreAction::Stats),
            ("fsck", StoreAction::Fsck),
            ("compact", StoreAction::Compact),
        ] {
            match parse(&["store", sub, "--store", "c.store"]).unwrap() {
                Command::Store { action: a, store } => {
                    assert_eq!(a, action);
                    assert_eq!(store, "c.store");
                }
                other => panic!("{other:?}"),
            }
        }
        // The action and the file are both mandatory; the flag is
        // meaningless outside batch/serve/store.
        assert!(parse(&["store"]).is_err());
        assert!(parse(&["store", "defrag", "--store", "c.store"]).is_err());
        assert!(parse(&["store", "stats"]).is_err());
        assert!(parse(&["synth", "--spec", "0,1", "--store", "c.store"]).is_err());
        assert!(parse(&["trace", "--dump", "d.json", "--store", "c.store"]).is_err());
    }

    #[test]
    fn run_synth_inline() {
        let cmd = parse(&["synth", "--spec", "1,0,7,2,3,4,5,6", "--render"]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).expect("synthesis should succeed");
        assert!(out.contains("gates: 3"), "{out}");
        assert!(out.contains('⊕'), "{out}");
    }

    #[test]
    fn run_synth_benchmark() {
        let cmd = parse(&["synth", "--benchmark", "ex1"]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).expect("ex1 should synthesize");
        assert!(out.contains("gates:"), "{out}");
    }

    #[test]
    fn metrics_addr_flag_parses_and_is_scoped() {
        match parse(&["synth", "--spec", "0,1", "--metrics-addr", "127.0.0.1:0"]).unwrap() {
            Command::Synth { metrics_addr, .. } => {
                assert_eq!(metrics_addr.as_deref(), Some("127.0.0.1:0"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "batch",
            "--suite",
            "examples",
            "--metrics-addr",
            "0.0.0.0:9100",
        ])
        .unwrap()
        {
            Command::Batch { metrics_addr, .. } => {
                assert_eq!(metrics_addr.as_deref(), Some("0.0.0.0:9100"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["synth", "--spec", "0,1", "--metrics-addr"]).is_err());
        assert!(parse(&["mmd", "--spec", "0,1", "--metrics-addr", "x:0"]).is_err());
        assert!(parse(&["trace", "--dump", "d.json", "--metrics-addr", "x:0"]).is_err());
    }

    #[test]
    fn metrics_addr_bind_failure_is_an_error_not_a_panic() {
        let cmd = parse(&["synth", "--spec", "1,0", "--metrics-addr", "not-an-address"]).unwrap();
        let e = run(cmd, &mut String::new()).unwrap_err();
        assert!(e.0.contains("--metrics-addr"), "{}", e.0);
    }

    #[test]
    fn synth_with_metrics_addr_leaves_output_identical() {
        let mut plain = String::new();
        run(parse(&["synth", "--benchmark", "ex1"]).unwrap(), &mut plain).unwrap();
        let mut live = String::new();
        run(
            parse(&[
                "synth",
                "--benchmark",
                "ex1",
                "--metrics-addr",
                "127.0.0.1:0",
            ])
            .unwrap(),
            &mut live,
        )
        .unwrap();
        // The "search:" line embeds wall-clock time; everything else
        // must be byte-identical — telemetry observes, never steers.
        let deterministic = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("search:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(deterministic(&plain), deterministic(&live));
    }

    #[test]
    fn batch_with_metrics_addr_serves_and_journal_is_identical() {
        let dir = std::env::temp_dir().join("rmrls-cli-metrics-addr-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.jsonl");
        let live = dir.join("live.jsonl");
        let batch = |results: &std::path::Path, extra: &[&str]| {
            let mut v = vec![
                "batch",
                "--suite",
                "examples",
                "--jobs",
                "2",
                "--results",
                results.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            run(parse(&v).unwrap(), &mut String::new()).unwrap();
        };
        batch(&plain, &[]);
        batch(&live, &["--metrics-addr", "127.0.0.1:0"]);
        // Byte-identical journals modulo per-job wall-clock seconds.
        let strip = |path: &std::path::Path| {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(|l| match rmrls_obs::Json::parse(l).unwrap() {
                    rmrls_obs::Json::Obj(fields) => rmrls_obs::Json::Obj(
                        fields.into_iter().filter(|(k, _)| k != "seconds").collect(),
                    )
                    .to_string(),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&plain), strip(&live));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_mmd() {
        let cmd = parse(&["mmd", "--spec", "7,0,1,2,3,4,5,6"]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).expect("mmd always succeeds");
        assert!(out.contains("quantum cost"), "{out}");
    }

    #[test]
    fn run_benchmarks_lists_suite() {
        let mut out = String::new();
        run(Command::Benchmarks, &mut out).unwrap();
        assert!(out.contains("rd53") && out.contains("ex1"), "{out}");
    }

    #[test]
    fn run_unknown_benchmark_fails() {
        let cmd = parse(&["synth", "--benchmark", "nope"]).unwrap();
        let mut out = String::new();
        assert!(run(cmd, &mut out).is_err());
    }

    #[test]
    fn analyze_and_simplify_commands() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("in.tfc");
        // A circuit with a cancellable pair.
        std::fs::write(&path, ".v a,b\nBEGIN\nt2 a,b\nt2 a,b\nt1 a\nEND\n").unwrap();

        let cmd = parse(&["analyze", "--tfc", path.to_str().unwrap()]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("3 gates"), "{out}");

        let cmd = parse(&["simplify", "--tfc", path.to_str().unwrap()]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("3 gates -> 1"), "{out}");
    }

    #[test]
    fn synth_flags_parse() {
        match parse(&["synth", "--spec", "0,1", "--bidi", "--fredkin", "full"]).unwrap() {
            Command::Synth {
                bidirectional,
                fredkin,
                ..
            } => {
                assert!(bidirectional);
                assert_eq!(fredkin, FredkinMode::Full);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["synth", "--spec", "0,1", "--fredkin", "bogus"]).is_err());
    }

    #[test]
    fn real_out_writes_parseable_document() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.real");
        let cmd = parse(&[
            "synth",
            "--spec",
            "1,0,7,2,3,4,5,6",
            "--real-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        let doc = rmrls_circuit::real::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.circuit.to_permutation(), vec![1, 0, 7, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn embed_command_synthesizes_irreversible_table() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("and.tt");
        // AND of two inputs: rows 0 0 0 1.
        std::fs::write(&path, "0 0 0 1\n").unwrap();
        let cmd = parse(&["embed", "--table", path.to_str().unwrap(), "--outputs", "1"]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("embedding"), "{out}");
        assert!(out.contains("gates:"), "{out}");
    }

    #[test]
    fn embed_rejects_non_power_of_two() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tt");
        std::fs::write(&path, "0 1 0\n").unwrap();
        let cmd = parse(&["embed", "--table", path.to_str().unwrap(), "--outputs", "1"]).unwrap();
        let mut out = String::new();
        assert!(run(cmd, &mut out).is_err());
    }

    #[test]
    fn spec_file_source_parses_and_runs() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.perm");
        std::fs::write(&path, "# Fig. 1\n{1, 0, 7, 2, 3, 4, 5, 6}\n").unwrap();
        let cmd = parse(&["synth", "--spec-file", path.to_str().unwrap()]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("gates: 3"), "{out}");
    }

    #[test]
    fn observability_flags_parse() {
        match parse(&[
            "synth",
            "--spec",
            "0,1",
            "--report",
            "run.json",
            "--progress",
            "--log-json",
            "events.jsonl",
        ])
        .unwrap()
        {
            Command::Synth {
                report,
                progress,
                log_json,
                ..
            } => {
                assert_eq!(report.as_deref(), Some("run.json"));
                assert!(progress);
                assert_eq!(log_json.as_deref(), Some("events.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        // Value-taking flags demand values.
        assert!(parse(&["synth", "--spec", "0,1", "--report"]).is_err());
        assert!(parse(&["synth", "--spec", "0,1", "--log-json"]).is_err());
    }

    #[test]
    fn observability_flags_rejected_outside_synth() {
        assert!(parse(&["mmd", "--spec", "0,1", "--report", "r.json"]).is_err());
        assert!(parse(&["info", "--tfc", "x.tfc", "--progress"]).is_err());
        assert!(parse(&["benchmarks", "--log-json", "-"]).is_err());
    }

    #[test]
    fn observability_flag_conflicts() {
        // --progress and '--log-json -' would interleave on stderr.
        assert!(parse(&["synth", "--spec", "0,1", "--progress", "--log-json", "-"]).is_err());
        // A file-backed event log composes with --progress.
        assert!(parse(&[
            "synth",
            "--spec",
            "0,1",
            "--progress",
            "--log-json",
            "e.jsonl"
        ])
        .is_ok());
        // --bidi runs two uninstrumented searches.
        assert!(parse(&["synth", "--spec", "0,1", "--bidi", "--progress"]).is_err());
        assert!(parse(&["synth", "--spec", "0,1", "--bidi", "--log-json", "e.jsonl"]).is_err());
        // ... but --report only needs the returned stats.
        assert!(parse(&["synth", "--spec", "0,1", "--bidi", "--report", "r.json"]).is_ok());
    }

    #[test]
    fn usage_documents_observability_flags() {
        for flag in [
            "--report",
            "--progress",
            "--log-json",
            "--trace",
            "--trace-out",
            "--metrics-out",
            "--metrics-addr",
            "--dump",
            "--chrome-out",
        ] {
            assert!(USAGE.contains(flag), "USAGE must mention {flag}");
        }
        assert!(USAGE.contains("rmrls trace"), "trace subcommand in USAGE");
    }

    #[test]
    fn trace_flags_parse() {
        match parse(&[
            "synth",
            "--spec",
            "0,1",
            "--trace",
            "dump.json",
            "--trace-out",
            "chrome.json",
            "--metrics-out",
            "metrics.prom",
        ])
        .unwrap()
        {
            Command::Synth {
                trace,
                trace_out,
                metrics_out,
                ..
            } => {
                assert_eq!(trace.as_deref(), Some("dump.json"));
                assert_eq!(trace_out.as_deref(), Some("chrome.json"));
                assert_eq!(metrics_out.as_deref(), Some("metrics.prom"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&["trace", "--dump", "d.json", "--chrome-out", "c.json"]).unwrap() {
            Command::Trace { dump, chrome_out } => {
                assert_eq!(dump, "d.json");
                assert_eq!(chrome_out.as_deref(), Some("c.json"));
            }
            other => panic!("{other:?}"),
        }
        // The trace subcommand needs its input file.
        assert!(parse(&["trace"]).is_err());
        // Scope validation: flags stay with their commands.
        assert!(parse(&["mmd", "--spec", "0,1", "--trace", "d.json"]).is_err());
        assert!(parse(&["info", "--tfc", "x.tfc", "--trace", "d.json"]).is_err());
        assert!(parse(&["batch", "--suite", "table4", "--trace-out", "c.json"]).is_err());
        assert!(parse(&["batch", "--suite", "table4", "--metrics-out", "m"]).is_err());
        assert!(parse(&["synth", "--spec", "0,1", "--dump", "d.json"]).is_err());
        // --bidi runs two searches; one recorder cannot serve both.
        assert!(parse(&["synth", "--spec", "0,1", "--bidi", "--trace", "d.json"]).is_err());
        assert!(parse(&["synth", "--spec", "0,1", "--bidi", "--trace-out", "c.json"]).is_err());
    }

    #[test]
    fn synth_writes_trace_chrome_and_metrics_files() {
        let dir = std::env::temp_dir().join("rmrls-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("dump.json");
        let chrome = dir.join("chrome.json");
        let metrics = dir.join("metrics.prom");
        let report = dir.join("report.json");
        let cmd = parse(&[
            "synth",
            "--spec",
            "1,0,7,2,3,4,5,6",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-out",
            chrome.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();

        // The raw dump parses back as a snapshot bracketing the search.
        let json = rmrls_obs::Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let snapshot = RecorderSnapshot::from_json(&json).unwrap();
        assert!(snapshot.records.iter().any(|r| matches!(
            &r.kind,
            TraceKind::PhaseEnter { phase } if phase == "search"
        )));

        // The Chrome export is valid trace-event JSON.
        let chrome_json =
            rmrls_obs::Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        assert!(!chrome_json
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());

        // The Prometheus exposition and the report's metrics object are
        // pinned byte for byte (fig. 1 under the default A* priority, so
        // every push priority is negative).
        const FIG1_PROM: &str = "\
            # HELP rmrls_candidates_scored rmrls counter `candidates_scored`\n\
            # TYPE rmrls_candidates_scored counter\n\
            rmrls_candidates_scored 51\n\
            # HELP rmrls_candidates_materialized rmrls counter `candidates_materialized`\n\
            # TYPE rmrls_candidates_materialized counter\n\
            rmrls_candidates_materialized 7\n\
            # HELP rmrls_queue_depth rmrls gauge `queue_depth`\n\
            # TYPE rmrls_queue_depth gauge\n\
            rmrls_queue_depth 7\n\
            # HELP rmrls_queue_depth_high_water rmrls high-water mark of gauge `queue_depth`\n\
            # TYPE rmrls_queue_depth_high_water gauge\n\
            rmrls_queue_depth_high_water 7\n\
            # HELP rmrls_push_priority rmrls histogram `push_priority`\n\
            # TYPE rmrls_push_priority histogram\n\
            rmrls_push_priority_bucket{le=\"-100.0\"} 0\n\
            rmrls_push_priority_bucket{le=\"-50.0\"} 0\n\
            rmrls_push_priority_bucket{le=\"-20.0\"} 0\n\
            rmrls_push_priority_bucket{le=\"-10.0\"} 0\n\
            rmrls_push_priority_bucket{le=\"-5.0\"} 2\n\
            rmrls_push_priority_bucket{le=\"-2.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"0.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"1.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"2.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"5.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"10.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"20.0\"} 7\n\
            rmrls_push_priority_bucket{le=\"+Inf\"} 7\n\
            rmrls_push_priority_sum -24.8\n\
            rmrls_push_priority_count 7\n\
            # HELP rmrls_terms_remaining rmrls histogram `terms_remaining`\n\
            # TYPE rmrls_terms_remaining histogram\n\
            rmrls_terms_remaining_bucket{le=\"2.0\"} 0\n\
            rmrls_terms_remaining_bucket{le=\"4.0\"} 0\n\
            rmrls_terms_remaining_bucket{le=\"8.0\"} 11\n\
            rmrls_terms_remaining_bucket{le=\"16.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"32.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"64.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"128.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"256.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"512.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"1024.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"4096.0\"} 15\n\
            rmrls_terms_remaining_bucket{le=\"+Inf\"} 15\n\
            rmrls_terms_remaining_sum 120.0\n\
            rmrls_terms_remaining_count 15\n";
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert_eq!(prom, FIG1_PROM);

        let report_json =
            rmrls_obs::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(
            report_json.get("metrics").unwrap().to_string(),
            concat!(
                r#"{"counters":{"candidates_scored":51,"candidates_materialized":7},"gauges":{"queue_depth":{"value":7,"high_water":7}},"histograms":{"#,
                r#""push_priority":{"bounds":[-100,-50,-20,-10,-5,-2,0,1,2,5,10,20],"counts":[0,0,0,0,2,5,0,0,0,0,0,0,0],"count":7,"sum":-24.8,"min":-5,"max":-2.5,"mean":-3.542857142857143},"#,
                r#""terms_remaining":{"bounds":[2,4,8,16,32,64,128,256,512,1024,4096],"counts":[0,0,11,4,0,0,0,0,0,0,0,0],"count":15,"sum":120,"min":6,"max":11,"mean":8}}}"#,
            )
        );
    }

    #[test]
    fn trace_subcommand_summarizes_a_dump() {
        let dir = std::env::temp_dir().join("rmrls-cli-trace-sub-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("dump.json");
        let chrome = dir.join("chrome.json");
        let cmd = parse(&[
            "synth",
            "--spec",
            "1,0,7,2,3,4,5,6",
            "--trace",
            dump.to_str().unwrap(),
        ])
        .unwrap();
        run(cmd, &mut String::new()).unwrap();

        let cmd = parse(&[
            "trace",
            "--dump",
            dump.to_str().unwrap(),
            "--chrome-out",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("top phases:"), "{out}");
        assert!(out.contains("search"), "{out}");
        assert!(out.contains("record kinds:"), "{out}");
        rmrls_obs::Json::parse(&std::fs::read_to_string(&chrome).unwrap())
            .expect("chrome export from the trace subcommand is valid JSON");

        // Garbage input fails with a parse error, not a panic.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        let cmd = parse(&["trace", "--dump", garbage.to_str().unwrap()]).unwrap();
        assert!(run(cmd, &mut String::new()).is_err());
    }

    #[test]
    fn trace_subcommand_tallies_anomalies_from_an_anomaly_dump() {
        let dir = std::env::temp_dir().join("rmrls-cli-anomaly-tally-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("3-rd53.anomaly.json");
        // Shape of an engine .anomaly.json: a recorder snapshot plus
        // the job name and the anomaly that triggered the dump.
        let recorder = FlightRecorder::with_default_budget();
        recorder.anomaly("injected_fault", "frontier");
        recorder.anomaly("injected_fault", "frontier");
        recorder.anomaly("deadline_expired", "search_loop");
        let mut json = recorder.snapshot().to_json();
        if let rmrls_obs::Json::Obj(fields) = &mut json {
            fields.push(("job".into(), rmrls_obs::Json::str("rd53")));
            fields.push(("trigger".into(), rmrls_obs::Json::str("injected_fault")));
        }
        std::fs::write(&path, format!("{json}\n")).unwrap();

        let cmd = parse(&["trace", "--dump", path.to_str().unwrap()]).unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("job: rd53"), "{out}");
        assert!(out.contains("trigger: injected_fault"), "{out}");
        assert!(out.contains("anomaly tally:"), "{out}");
        assert!(out.contains("injected_fault @ frontier x2"), "{out}");
        assert!(out.contains("deadline_expired @ search_loop x1"), "{out}");
    }

    #[test]
    fn batch_trace_writes_per_job_dumps_via_cli() {
        let dir = std::env::temp_dir().join("rmrls-cli-batch-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let traces = dir.join("traces");
        let cmd = parse(&[
            "batch",
            "--suite",
            "examples",
            "--jobs",
            "2",
            "--trace",
            traces.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        assert!(out.contains("traces:"), "{out}");
        let dumps = std::fs::read_dir(&traces)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".trace.json")
            })
            .count();
        assert_eq!(dumps, 8, "one dump per examples-suite job");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_file_round_trips_against_cli_output() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-report.json");
        let cmd = parse(&[
            "synth",
            "--benchmark",
            "ex1",
            "--report",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).expect("ex1 synthesizes");

        let text = std::fs::read_to_string(&path).unwrap();
        let json = rmrls_obs::Json::parse(&text).expect("report is valid JSON");
        assert_eq!(json.get("schema_version").unwrap().as_u64(), Some(5));
        assert_eq!(json.get("solved").unwrap().as_bool(), Some(true));
        // The report's gate count agrees with the human-readable output.
        let gates = json
            .get("circuit")
            .unwrap()
            .get("gates")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(out.contains(&format!("gates: {gates}")), "{out}");
        let stats = json.get("stats").unwrap();
        for field in [
            "nodes_expanded",
            "children_pushed",
            "restarts",
            "dedup_hits",
            "queue_peak",
            "restart_spans",
            "stop_reason",
        ] {
            assert!(stats.get(field).is_some(), "stats.{field} missing");
        }
        // Metrics ride along because --report enables the registry.
        assert!(json.get("metrics").unwrap().get("histograms").is_some());
        assert_eq!(json.get("events_dropped").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn failed_synthesis_still_writes_a_report() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failed-report.json");
        let cmd = parse(&[
            "synth",
            "--spec",
            "0,1,2,4,3,5,6,7",
            "--max-gates",
            "1",
            "--report",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        assert!(run(cmd, &mut out).is_err(), "cap below optimum must fail");
        let json = rmrls_obs::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(json.get("solved").unwrap().as_bool(), Some(false));
        assert!(json.get("stats").unwrap().get("stop_reason").is_some());
    }

    #[test]
    fn log_json_streams_bracketed_events() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let cmd = parse(&[
            "synth",
            "--spec",
            "1,0,7,2,3,4,5,6",
            "--log-json",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "expected a stream of events: {text}");
        let first = rmrls_obs::Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("event").unwrap().as_str(), Some("run_start"));
        let last = rmrls_obs::Json::parse(lines[lines.len() - 1]).unwrap();
        assert_eq!(last.get("event").unwrap().as_str(), Some("run_end"));
        for line in &lines {
            rmrls_obs::Json::parse(line).expect("every line is standalone JSON");
        }
    }

    #[test]
    fn batch_flags_parse() {
        match parse(&[
            "batch",
            "--suite",
            "examples",
            "--jobs",
            "4",
            "--deadline-ms",
            "250",
            "--cache-size",
            "64",
            "--canon-limit",
            "6",
            "--no-verify",
            "--results",
            "r.jsonl",
            "--report",
            "report.json",
            "--strict",
            "--fallback",
            "--resume",
            "old.jsonl",
            "--trace",
            "traces",
        ])
        .unwrap()
        {
            Command::Batch {
                source,
                jobs,
                deadline,
                cache_size,
                canon_limit,
                verify,
                fallback,
                results,
                report,
                trace_dir,
                strict,
                resume,
                metrics_addr,
                store,
            } => {
                assert_eq!(metrics_addr, None);
                assert_eq!(store, None);
                assert_eq!(source, BatchSource::Suite("examples".into()));
                assert_eq!(jobs, Some(4));
                assert_eq!(deadline, Some(Duration::from_millis(250)));
                assert_eq!(cache_size, Some(64));
                assert_eq!(canon_limit, 6);
                assert!(!verify);
                assert!(fallback);
                assert_eq!(results.as_deref(), Some("r.jsonl"));
                assert_eq!(report.as_deref(), Some("report.json"));
                assert_eq!(trace_dir.as_deref(), Some("traces"));
                assert!(strict);
                assert_eq!(resume.as_deref(), Some("old.jsonl"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_defaults_and_source_validation() {
        match parse(&["batch", "--manifest", "jobs.txt"]).unwrap() {
            Command::Batch {
                source,
                jobs,
                cache_size,
                canon_limit,
                verify,
                fallback,
                strict,
                resume,
                ..
            } => {
                assert_eq!(source, BatchSource::Manifest("jobs.txt".into()));
                assert_eq!(jobs, None);
                assert_eq!(cache_size, Some(1024));
                assert_eq!(canon_limit, 8);
                assert!(verify);
                assert!(!fallback);
                assert!(!strict);
                assert_eq!(resume, None);
            }
            other => panic!("{other:?}"),
        }
        // Exactly one source, and the flag combinations must be sane.
        assert!(parse(&["batch"]).is_err());
        assert!(parse(&["batch", "--manifest", "a", "--suite", "table4"]).is_err());
        assert!(parse(&["batch", "--suite", "table4", "--jobs", "0"]).is_err());
        assert!(parse(&[
            "batch",
            "--suite",
            "table4",
            "--no-cache",
            "--cache-size",
            "8"
        ])
        .is_err());
        // --no-cache alone disables the cache.
        match parse(&["batch", "--suite", "table4", "--no-cache"]).unwrap() {
            Command::Batch { cache_size, .. } => assert_eq!(cache_size, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_batch_suite_writes_results_and_report() {
        let dir = std::env::temp_dir().join("rmrls-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let results = dir.join("results.jsonl");
        let report = dir.join("report.json");
        let cmd = parse(&[
            "batch",
            "--suite",
            "examples",
            "--jobs",
            "2",
            "--strict",
            "--results",
            results.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).expect("examples suite synthesizes clean");
        assert!(out.contains("panics_contained: 0"), "{out}");
        assert!(out.contains("verified: 8 ok, 0 failed"), "{out}");

        let jsonl = std::fs::read_to_string(&results).unwrap();
        // Header line plus one indexed record per job.
        assert_eq!(jsonl.lines().count(), 1 + 8);
        let header = rmrls_obs::Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("journal").unwrap().as_str(), Some("rmrls-batch"));
        for (i, line) in jsonl.lines().skip(1).enumerate() {
            let record = rmrls_obs::Json::parse(line).unwrap();
            assert_eq!(record.get("index").unwrap().as_u64(), Some(i as u64));
            assert_eq!(record.get("status").unwrap().as_str(), Some("solved"));
            assert_eq!(record.get("verified").unwrap().as_bool(), Some(true));
        }
        let report = rmrls_obs::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(report.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(
            report
                .get("counters")
                .unwrap()
                .get("panics_contained")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn run_batch_store_roundtrip_fsck_and_compact() {
        let dir = std::env::temp_dir().join("rmrls-cli-store-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("circuits.store");
        let store_arg = store.to_str().unwrap();
        let results = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let batch = |results_path: &str| {
            parse(&[
                "batch",
                "--suite",
                "examples",
                "--jobs",
                "2",
                "--strict",
                "--store",
                store_arg,
                "--results",
                results_path,
            ])
            .unwrap()
        };

        // Cold run populates the store; warm run must be served from it
        // (fresh LRU each run, so every unique canonical either inserts
        // on the first run or hits the store on the second).
        let mut cold = String::new();
        run(batch(&results("cold.jsonl")), &mut cold).expect("cold run");
        assert!(cold.contains("  store: "), "{cold}");
        let mut warm = String::new();
        run(batch(&results("warm.jsonl")), &mut warm).expect("warm run");
        let store_line = warm.lines().find(|l| l.starts_with("  store: ")).unwrap();
        let hits: u64 = store_line
            .trim_start_matches("  store: ")
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(hits > 0, "warm run should hit the store: {warm}");
        assert!(store_line.contains("0 inserts"), "{warm}");

        // The warm run's circuits are byte-identical to the cold run's.
        let circuits = |path: &str| -> Vec<String> {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .skip(1)
                .map(|l| {
                    rmrls_obs::Json::parse(l)
                        .unwrap()
                        .get("circuit")
                        .expect("solved record")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            circuits(&results("cold.jsonl")),
            circuits(&results("warm.jsonl"))
        );

        // stats and fsck agree the store is clean.
        let mut out = String::new();
        run(
            parse(&["store", "stats", "--store", store_arg]).unwrap(),
            &mut out,
        )
        .unwrap();
        let stats = rmrls_obs::Json::parse(out.trim()).unwrap();
        let entries = stats.get("entries").unwrap().as_u64().unwrap();
        assert!(entries > 0);
        assert_eq!(stats.get("quarantined_records").unwrap().as_u64(), Some(0));
        let mut out = String::new();
        run(
            parse(&["store", "fsck", "--store", store_arg]).unwrap(),
            &mut out,
        )
        .expect("clean store passes fsck");

        // Flip one byte inside the first record's payload: fsck reports
        // exactly that record quarantined (nonzero exit) and preserves
        // the rest; a batch run degrades to a warning, not a failure.
        let mut bytes = std::fs::read(&store).unwrap();
        let payload_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1 + 15;
        bytes[payload_at] ^= 0xff;
        std::fs::write(&store, &bytes).unwrap();
        let mut out = String::new();
        let fsck_err = run(
            parse(&["store", "fsck", "--store", store_arg]).unwrap(),
            &mut out,
        )
        .expect_err("fsck must exit nonzero on damage");
        assert!(fsck_err.0.contains("1 quarantined"), "{fsck_err:?}");
        let report = rmrls_obs::Json::parse(out.trim()).unwrap();
        match report.get("quarantined").unwrap() {
            rmrls_obs::Json::Arr(regions) => assert_eq!(regions.len(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            report.get("valid_records").unwrap().as_u64(),
            Some(entries - 1),
            "undamaged records survive"
        );
        let mut damaged = String::new();
        run(batch(&results("damaged.jsonl")), &mut damaged).expect("strict run despite damage");
        assert!(damaged.contains("corrupt records quarantined"), "{damaged}");
        assert_eq!(
            circuits(&results("cold.jsonl")),
            circuits(&results("damaged.jsonl"))
        );

        // Compact rewrites without the quarantined bytes; fsck is clean
        // again and every entry survives (the damaged one was re-solved
        // and re-inserted by the run above).
        let mut out = String::new();
        run(
            parse(&["store", "compact", "--store", store_arg]).unwrap(),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("compacted"), "{out}");
        let mut out = String::new();
        run(
            parse(&["store", "fsck", "--store", store_arg]).unwrap(),
            &mut out,
        )
        .expect("compacted store passes fsck");
        let report = rmrls_obs::Json::parse(out.trim()).unwrap();
        assert_eq!(report.get("valid_records").unwrap().as_u64(), Some(entries));
    }

    #[test]
    fn batch_resume_skips_completed_jobs_and_matches_reference() {
        let dir = std::env::temp_dir().join("rmrls-cli-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let run_batch_cmd = |extra: &[&str]| {
            let mut v = vec![
                "batch",
                "--suite",
                "examples",
                "--jobs",
                "1",
                "--results",
                journal.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            parse(&v).unwrap()
        };

        // Reference: an uninterrupted run.
        let mut out = String::new();
        run(run_batch_cmd(&[]), &mut out).unwrap();
        let reference = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = reference.lines().collect();
        assert_eq!(lines.len(), 1 + 8);

        // Simulate a SIGKILL: keep the header, three intact records,
        // and half of the fourth record's bytes.
        let mut torn = lines[..4].join("\n");
        torn.push('\n');
        torn.push_str(&lines[4][..lines[4].len() / 2]);
        std::fs::write(&journal, &torn).unwrap();

        let mut out = String::new();
        run(
            run_batch_cmd(&["--resume", journal.to_str().unwrap()]),
            &mut out,
        )
        .unwrap();
        assert!(
            out.contains("resuming: 3 of 8 jobs already complete"),
            "{out}"
        );
        assert!(out.contains("torn record"), "{out}");
        assert!(out.contains("resumed from journal: 3"), "{out}");
        let resumed = std::fs::read_to_string(&journal).unwrap();
        // The final rewritten journal is byte-identical modulo the
        // per-job timing fields, which we strip before comparing.
        let strip = |text: &str| {
            text.lines()
                .map(|l| {
                    let json = rmrls_obs::Json::parse(l).unwrap();
                    match json {
                        rmrls_obs::Json::Obj(fields) => rmrls_obs::Json::Obj(
                            fields.into_iter().filter(|(k, _)| k != "seconds").collect(),
                        )
                        .to_string(),
                        other => other.to_string(),
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&resumed), strip(&reference));
    }

    #[test]
    fn batch_resume_refuses_mismatched_journals() {
        let dir = std::env::temp_dir().join("rmrls-cli-resume-refuse");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let cmd = parse(&[
            "batch",
            "--suite",
            "examples",
            "--results",
            journal.to_str().unwrap(),
        ])
        .unwrap();
        run(cmd, &mut String::new()).unwrap();

        // Different job list: same options, other suite.
        let other_suite = parse(&[
            "batch",
            "--suite",
            "table4",
            "--resume",
            journal.to_str().unwrap(),
        ])
        .unwrap();
        let err = run(other_suite, &mut String::new()).unwrap_err();
        assert!(err.0.contains("different job list"), "{}", err.0);

        // Same job list, different options fingerprint.
        let other_opts = parse(&[
            "batch",
            "--suite",
            "examples",
            "--no-verify",
            "--resume",
            journal.to_str().unwrap(),
        ])
        .unwrap();
        let err = run(other_opts, &mut String::new()).unwrap_err();
        assert!(err.0.contains("different options"), "{}", err.0);

        // A plain results file from before the journal era (no header).
        let legacy = dir.join("legacy.jsonl");
        std::fs::write(&legacy, "{\"index\":0,\"status\":\"solved\"}\n").unwrap();
        let from_legacy = parse(&[
            "batch",
            "--suite",
            "examples",
            "--resume",
            legacy.to_str().unwrap(),
        ])
        .unwrap();
        assert!(run(from_legacy, &mut String::new()).is_err());
    }

    #[test]
    fn strict_batch_fails_on_corrupt_manifest() {
        let dir = std::env::temp_dir().join("rmrls-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("corrupt.manifest");
        std::fs::write(&manifest, "perm 1,0,7,2,3,4,5,6\nperm 0,0,1,2\n").unwrap();
        let args = |strict: bool| {
            let mut v = vec![
                "batch".to_string(),
                "--manifest".to_string(),
                manifest.to_str().unwrap().to_string(),
            ];
            if strict {
                v.push("--strict".to_string());
            }
            v
        };
        let mut out = String::new();
        let lenient = parse_args(args(false)).unwrap();
        run(lenient, &mut out).expect("errors are records, not failures");
        assert!(out.contains("errors: 1"), "{out}");
        let strict = parse_args(args(true)).unwrap();
        assert!(run(strict, &mut String::new()).is_err());
    }

    #[test]
    fn batch_rejects_unknown_suite() {
        let cmd = parse(&["batch", "--suite", "nope"]).unwrap();
        assert!(run(cmd, &mut String::new()).is_err());
    }

    #[test]
    fn tfc_roundtrip_through_cli() {
        let dir = std::env::temp_dir().join("rmrls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tfc");
        let cmd = parse(&[
            "synth",
            "--spec",
            "1,0,7,2,3,4,5,6",
            "--tfc-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let mut out = String::new();
        run(cmd, &mut out).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let circuit = rmrls_circuit::tfc::parse(&text).unwrap();
        assert_eq!(circuit.to_permutation(), vec![1, 0, 7, 2, 3, 4, 5, 6]);
    }
}
