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
//! are unit-testable; `main.rs` is a thin wrapper. [`parse_args`] checks
//! every flag against one table before the subcommand's builder reads
//! it; [`run`] dispatches to one module per subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

use std::error::Error;
use std::fmt::{self, Write};
use std::str::FromStr;
use std::time::Duration;

use rmrls_circuit::{tfc, Circuit};
use rmrls_core::{FredkinMode, Pruning};
use rmrls_pprm::MultiPprm;
use rmrls_spec::{benchmarks, Permutation};

mod batch;
mod serve;
mod store;
mod synth;
mod tools;
mod trace;

pub use batch::EngineFlags;

/// A usage or input error, printed to stderr (exit code 2 from
/// [`parse_args`], 1 from [`run`]).
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

impl From<fmt::Error> for CliError {
    fn from(e: fmt::Error) -> CliError {
        CliError(e.to_string())
    }
}

/// What every fallible step of the CLI returns.
type CliResult<T = ()> = Result<T, CliError>;

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
                      (tier escalation, deadline, cancellation, panic,
                      store or journal append failure, injected fault)
                      also write <index>-<job>.anomaly.json
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
    pub fn resolve(&self) -> CliResult<(MultiPprm, String)> {
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
                let circuit = load_tfc(path)?;
                if circuit.width() > EXPLICIT_WIRES {
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
        /// Wall-clock budget: the search's deadline is this long after
        /// it starts.
        wall_clock: Option<Duration>,
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
        /// Stream search events as JSON lines to this file (`-` = stderr).
        log_json: Option<String>,
        /// Write the flight-recorder dump (JSON) to this file.
        trace: Option<String>,
        /// Write a Chrome trace-event JSON export to this file.
        trace_out: Option<String>,
        /// Write a Prometheus text exposition of metrics to this file.
        metrics_out: Option<String>,
        /// Serve live telemetry over HTTP at this address while the search runs.
        metrics_addr: Option<String>,
    },
    /// `rmrls batch`.
    Batch {
        /// Job list: a manifest file or a bundled suite.
        source: BatchSource,
        /// Worker pool, deadline, cache, verification, ladder and store.
        engine: EngineFlags,
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
        /// Serve live telemetry over HTTP at this address during the run.
        metrics_addr: Option<String>,
    },
    /// `rmrls serve`.
    Serve {
        /// Worker pool, default deadline, cache, verification, ladder and store.
        engine: EngineFlags,
        /// Listen address (`host:0` binds a free port, announced on stderr).
        addr: String,
        /// Admission-queue depth; beyond it requests are shed with 429.
        queue: usize,
        /// Largest accepted request body in bytes.
        max_body_bytes: usize,
        /// Request-journal path enabling crash recovery.
        journal: Option<String>,
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
        /// Wall-clock budget shared by the portfolio's searches.
        wall_clock: Option<Duration>,
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

/// Every flag: whether it takes a value, and the subcommands that read
/// it. A flag given to any other subcommand is rejected instead of
/// silently ignored.
const FLAG_READERS: &[(&str, (bool, &[&str]))] = &[
    ("--spec", (VALUE, &["synth", "mmd"])),
    ("--benchmark", (VALUE, &["synth", "mmd"])),
    (
        "--tfc",
        (VALUE, &["synth", "mmd", "info", "analyze", "simplify"]),
    ),
    ("--spec-file", (VALUE, &["synth", "mmd"])),
    ("--pruning", (VALUE, &["synth"])),
    ("--time-limit", (VALUE, &["synth", "embed"])),
    ("--max-gates", (VALUE, &["synth"])),
    ("--simplify", (SWITCH, &["synth"])),
    ("--render", (SWITCH, &["synth"])),
    ("--tfc-out", (VALUE, &["synth", "simplify"])),
    ("--real-out", (VALUE, &["synth"])),
    ("--uni", (SWITCH, &["mmd"])),
    ("--bidi", (SWITCH, &["synth"])),
    ("--fredkin", (VALUE, &["synth"])),
    ("--table", (VALUE, &["embed"])),
    ("--outputs", (VALUE, &["embed"])),
    ("--report", (VALUE, &["synth", "batch"])),
    ("--progress", (SWITCH, &["synth"])),
    ("--log-json", (VALUE, &["synth"])),
    ("--trace", (VALUE, &["synth", "batch"])),
    ("--trace-out", (VALUE, &["synth"])),
    ("--metrics-out", (VALUE, &["synth"])),
    ("--metrics-addr", (VALUE, &["synth", "batch"])),
    ("--manifest", (VALUE, &["batch"])),
    ("--suite", (VALUE, &["batch"])),
    ("--jobs", (VALUE, &["batch", "serve"])),
    ("--deadline-ms", (VALUE, &["batch", "serve"])),
    ("--cache-size", (VALUE, &["batch", "serve"])),
    ("--no-cache", (SWITCH, &["batch", "serve"])),
    ("--canon-limit", (VALUE, &["batch", "serve"])),
    ("--no-verify", (SWITCH, &["batch", "serve"])),
    ("--fallback", (SWITCH, &["batch", "serve"])),
    ("--results", (VALUE, &["batch"])),
    ("--resume", (VALUE, &["batch"])),
    ("--strict", (SWITCH, &["batch"])),
    ("--addr", (VALUE, &["serve"])),
    ("--queue", (VALUE, &["serve"])),
    ("--max-body-bytes", (VALUE, &["serve"])),
    ("--journal", (VALUE, &["serve"])),
    ("--store", (VALUE, &["batch", "serve", "store"])),
    ("--dump", (VALUE, &["trace"])),
    ("--chrome-out", (VALUE, &["trace"])),
];

/// Marks a flag that is followed by a value.
const VALUE: bool = true;
/// Marks a flag that stands alone.
const SWITCH: bool = false;

/// A command line's flags in order, with values (`None` for a switch).
/// The accessors check every occurrence of a flag and use the last.
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    /// Reads the arguments after subcommand `cmd`, rejecting an unknown
    /// flag, a flag `cmd` does not read, or a missing value.
    fn scan(cmd: &str, mut args: impl Iterator<Item = String>) -> CliResult<Flags> {
        let mut seen = Vec::new();
        while let Some(arg) = args.next() {
            let Some((name, (takes_value, readers))) =
                FLAG_READERS.iter().find(|(name, _)| *name == arg)
            else {
                return Err(err(format!("unknown argument '{arg}'")));
            };
            if !readers.contains(&cmd) {
                return Err(err(format!("'{arg}' does not apply to '{cmd}'")));
            }
            let value = if *takes_value {
                Some(
                    args.next()
                        .ok_or_else(|| err(format!("{name} needs a value")))?,
                )
            } else {
                None
            };
            seen.push((*name, value));
        }
        Ok(Flags(seen))
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`.
    fn string(&self, flag: &str) -> Option<String> {
        let mut given = self.0.iter().rev().filter(|(name, _)| *name == flag);
        given.next().and_then(|(_, v)| v.clone())
    }

    /// The value of a flag the subcommand cannot run without.
    fn required(&self, flag: &str, missing: &str) -> CliResult<String> {
        self.string(flag).ok_or_else(|| err(missing))
    }

    /// Every value given for `flag` read by `parse`, the last one kept.
    fn parse_with<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> CliResult<T>,
    ) -> CliResult<Option<T>> {
        let mut last = None;
        for (_, v) in self.0.iter().filter(|(name, _)| *name == flag) {
            last = Some(parse(v.as_deref().unwrap_or_default())?);
        }
        Ok(last)
    }

    /// A number; one that does not parse is `bad {flag}`.
    fn number<T: FromStr>(&self, flag: &str) -> CliResult<Option<T>> {
        self.parse_with(flag, |v| v.parse().map_err(|_| err(format!("bad {flag}"))))
    }

    /// A number that must be at least 1.
    fn count(&self, flag: &str) -> CliResult<Option<usize>> {
        self.parse_with(flag, |v| match v.parse::<usize>() {
            Ok(0) => Err(err(format!("{flag} must be at least 1"))),
            n => n.map_err(|_| err(format!("bad {flag}"))),
        })
    }

    /// A duration in (fractional) seconds.
    fn seconds(&self, flag: &str) -> CliResult<Option<Duration>> {
        self.parse_with(flag, |v| {
            let secs = v
                .parse()
                .ok()
                .and_then(|s| Duration::try_from_secs_f64(s).ok());
            secs.ok_or_else(|| err(format!("bad {flag}")))
        })
    }

    /// The specification given by exactly one of the four source flags.
    fn spec_source(&self) -> CliResult<SpecSource> {
        let sources = ["--spec", "--benchmark", "--tfc", "--spec-file"].map(|f| self.string(f));
        match sources {
            [Some(s), None, None, None] => Ok(SpecSource::Inline(s)),
            [None, Some(b), None, None] => Ok(SpecSource::Benchmark(b)),
            [None, None, Some(t), None] => Ok(SpecSource::Tfc(t)),
            [None, None, None, Some(p)] => Ok(SpecSource::PermFile(p)),
            _ => Err(err(
                "provide exactly one of --spec, --benchmark, --tfc, --spec-file",
            )),
        }
    }
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or conflicting
/// sources.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> CliResult<Command> {
    let mut args = args.into_iter();
    let cmd = match args.next() {
        Some(cmd) if !matches!(cmd.as_str(), "--help" | "-h" | "help") => cmd,
        _ => return Ok(Command::Help),
    };
    if cmd == "store" {
        return store::parse(args);
    }
    let flags = Flags::scan(&cmd, args)?;
    let tfc_path = |sub: &str| flags.required("--tfc", &format!("{sub} needs --tfc FILE"));
    match cmd.as_str() {
        "synth" => synth::parse(&flags),
        "batch" => batch::parse(&flags),
        "serve" => serve::parse(&flags),
        "trace" => Ok(Command::Trace {
            dump: flags.required("--dump", "trace needs --dump FILE")?,
            chrome_out: flags.string("--chrome-out"),
        }),
        "mmd" => Ok(Command::Mmd {
            source: flags.spec_source()?,
            unidirectional: flags.has("--uni"),
        }),
        "info" => Ok(Command::Info {
            tfc_path: tfc_path("info")?,
        }),
        "analyze" => Ok(Command::Analyze {
            tfc_path: tfc_path("analyze")?,
        }),
        "simplify" => Ok(Command::Simplify {
            tfc_path: tfc_path("simplify")?,
            tfc_out: flags.string("--tfc-out"),
        }),
        "embed" => {
            let outputs = flags.number("--outputs")?;
            let wall_clock = flags.seconds("--time-limit")?;
            Ok(Command::Embed {
                table_path: flags.required("--table", "embed needs --table FILE")?,
                outputs: outputs.ok_or_else(|| err("embed needs --outputs N"))?,
                wall_clock,
            })
        }
        "benchmarks" => Ok(Command::Benchmarks),
        other => Err(err(format!("unknown command '{other}'"))),
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on input errors or failed synthesis.
pub fn run(command: Command, out: &mut impl Write) -> CliResult {
    // Fault injection (no-op unless built with `--features failpoints`
    // *and* RMRLS_FAILPOINTS is set) — armed before any work starts so
    // the CI fault matrix covers the whole run.
    rmrls_obs::fail::configure_from_env().map_err(err)?;
    match command {
        Command::Help => Ok(out.write_str(USAGE)?),
        Command::Benchmarks => tools::run_benchmarks(out),
        Command::Synth { .. } => synth::run_synth(command, out),
        Command::Batch { .. } => batch::run_batch(command, out),
        Command::Serve { .. } => serve::run_serve(command, out),
        Command::Store { action, store } => store::run_store(action, &store, out),
        Command::Trace { dump, chrome_out } => trace::run_trace(&dump, chrome_out.as_deref(), out),
        Command::Mmd {
            source,
            unidirectional,
        } => tools::run_mmd(&source, unidirectional, out),
        Command::Embed {
            table_path,
            outputs,
            wall_clock,
        } => tools::run_embed(&table_path, outputs, wall_clock, out),
        Command::Info { tfc_path } => tools::run_info(&tfc_path, out),
        Command::Analyze { tfc_path } => tools::run_analyze(&tfc_path, out),
        Command::Simplify { tfc_path, tfc_out } => {
            tools::run_simplify(&tfc_path, tfc_out.as_deref(), out)
        }
    }
}

/// Prints the specification's name, the circuit and its costs.
fn report(circuit: &Circuit, name: &str, out: &mut dyn Write) -> fmt::Result {
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

/// Writes `contents` to `path` atomically and reports `wrote {path}`.
fn write_file(out: &mut dyn Write, path: &str, contents: &str) -> CliResult {
    rmrls_engine::write_atomic(path, contents).map_err(CliError)?;
    writeln!(out, "wrote {path}")?;
    Ok(())
}

/// With `--metrics-addr`, a live board over `jobs` served until dropped;
/// the address goes to stderr, where a scraper finds an ephemeral port.
fn live_board(
    addr: Option<&str>,
    jobs: impl FnOnce() -> Vec<String>,
) -> CliResult<
    Option<(
        std::sync::Arc<rmrls_engine::BatchTelemetry>,
        rmrls_telemetry::HttpServer,
    )>,
> {
    let Some(addr) = addr else {
        return Ok(None);
    };
    let telemetry = std::sync::Arc::new(rmrls_engine::BatchTelemetry::new(jobs()));
    let server = rmrls_serve::serve_board(addr, telemetry.clone())
        .map_err(|e| err(format!("cannot bind --metrics-addr {addr}: {e}")))?;
    eprintln!("telemetry: serving http://{}/metrics", server.local_addr());
    Ok(Some((telemetry, server)))
}

/// The widest specification handled as an explicit table: `mmd`, `--bidi`,
/// TFC re-synthesis and the `embed` embedding.
const EXPLICIT_WIRES: usize = 16;

/// The spec as an explicit table (at most 16 wires, else `too_wide`).
fn explicit_permutation(pprm: &MultiPprm, too_wide: &str) -> CliResult<Permutation> {
    if pprm.num_vars() > EXPLICIT_WIRES {
        return Err(err(too_wide));
    }
    Permutation::from_vec(pprm.to_permutation())
        .map_err(|e| err(format!("specification is not reversible: {e}")))
}

fn load_tfc(path: &str) -> CliResult<Circuit> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    tfc::parse(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))
}

#[cfg(test)]
mod tests;
