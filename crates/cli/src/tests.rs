use super::*;
use rmrls_core::FlightRecorder;
use rmrls_obs::{RecorderSnapshot, TraceKind};

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
            engine,
            addr,
            queue,
            max_body_bytes,
            journal,
        } => {
            assert_eq!(addr, "127.0.0.1:0");
            assert_eq!(engine.jobs, None);
            assert_eq!(queue, 16);
            assert_eq!(engine.deadline, None);
            assert_eq!(engine.cache_size, Some(1024));
            assert_eq!(engine.canon_limit, 8);
            assert!(engine.verify);
            assert!(!engine.fallback);
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
            engine,
            addr,
            queue,
            max_body_bytes,
            journal,
        } => {
            assert_eq!(addr, "0.0.0.0:8791");
            assert_eq!(engine.jobs, Some(4));
            assert_eq!(queue, 2);
            assert_eq!(engine.deadline, Some(Duration::from_millis(500)));
            assert_eq!(engine.cache_size, None);
            assert!(engine.fallback);
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
    // Both ways: every flag the parser reads is in USAGE, and every
    // `--flag` USAGE names is one the parser reads.
    let named: std::collections::BTreeSet<&str> = USAGE
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    for (flag, _) in FLAG_READERS {
        assert!(named.contains(flag), "USAGE lacks {flag}");
    }
    for flag in named {
        assert!(
            FLAG_READERS.iter().any(|(f, _)| *f == flag),
            "USAGE names {flag}, which no subcommand reads"
        );
    }
}

#[test]
fn store_flag_and_subcommands_parse_and_are_scoped() {
    match parse(&["batch", "--suite", "examples", "--store", "c.store"]).unwrap() {
        Command::Batch { engine, .. } => assert_eq!(engine.store.as_deref(), Some("c.store")),
        other => panic!("{other:?}"),
    }
    match parse(&["serve", "--store", "c.store"]).unwrap() {
        Command::Serve { engine, .. } => assert_eq!(engine.store.as_deref(), Some("c.store")),
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
fn embed_bounds_each_completion_search_by_nodes() {
    // The 3-input ones count: without a node budget its four completion
    // searches ran exhaustively, for tens of seconds.
    let dir = std::env::temp_dir().join("rmrls-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ones3.tt");
    std::fs::write(&path, "0 1 1 2 1 2 2 3\n").unwrap();
    let cmd = parse(&["embed", "--table", path.to_str().unwrap(), "--outputs", "2"]).unwrap();
    let mut out = String::new();
    run(cmd, &mut out).unwrap();
    assert!(
        out.starts_with("embedding (HammingGreedyHighTies): 4 wires = 3 real + 1 constant inputs"),
        "{out}"
    );
    assert!(
        out.contains("\ngates: 5   quantum cost: 25   width: 4\n"),
        "{out}"
    );
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
fn embed_rejects_outputs_the_rows_do_not_fit() {
    let dir = std::env::temp_dir().join("rmrls-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("identity2.tt");
    std::fs::write(&path, "0 1 2 3\n").unwrap();
    let embed = |outputs: &str| {
        let cmd = parse(&[
            "embed",
            "--table",
            path.to_str().unwrap(),
            "--outputs",
            outputs,
        ]);
        run(cmd.unwrap(), &mut String::new()).map_err(|e| e.to_string())
    };
    // Errors (exit 1), not a panic in the truth-table constructor.
    assert_eq!(embed("1").unwrap_err(), "row 2 has more than 1 output bits");
    for outputs in ["0", "65", "70"] {
        assert_eq!(
            embed(outputs).unwrap_err(),
            "--outputs must be between 1 and 64"
        );
    }
    // Every row fits in 64 bits, but the embedding would be 64 wires
    // wide: refused before anything allocates 2^64 entries.
    assert_eq!(
        embed("64").unwrap_err(),
        "the embedding needs 64 wires; embed is limited to 16"
    );
    embed("2").unwrap();
}

#[test]
fn a_wall_clock_limit_must_be_a_finite_nonnegative_number() {
    for bad in ["-1", "NaN", "inf", "1e300"] {
        let e = parse(&["synth", "--spec", "0,1", "--time-limit", bad]).unwrap_err();
        assert_eq!(e.0, "bad --time-limit", "{bad}");
        let e = parse(&[
            "embed",
            "--table",
            "t",
            "--outputs",
            "1",
            "--time-limit",
            bad,
        ]);
        assert_eq!(e.unwrap_err().0, "bad --time-limit", "{bad}");
    }
    match parse(&["synth", "--spec", "0,1", "--time-limit", "0.5"]).unwrap() {
        Command::Synth { wall_clock, .. } => {
            assert_eq!(wall_clock, Some(Duration::from_millis(500)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_zero_wall_clock_limit_stops_synth_at_its_deadline() {
    let synth = |limit: &str| {
        let cmd = parse(&["synth", "--spec", "1,0,7,2,3,4,5,6", "--time-limit", limit]);
        run(cmd.unwrap(), &mut String::new()).map_err(|e| e.to_string())
    };
    let e = synth("0").unwrap_err();
    assert!(e.ends_with("stopped by deadline expired)"), "{e}");
    // A limit past what the clock can represent is no limit.
    synth("1e18").unwrap();
}

#[test]
fn batch_canon_limit_is_at_most_8() {
    let e = parse(&["batch", "--suite", "examples", "--canon-limit", "9"]).unwrap_err();
    assert_eq!(e.0, "--canon-limit must be at most 8");
    match parse(&["batch", "--suite", "examples", "--canon-limit", "8"]).unwrap() {
        Command::Batch { engine, .. } => assert_eq!(engine.canon_limit, 8),
        other => panic!("{other:?}"),
    }
}

#[test]
fn serve_canon_limit_is_at_most_8() {
    let e = parse(&["serve", "--canon-limit", "10"]).unwrap_err();
    assert_eq!(e.0, "--canon-limit must be at most 8");
    match parse(&["serve", "--canon-limit", "0"]).unwrap() {
        Command::Serve { engine, .. } => assert_eq!(engine.canon_limit, 0),
        other => panic!("{other:?}"),
    }
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
    let chrome_json = rmrls_obs::Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
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

    let report_json = rmrls_obs::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
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
    assert_eq!(json.get("schema_version").unwrap().as_u64(), Some(6));
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
            engine,
            results,
            report,
            trace_dir,
            strict,
            resume,
            metrics_addr,
        } => {
            assert_eq!(metrics_addr, None);
            assert_eq!(engine.store, None);
            assert_eq!(source, BatchSource::Suite("examples".into()));
            assert_eq!(engine.jobs, Some(4));
            assert_eq!(engine.deadline, Some(Duration::from_millis(250)));
            assert_eq!(engine.cache_size, Some(64));
            assert_eq!(engine.canon_limit, 6);
            assert!(!engine.verify);
            assert!(engine.fallback);
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
            engine,
            strict,
            resume,
            ..
        } => {
            assert_eq!(source, BatchSource::Manifest("jobs.txt".into()));
            assert_eq!(engine.jobs, None);
            assert_eq!(engine.cache_size, Some(1024));
            assert_eq!(engine.canon_limit, 8);
            assert!(engine.verify);
            assert!(!engine.fallback);
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
        Command::Batch { engine, .. } => assert_eq!(engine.cache_size, None),
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
    let store_cmd = |sub: &str| {
        let mut out = String::new();
        let status = run(
            parse(&["store", sub, "--store", store_arg]).unwrap(),
            &mut out,
        );
        (status, out)
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
    let (status, out) = store_cmd("stats");
    status.unwrap();
    let stats = rmrls_obs::Json::parse(out.trim()).unwrap();
    let entries = stats.get("entries").unwrap().as_u64().unwrap();
    assert!(entries > 0);
    assert_eq!(stats.get("quarantined_records").unwrap().as_u64(), Some(0));
    store_cmd("fsck").0.expect("clean store passes fsck");

    // Flip one byte inside the first record's payload: fsck reports
    // exactly that record quarantined (nonzero exit) and preserves
    // the rest; a batch run degrades to a warning, not a failure.
    let mut bytes = std::fs::read(&store).unwrap();
    let payload_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1 + 15;
    bytes[payload_at] ^= 0xff;
    std::fs::write(&store, &bytes).unwrap();
    let (status, out) = store_cmd("fsck");
    let fsck_err = status.expect_err("fsck must exit nonzero on damage");
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
    let (status, out) = store_cmd("compact");
    status.unwrap();
    assert!(out.contains("compacted"), "{out}");
    let (status, out) = store_cmd("fsck");
    status.expect("compacted store passes fsck");
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
