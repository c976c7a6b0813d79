//! Pins the bytes the CLI prints: each command line below goes through
//! `run(parse_args(..))` and its output is compared with a committed
//! golden file under `tests/golden/`. Inputs live under `tests/data/`;
//! cargo runs integration tests from the package root, so the relative
//! paths (which the output echoes) are stable.
//!
//! A refactor of the CLI must leave every golden untouched.

use std::path::PathBuf;

use rmrls_cli::{parse_args, run};

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Runs one command line and returns what `rmrls` prints on stdout.
fn output(line: &str) -> String {
    let command = parse_args(args(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
    let mut out = String::new();
    run(command, &mut out).unwrap_or_else(|e| panic!("{line}: {e}"));
    out
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(format!("tests/golden/{name}"))
        .unwrap_or_else(|e| panic!("golden {name}: {e}"))
}

/// A fresh scratch directory for files a command writes.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmrls-cli-goldens-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_matches_golden() {
    assert_eq!(output("--help"), golden("help.txt"));
}

#[test]
fn synth_render_matches_golden() {
    // The `search:` line ends in the wall-clock time; mask it.
    let out: String = output("synth --spec 1,0,7,2,3,4,5,6 --render")
        .lines()
        .map(|l| match (l.starts_with("search: "), l.rfind(", ")) {
            (true, Some(at)) => format!("{}, <elapsed>\n", &l[..at]),
            _ => format!("{l}\n"),
        })
        .collect();
    assert_eq!(out, golden("synth_render.txt"));
}

#[test]
fn mmd_and_benchmarks_match_goldens() {
    assert_eq!(output("mmd --spec 7,0,1,2,3,4,5,6"), golden("mmd.txt"));
    assert_eq!(output("benchmarks"), golden("benchmarks.txt"));
}

#[test]
fn tfc_tools_match_goldens() {
    assert_eq!(
        output("info --tfc tests/data/cancel.tfc"),
        golden("info.txt")
    );
    assert_eq!(
        output("analyze --tfc tests/data/cancel.tfc"),
        golden("analyze.txt")
    );
    assert_eq!(
        output("simplify --tfc tests/data/cancel.tfc"),
        golden("simplify.txt")
    );

    // With --tfc-out the circuit goes to the file instead: the same
    // TFC text that the plain run prints after its summary line.
    let dir = scratch("simplify");
    let tfc_out = dir.join("out.tfc");
    let out = output(&format!(
        "simplify --tfc tests/data/cancel.tfc --tfc-out {}",
        tfc_out.to_str().unwrap()
    ));
    assert_eq!(
        out.replace(dir.to_str().unwrap(), "<out>"),
        golden("simplify_tfc_out.txt")
    );
    let printed = golden("simplify.txt");
    let (_, tfc_text) = printed.split_once('\n').unwrap();
    assert_eq!(std::fs::read_to_string(&tfc_out).unwrap(), tfc_text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn embed_matches_golden() {
    assert_eq!(
        output("embed --table tests/data/half_adder.tt --outputs 2"),
        golden("embed.txt")
    );
}

#[test]
fn trace_summary_and_chrome_export_match_goldens() {
    let dir = scratch("trace");
    let chrome = dir.join("chrome.json");
    let chrome = chrome.to_str().unwrap();
    let out = output(&format!(
        "trace --dump tests/data/ladder.anomaly.json --chrome-out {chrome}"
    ));
    assert_eq!(
        out.replace(dir.to_str().unwrap(), "<out>"),
        golden("trace.txt")
    );
    assert_eq!(
        std::fs::read_to_string(chrome).unwrap(),
        golden("trace.chrome.json")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_stats_and_fsck_on_a_fresh_store_match_goldens() {
    let dir = scratch("store");
    let store = dir.join("fresh.store");
    let store = store.to_str().unwrap();
    assert_eq!(
        output(&format!("store stats --store {store}")),
        golden("store_stats.txt")
    );
    assert_eq!(
        output(&format!("store fsck --store {store}")),
        golden("store_fsck.txt")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `parse_errors.txt` holds one bad command line per parse-error kind,
/// each as `ARGS => MESSAGE`.
#[test]
fn parse_errors_match_golden() {
    let text = golden("parse_errors.txt");
    let mut checked = 0;
    for line in text.lines() {
        let (cmd, want) = line.split_once(" => ").expect("ARGS => MESSAGE");
        match parse_args(args(cmd)) {
            Ok(c) => panic!("{cmd}: parsed as {c:?}, expected '{want}'"),
            Err(e) => assert_eq!(e.to_string(), want, "{cmd}"),
        }
        checked += 1;
    }
    assert!(checked > 0, "empty golden");
}
