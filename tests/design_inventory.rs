//! DESIGN.md §2 lists the workspace's crates. This test keeps that
//! table honest against the root `Cargo.toml`: every workspace member
//! (and the umbrella package at `/`) has exactly one row, and every
//! row names a member. The vendored stand-ins under `crates/compat/`
//! are covered by §6 instead and have no row.

const DESIGN: &str = include_str!("../DESIGN.md");
const MANIFEST: &str = include_str!("../Cargo.toml");

/// The `Path` column of the crate table in §2, one entry per row, in
/// order (duplicates kept).
fn inventory_paths(design: &str) -> Vec<String> {
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("2. "))
        .expect("DESIGN.md has a §2");
    let mut lines = section.lines().skip_while(|l| !l.starts_with("| Crate |"));
    assert!(lines.next().is_some(), "§2 has a `| Crate |` table");
    lines
        .skip(1) // the |---| separator
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cell = row.split('|').nth(2).expect("row has a Path cell");
            // "`crates/pprm`" or "`/` (umbrella)": the first code span.
            cell.split('`')
                .nth(1)
                .expect("Path cell is code")
                .to_string()
        })
        .collect()
}

/// Workspace member paths from `members = [...]`, plus `/` when the
/// root manifest is itself a package.
fn workspace_paths(manifest: &str) -> Vec<String> {
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root Cargo.toml lists workspace members")
        .0;
    let mut paths: Vec<String> = list
        .split(',')
        .map(|m| m.trim().trim_matches('"').to_string())
        .filter(|m| !m.is_empty())
        .collect();
    if manifest.lines().any(|l| l.trim() == "[package]") {
        paths.push("/".to_string());
    }
    paths
}

fn check(design: &str, manifest: &str) -> Result<(), String> {
    let rows = inventory_paths(design);
    let members: Vec<String> = workspace_paths(manifest)
        .into_iter()
        .filter(|m| !m.starts_with("crates/compat/"))
        .collect();
    for m in &members {
        let n = rows.iter().filter(|r| *r == m).count();
        if n != 1 {
            return Err(format!("member `{m}` has {n} rows in DESIGN §2"));
        }
    }
    for r in &rows {
        if !members.contains(r) {
            return Err(format!("DESIGN §2 row `{r}` is not a workspace member"));
        }
    }
    Ok(())
}

#[test]
fn design_inventory_matches_workspace_members() {
    check(DESIGN, MANIFEST).unwrap();
}

#[test]
fn design_inventory_check_catches_a_missing_row() {
    let row = DESIGN
        .lines()
        .find(|l| l.starts_with("| `rmrls-serve` |"))
        .expect("serve row");
    let without = DESIGN.replacen(&format!("{row}\n"), "", 1);
    let e = check(&without, MANIFEST).unwrap_err();
    assert!(e.contains("crates/serve"), "{e}");
}
