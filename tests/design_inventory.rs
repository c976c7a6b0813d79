//! DESIGN.md §2 lists the workspace's crates and, below them, the
//! modules beyond the core pipeline. This test keeps both tables honest.
//! The crate table follows the root `Cargo.toml`: every workspace
//! member (and the umbrella package at `/`) has exactly one row, and
//! every row names a member. The vendored stand-ins under
//! `crates/compat/` are covered by §6 instead and have no row. Every
//! row of the module table names a module that its crate's `lib.rs`
//! declares, and every module a crate's `lib.rs` declares (test modules
//! aside) has a row.

const DESIGN: &str = include_str!("../DESIGN.md");
const MANIFEST: &str = include_str!("../Cargo.toml");

/// The `Path` column of the crate table in §2, one entry per row, in
/// order (duplicates kept).
fn inventory_paths(design: &str) -> Vec<String> {
    table_rows(design, "| Crate |")
        .into_iter()
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

/// The body rows of the §2 table whose header row starts with `header`.
fn table_rows<'a>(design: &'a str, header: &str) -> Vec<&'a str> {
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("2. "))
        .expect("DESIGN.md has a §2");
    let mut lines = section.lines().skip_while(|l| !l.starts_with(header));
    assert!(lines.next().is_some(), "§2 has a `{header}` table");
    lines
        .skip(1) // the |---| separator
        .take_while(|l| l.starts_with('|'))
        .collect()
}

/// `(module, crate)` for every row of the §2 module table, the module
/// cut to its first `::` segment (`benchmarks::extended_suite` names
/// the `benchmarks` module of `spec`).
fn module_rows(design: &str) -> Vec<(String, String)> {
    table_rows(design, "| Module |")
        .into_iter()
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let module = cells[1].trim_matches('`');
            let module = module.split_once("::").map_or(module, |(head, _)| head);
            (module.to_string(), cells[2].to_string())
        })
        .collect()
}

/// The modules `lib_rs` declares (`mod m;`, `pub mod m;`,
/// `pub(crate) mod m { .. }`, ...).
fn declared_modules(lib_rs: &str) -> Vec<&str> {
    lib_rs
        .lines()
        .filter_map(|line| {
            let line = line.trim_start();
            let line = line.strip_prefix("pub(crate) ").unwrap_or(line);
            let line = line.strip_prefix("pub ").unwrap_or(line);
            let rest = line.strip_prefix("mod ")?;
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
            let (module, tail) = rest.split_at(end);
            (tail.starts_with(';') || tail.starts_with(" {")).then_some(module)
        })
        .collect()
}

/// The `lib.rs` of workspace crate `crates/<name>`, if there is one.
fn lib_rs(name: &str) -> Option<String> {
    let path = format!("{}/crates/{name}/src/lib.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).ok()
}

fn check_modules(design: &str) -> Result<(), String> {
    let rows = module_rows(design);
    if rows.is_empty() {
        return Err("DESIGN §2 module table has no rows".to_string());
    }
    for (module, krate) in &rows {
        let source = lib_rs(krate)
            .ok_or_else(|| format!("DESIGN §2 module row `{module}`: no crate `{krate}`"))?;
        if !declared_modules(&source).contains(&module.as_str()) {
            return Err(format!(
                "DESIGN §2 module row `{module}` is not a module of crates/{krate}"
            ));
        }
    }
    for member in workspace_paths(MANIFEST) {
        let Some(krate) = member
            .strip_prefix("crates/")
            .filter(|k| !k.starts_with("compat/"))
        else {
            continue;
        };
        let Some(source) = lib_rs(krate) else {
            continue;
        };
        for module in declared_modules(&source) {
            let listed = rows.iter().any(|(m, k)| m == module && k == krate);
            if module != "tests" && !listed {
                return Err(format!(
                    "module `{module}` of crates/{krate} has no row in DESIGN §2"
                ));
            }
        }
    }
    Ok(())
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

#[test]
fn design_module_rows_name_declared_modules() {
    check_modules(DESIGN).unwrap();
}

#[test]
fn design_module_check_catches_a_misspelled_row() {
    let row = DESIGN
        .lines()
        .find(|l| l.starts_with("| `canon` | engine |"))
        .expect("canon row");
    let misspelled = DESIGN.replacen(row, &row.replacen("`canon`", "`canonn`", 1), 1);
    let e = check_modules(&misspelled).unwrap_err();
    assert!(e.contains("`canonn`"), "{e}");
    // A row naming a crate that does not exist is caught too.
    let wrong_crate = DESIGN.replacen(row, &row.replacen("| engine |", "| engin |", 1), 1);
    let e = check_modules(&wrong_crate).unwrap_err();
    assert!(e.contains("`engin`"), "{e}");
}

#[test]
fn design_module_check_catches_a_missing_row() {
    let row = DESIGN
        .lines()
        .find(|l| l.starts_with("| `fsutil` | engine |"))
        .expect("fsutil row");
    let without = DESIGN.replacen(&format!("{row}\n"), "", 1);
    let e = check_modules(&without).unwrap_err();
    assert_eq!(
        e,
        "module `fsutil` of crates/engine has no row in DESIGN §2"
    );
}
