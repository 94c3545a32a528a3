//! Self-test: the committed workspace passes its own analyzer in deny
//! mode. This is the same check CI runs (`cargo run -p sqo-analyze --
//! --deny`), wired into `cargo test` so a violation cannot land even on
//! machines that only run the test suite. `docs/ANALYSIS.md`'s ordering
//! inventory is held to what the analyzer generates.

use std::path::Path;

#[test]
fn workspace_is_deny_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sqo_analyze::run(&root).expect("workspace analysis runs");
    assert!(
        report.findings.is_empty(),
        "the workspace must be deny-clean; found:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 50, "walker saw the whole workspace: {}", report.files_scanned);
}

/// Every non-test ordering site in the engine carries a justification,
/// and the inventory sees the whole atomic surface.
#[test]
fn ordering_inventory_is_fully_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sqo_analyze::run(&root).expect("workspace analysis runs");
    let (justified, total) = report
        .ordering_inventory
        .iter()
        .filter(|s| !s.in_test)
        .fold((0usize, 0usize), |(j, t), s| (j + usize::from(s.justification.is_some()), t + 1));
    assert_eq!(justified, total, "unjustified ordering sites exist");
    assert!(total >= 50, "the engine's ordering surface is inventoried: {total}");
}

/// `docs/ANALYSIS.md`'s ordering inventory is exactly what
/// `cargo run -p sqo-analyze -- --inventory` prints for the workspace, with
/// the site count above it. A change that moves, adds or removes an
/// ordering site regenerates the table in the same commit.
#[test]
fn ordering_inventory_table_matches_the_docs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sqo_analyze::run(&root).expect("workspace analysis runs");
    let doc = std::fs::read_to_string(root.join("docs/ANALYSIS.md")).expect("docs/ANALYSIS.md");
    let inventory = doc.split("## Ordering inventory").nth(1).expect("an inventory section");
    let table: String = inventory
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        table,
        report.inventory_markdown(),
        "regenerate the table with `cargo run -p sqo-analyze -- --inventory`"
    );
    let sites = report.ordering_inventory.iter().filter(|s| !s.in_test);
    let (total, justified) =
        sites.fold((0, 0), |(t, j), s| (t + 1, j + usize::from(s.justification.is_some())));
    let count = format!("{total} sites, {justified} justified.");
    assert!(inventory.contains(&count), "the inventory's heading states `{count}`");
}
