//! Self-test: the committed workspace passes its own analyzer in deny
//! mode. This is the same check CI runs (`cargo run -p sqo-analyze --
//! --deny`), wired into `cargo test` so a violation cannot land even on
//! machines that only run the test suite.

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
