//! Fixture-file proof that every rule fires on seeded violations at the
//! expected lines — and stays silent on clean, idiomatic code. The
//! fixtures live under `tests/fixtures/` (never compiled; the workspace
//! walker skips `tests/` directories, so they cannot pollute the real
//! scan either).

use sqo_analyze::analyze_source;
use sqo_analyze::config::Config;
use sqo_analyze::findings::{Report, RuleId};

const ORDERING: &str = include_str!("fixtures/ordering_violations.rs");
const EPOCHS: &str = include_str!("fixtures/epoch_violations.rs");
const LOCKS: &str = include_str!("fixtures/lock_violations.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");

/// The fixture workspace facts: a two-lock hierarchy over the lock and
/// clean fixtures, and the module boundaries of the workspace's own `analyze.toml` — so
/// the fixture proves the committed continuation pattern fires.
fn fixture_config() -> Config {
    let mut cfg = Config::parse(
        r#"
[[locks.lock]]
name = "outer"
rank = 10
receivers = ["self.outer"]
files = ["lock_violations.rs", "clean.rs"]

[[locks.lock]]
name = "inner"
rank = 20
receivers = ["self.inner"]
files = ["lock_violations.rs", "clean.rs"]
"#,
    )
    .expect("fixture config parses");
    cfg.modules =
        Config::parse(include_str!("../../../analyze.toml")).expect("analyze.toml parses").modules;
    cfg
}

fn scan(file: &str, source: &str) -> Report {
    let mut report = Report::default();
    analyze_source(file, source, &fixture_config(), &mut report);
    report
}

fn lines_of(report: &Report, rule: RuleId) -> Vec<usize> {
    report.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn ordering_rule_fires_on_each_seeded_violation() {
    let report = scan("ordering_violations.rs", ORDERING);
    assert_eq!(
        lines_of(&report, RuleId::Ordering),
        vec![7, 20],
        "bare Relaxed and the aliased Acquire are the only violations: {:?}",
        report.findings
    );
    // The inventory records every site — justified, aliased, and test.
    assert_eq!(report.ordering_inventory.len(), 5, "{:?}", report.ordering_inventory);
    let test_site = report
        .ordering_inventory
        .iter()
        .find(|s| s.line == 36)
        .expect("the cfg(test) SeqCst is inventoried");
    assert!(test_site.in_test);
    assert!(report.ordering_inventory.iter().any(|s| s.line == 12 && s.justification.is_some()));
}

#[test]
fn epoch_rule_fires_on_arithmetic_and_forged_literals() {
    let report = scan("epoch_violations.rs", EPOCHS);
    assert_eq!(
        lines_of(&report, RuleId::Epoch),
        vec![3, 7],
        "raw epoch arithmetic and the struct literal only: {:?}",
        report.findings
    );
}

#[test]
fn lock_rules_fire_on_order_cross_and_unknown() {
    let report = scan("lock_violations.rs", LOCKS);
    assert_eq!(lines_of(&report, RuleId::LockOrder), vec![7], "{:?}", report.findings);
    assert_eq!(lines_of(&report, RuleId::LockCross), vec![31], "{:?}", report.findings);
    assert_eq!(lines_of(&report, RuleId::LockUnknown), vec![43], "{:?}", report.findings);
}

#[test]
fn clean_code_stays_silent_under_every_rule() {
    let report = scan("clean.rs", CLEAN);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    // Justified sites still land in the inventory.
    assert_eq!(report.ordering_inventory.len(), 4);
    assert!(report.ordering_inventory.iter().all(|s| s.justification.is_some()));
}
