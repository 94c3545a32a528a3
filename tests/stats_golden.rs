//! Statistics are what the profitability test costs plans with, so a change
//! to how they are computed must not change them. `fixtures/
//! db1_seed42_pr13.sqos` is the paper's DB1 (`paper_scenario(DbSize::Db1,
//! 42)`) as saved by the commit of PR 13, the last one that derived
//! most-common values by sorting every distinct value by its rendering. It
//! also predates the move of both index kinds and the value counts into one
//! ordered map (PR 19), so the same file pins the `.sqos` v1 bytes.

use sqo::catalog::Value;
use sqo::storage::{encode_database, load_database};
use sqo::workload::{paper_scenario, DbSize};
use sqo_snapshot::ValidationLevel;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/db1_seed42_pr13.sqos");

/// The old snapshot loads — which checks every index against the extents —
/// its persisted statistics equal a rescan of the loaded extents, and
/// today's generator and loader produce that same `StatsSnapshot`.
#[test]
fn db1_statistics_equal_the_ones_pr13_persisted() {
    let persisted =
        load_database(FIXTURE, ValidationLevel::Standard).expect("PR 13's snapshot loads");
    let generated = paper_scenario(DbSize::Db1, 42).db;
    assert_eq!(generated.stats(), persisted.stats());
    assert_eq!(persisted.stats(), &persisted.rebuild_statistics());
    // `.sqos` v1 has not moved either: today's encoder writes PR 13's bytes,
    // from the generated database and from the one it loaded.
    let fixture = std::fs::read(FIXTURE).expect("read the fixture");
    assert!(encode_database(&generated) == fixture, "the generated DB1 encodes differently");
    assert!(encode_database(&persisted) == fixture, "the loaded DB1 encodes differently");

    // Spot checks that pin the tie-break, not just self-consistency:
    // `cargo.a3` has 52 values once each, so its list is the three smallest
    // *renderings* ("128" < "18" < "189"), and `supplier.a3` orders two
    // counts of 2 the same way before the first count of 1.
    let catalog = persisted.catalog();
    let mcvs = |attr: &str| {
        let (class, attr) = attr.split_once('.').expect("class.attr");
        let stats = persisted.stats().attr(catalog.attr_ref(class, attr).expect("attribute"));
        stats.expect("statistics").mcvs.clone()
    };
    let ints = |list: [(i64, u64); 3]| list.map(|(v, c)| (Value::Int(v), c)).to_vec();
    assert_eq!(mcvs("cargo.a3"), ints([(128, 1), (18, 1), (189, 1)]));
    assert_eq!(mcvs("supplier.a3"), ints([(509, 2), (93, 2), (100, 1)]));
    assert_eq!(mcvs("supplier.key"), ints([(0, 1), (1, 1), (10, 1)]));
}
