//! Statistics are what the profitability test costs plans with, so a change
//! to how they are computed must not change them. `fixtures/
//! db1_seed42_pr13.sqos` is the paper's DB1 (`paper_scenario(DbSize::Db1,
//! 42)`) as saved by the last build that derived most-common values by
//! sorting every distinct value by its rendering. It is a `.sqos` version 1
//! file, which a load refuses; its STATS payload is read here by a
//! test-local v1 reader. `fixtures/db1_seed42_v4.sqos` is the same database
//! as the version 4 encoder writes it, and pins the v4 bytes.

use sqo::catalog::{AttrStats, ClassStats, RelStats, StatsSnapshot, Value};
use sqo::storage::{encode_database, load_database};
use sqo::workload::{paper_scenario, DbSize};
use sqo_snapshot::{
    read_value, ByteReader, LoadError, SnapshotFile, ValidationLevel, FORMAT_VERSION, SEC_STATS,
};

const V1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/db1_seed42_pr13.sqos");
const V4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/db1_seed42_v4.sqos");

/// A version 1 STATS payload: the class count, then per class its
/// cardinality and attribute count, per attribute its rows, distinct count,
/// optional min and max, MCV list (values tagged with their type) and a
/// histogram length that is always 0;
/// then the relationship count and per relationship its link count and two
/// average fan-outs.
fn read_v1_stats(payload: &[u8]) -> StatsSnapshot {
    let mut r = ByteReader::new(payload, "STATS");
    let option = |r: &mut ByteReader<'_>| match r.u8().unwrap() {
        0 => None,
        _ => Some(read_value(r).unwrap()),
    };
    let classes = (0..r.u32().unwrap())
        .map(|_| {
            let cardinality = r.u64().unwrap();
            let attrs = (0..r.u32().unwrap())
                .map(|_| {
                    let (rows, distinct) = (r.u64().unwrap(), r.u64().unwrap());
                    let (min, max) = (option(&mut r), option(&mut r));
                    let mcvs = (0..r.u32().unwrap())
                        .map(|_| (read_value(&mut r).unwrap(), r.u64().unwrap()))
                        .collect();
                    assert_eq!(r.u32().unwrap(), 0, "no histogram bucket");
                    AttrStats { rows, distinct, min, max, mcvs }
                })
                .collect();
            ClassStats { cardinality, attrs }
        })
        .collect();
    let relationships = (0..r.u32().unwrap())
        .map(|_| RelStats {
            links: r.u64().unwrap(),
            avg_left_fanout: r.f64().unwrap(),
            avg_right_fanout: r.f64().unwrap(),
        })
        .collect();
    r.expect_exhausted().unwrap();
    StatsSnapshot { classes, relationships }
}

/// The older file is version 1, which a load refuses. The statistics it
/// persisted, read with the v1 layout, are exactly what today's generator
/// and statistics code produce for the same database.
#[test]
fn db1_statistics_equal_the_ones_pr13_persisted() {
    assert_eq!(
        load_database(V1, ValidationLevel::Standard).unwrap_err(),
        LoadError::UnsupportedVersion(1)
    );
    let mut bytes = std::fs::read(V1).expect("read the fixture");
    // The header is not checksummed: with its version patched, the v1
    // container parses and each payload checks against its checksum.
    bytes[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    let file = SnapshotFile::parse(&bytes).expect("the v1 container parses");
    let persisted = read_v1_stats(file.section(SEC_STATS).expect("a STATS section"));
    let generated = paper_scenario(DbSize::Db1, 42).db;
    assert_eq!(generated.stats(), &persisted);

    // Spot checks that pin the tie-break, not just self-consistency:
    // `cargo.a3` has 52 values once each, so its list is the three smallest
    // *renderings* ("128" < "18" < "189"), and `supplier.a3` orders two
    // counts of 2 the same way before the first count of 1.
    let catalog = generated.catalog();
    let mcvs = |attr: &str| {
        let (class, attr) = attr.split_once('.').expect("class.attr");
        let stats = persisted.attr(catalog.attr_ref(class, attr).expect("attribute"));
        stats.expect("statistics").mcvs.clone()
    };
    let ints = |list: [(i64, u64); 3]| list.map(|(v, c)| (Value::Int(v), c)).to_vec();
    assert_eq!(mcvs("cargo.a3"), ints([(128, 1), (18, 1), (189, 1)]));
    assert_eq!(mcvs("supplier.a3"), ints([(509, 2), (93, 2), (100, 1)]));
    assert_eq!(mcvs("supplier.key"), ints([(0, 1), (1, 1), (10, 1)]));
}

/// The `.sqos` v4 bytes have not moved: today's encoder writes the
/// committed v4 file from the generated DB1 and from the database loaded
/// from that file, whose statistics equal a rescan of its extents.
#[test]
fn db1_encodes_to_the_v4_fixture() {
    let fixture = std::fs::read(V4).expect("read the fixture");
    let generated = paper_scenario(DbSize::Db1, 42).db;
    assert!(encode_database(&generated) == fixture, "the generated DB1 encodes differently");
    let loaded = load_database(V4, ValidationLevel::Standard).expect("the v4 fixture loads");
    assert_eq!(loaded.stats(), generated.stats());
    assert_eq!(loaded.stats(), &loaded.rebuild_statistics());
    assert!(encode_database(&loaded) == fixture, "the loaded DB1 encodes differently");
}
