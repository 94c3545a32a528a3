//! End-to-end warm-start contract: a service saved with
//! [`QueryService::save_snapshot`] and rebooted with
//! [`QueryService::warm_start`] must answer the paper workload identically
//! to the service it was saved from — from the plan cache, without a
//! single re-optimization — at every validation level, and a snapshot with
//! damaged serving sections must be rejected, not half-loaded.

use std::sync::Arc;

use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_snapshot::{
    LoadError, SnapshotBuilder, SnapshotFile, ValidationLevel, SEC_CONSTRAINTS, SEC_PLANSEEDS,
};
use sqo_workload::{paper_scenario, DbSize};

/// A served scenario: the paper workload's first 16 queries answered once,
/// so the plan cache holds exactly the state the snapshot should persist.
fn served() -> (QueryService, Vec<Query>) {
    let s = paper_scenario(DbSize::Db1, 7);
    let service = QueryService::new(Arc::new(s.store), Arc::new(s.db));
    let queries: Vec<Query> = s.queries.into_iter().take(16).collect();
    for q in &queries {
        service.run(q).expect("cold run");
    }
    (service, queries)
}

#[test]
fn warm_start_replays_the_workload_from_the_cache() {
    let (cold, queries) = served();
    let cold_answers: Vec<_> = queries.iter().map(|q| cold.run(q).unwrap().results).collect();

    let path = std::env::temp_dir().join(format!("sqo_roundtrip_test_{}.sqos", std::process::id()));
    cold.save_snapshot(&path).expect("save");
    for level in [ValidationLevel::Standard, ValidationLevel::Strict, ValidationLevel::Audit] {
        let warm = QueryService::warm_start(&path, level, ServiceConfig::default())
            .unwrap_or_else(|e| panic!("warm start at {level:?}: {e}"));
        assert_eq!(warm.epoch(), cold.epoch(), "semantic epoch survives the trip");
        assert_eq!(
            warm.stats().data_epoch,
            cold.stats().data_epoch,
            "data epoch survives the trip"
        );
        for (q, want) in queries.iter().zip(&cold_answers) {
            let r = warm.run(q).unwrap();
            assert!(r.cache_hit, "warm service answers from the persisted cache at {level:?}");
            assert!(r.results.same_multiset(want), "warm answer differs at {level:?}");
        }
        assert_eq!(
            warm.stats().optimizations,
            0,
            "a warm start must never re-optimize the persisted workload ({level:?})"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Rebuilds the container with one serving section's payload replaced
/// (valid checksums, damaged content).
fn with_section(bytes: &[u8], replace: u32, payload: Option<Vec<u8>>) -> Vec<u8> {
    let file = SnapshotFile::parse(bytes).expect("good snapshot parses");
    let mut b = SnapshotBuilder::new();
    for (id, p) in file.sections() {
        if id == replace {
            if let Some(ref damaged) = payload {
                b.section(id, damaged.clone());
            }
        } else {
            b.section(id, p.to_vec());
        }
    }
    b.finish()
}

#[test]
fn damaged_serving_sections_are_rejected() {
    let (cold, _) = served();
    let bytes = cold.snapshot_bytes();

    let missing = with_section(&bytes, SEC_CONSTRAINTS, None);
    let err = QueryService::from_snapshot_bytes(
        &missing,
        ValidationLevel::Standard,
        ServiceConfig::default(),
    )
    .expect_err("a snapshot without CONSTRAINTS must not boot");
    assert!(
        matches!(err, LoadError::MissingSection("CONSTRAINTS")),
        "expected MissingSection(CONSTRAINTS), got {err:?}"
    );

    let garbled = with_section(&bytes, SEC_PLANSEEDS, Some(vec![0xfe; 9]));
    let err = QueryService::from_snapshot_bytes(
        &garbled,
        ValidationLevel::Standard,
        ServiceConfig::default(),
    )
    .expect_err("garbage plan seeds must not boot");
    assert!(
        matches!(err, LoadError::Malformed { .. }),
        "expected Malformed for garbled PLANSEEDS, got {err:?}"
    );

    // A snapshot may omit PLANSEEDS entirely (cold cache, warm data) —
    // that is a valid file, not a damaged one.
    let cacheless = with_section(&bytes, SEC_PLANSEEDS, None);
    let warm = QueryService::from_snapshot_bytes(
        &cacheless,
        ValidationLevel::Audit,
        ServiceConfig::default(),
    )
    .expect("PLANSEEDS is an optional section");
    assert_eq!(warm.epoch(), cold.epoch());
}

/// `save_snapshot` replaces the target atomically: saving over an existing
/// snapshot leaves exactly the target file behind (no temporary), and the
/// file boots.
#[test]
fn save_over_an_existing_snapshot_leaves_only_the_target() {
    let (service, queries) = served();
    let dir = std::env::temp_dir().join(format!("sqo_save_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("state.sqos");
    service.save_snapshot(&path).expect("first save");
    service.save_snapshot(&path).expect("save over the first");
    let left: Vec<_> =
        std::fs::read_dir(&dir).expect("list").map(|e| e.expect("entry").file_name()).collect();
    assert_eq!(left, ["state.sqos"], "the temporary file must not outlive the save");
    let warm = QueryService::warm_start(&path, ValidationLevel::Strict, ServiceConfig::default())
        .expect("the saved file boots");
    assert!(warm.run(&queries[0]).unwrap().cache_hit);
    std::fs::remove_dir_all(&dir).ok();
}

/// A save that cannot even create its temporary file reports `Io` and
/// creates nothing — in particular not the missing directory.
#[test]
fn save_into_a_missing_directory_fails_without_side_effects() {
    let (service, _) = served();
    let dir = std::env::temp_dir().join(format!("sqo_missing_dir_{}", std::process::id()));
    let err = service.save_snapshot(dir.join("state.sqos")).unwrap_err();
    assert!(matches!(err, LoadError::Io(_)), "{err:?}");
    assert!(!dir.exists());
}
