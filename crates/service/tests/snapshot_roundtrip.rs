//! End-to-end warm-start contract: a service saved with
//! [`QueryService::save_snapshot`] and rebooted with
//! [`QueryService::warm_start`] must answer the paper workload identically
//! to the service it was saved from — from the plan cache, without a
//! single re-optimization — at both validation levels, and a snapshot with
//! damaged serving sections must be rejected, not half-loaded. Every
//! snapshot a service writes, before or after it takes changes, reloads at
//! Standard.

use std::sync::Arc;

use sqo_exec::PhysicalPlan;
use sqo_query::{Query, QueryFingerprint};
use sqo_service::{
    decode_plan_seeds, encode_plan_seeds, CacheEntry, PlanSeed, QueryService, ServiceConfig,
};
use sqo_snapshot::{
    section_name, LoadError, SnapshotBuilder, SnapshotFile, ValidationLevel, EPOCH_LIMIT,
    SEC_CONSTRAINTS, SEC_EXTENTS, SEC_PLANSEEDS,
};
use sqo_storage::{DataWrite, ObjectId};
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

/// What a service writes, its own loader admits.
fn assert_reloads(service: &QueryService) {
    let bytes = service.snapshot_bytes();
    QueryService::from_snapshot_bytes(&bytes, ValidationLevel::Standard, ServiceConfig::default())
        .unwrap_or_else(|e| panic!("a snapshot the service wrote does not reload: {e}"));
}

/// Applies a constraint, a statistics change and a data write to
/// `service` in turn, requiring each to go in and advance its epoch, and
/// calls `after_each` after each one.
fn take_changes(service: &QueryService, after_each: impl Fn(&QueryService)) {
    let dup = service.store().constraint(sqo_constraints::ConstraintId(0)).clone();
    let epoch = service.add_constraint(dup).expect("a constraint goes in");
    after_each(service);
    assert!(service.note_statistics_change() > epoch);
    after_each(service);
    let db = service.db();
    let (class, _) = db.catalog().classes().next().expect("a class");
    let value = db.tuple(class, ObjectId(0)).expect("an object")[0].clone();
    let attr = sqo_catalog::AttrId(0);
    let update = DataWrite::Update { class, object: ObjectId(0), attr, value };
    let written = service.write(&[update]).expect("a write goes in");
    assert!(written.epoch > db.data_version());
    after_each(service);
}

#[test]
fn warm_start_replays_the_workload_from_the_cache() {
    let (cold, queries) = served();
    let cold_answers: Vec<_> = queries.iter().map(|q| cold.run(q).unwrap().results).collect();

    let path = std::env::temp_dir().join(format!("sqo_roundtrip_test_{}.sqos", std::process::id()));
    cold.save_snapshot(&path).expect("save");
    for level in [ValidationLevel::Standard, ValidationLevel::Audit] {
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
        assert_reloads(&warm);
        take_changes(&warm, assert_reloads);
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

/// Both epochs a snapshot carries, the CONSTRAINTS store epoch and the
/// EXTENTS data epoch, lead their payloads, and every change to a loaded
/// service adds one to one of them. At or above [`EPOCH_LIMIT`] a load is
/// refused at every level, so no later change can overflow; at the largest
/// accepted epoch a constraint, a statistics change and a write all
/// advance. (Their snapshots are the one kind a service writes and cannot
/// reload: the change took an epoch to 2^63.)
#[test]
fn epochs_at_the_limit_are_refused_and_below_it_advance() {
    let (cold, _) = served();
    let bytes = cold.snapshot_bytes();
    let file = SnapshotFile::parse(&bytes).expect("good snapshot parses");
    let with_epoch = |section: u32, epoch: u64| {
        let mut payload = file.section(section).expect("section present").to_vec();
        payload[..8].copy_from_slice(&epoch.to_le_bytes());
        with_section(&bytes, section, Some(payload))
    };
    let levels = [ValidationLevel::Standard, ValidationLevel::Audit];
    for section in [SEC_CONSTRAINTS, SEC_EXTENTS] {
        let name = section_name(section);
        for epoch in [EPOCH_LIMIT, u64::MAX] {
            let damaged = with_epoch(section, epoch);
            for level in levels {
                let err =
                    QueryService::from_snapshot_bytes(&damaged, level, ServiceConfig::default())
                        .expect_err("an epoch that cannot advance must not load");
                assert!(
                    matches!(err, LoadError::Malformed { section, .. } if section == name),
                    "{name} epoch {epoch} at {level:?}: expected Malformed({name}), got {err:?}"
                );
            }
        }
        let top = with_epoch(section, EPOCH_LIMIT - 1);
        for level in levels {
            let warm = QueryService::from_snapshot_bytes(&top, level, ServiceConfig::default())
                .unwrap_or_else(|e| panic!("{name} epoch 2^63 - 1 at {level:?}: {e}"));
            take_changes(&warm, |_| {});
        }
    }
}

/// The served cache's snapshot with its PLANSEEDS section re-encoded after
/// `edit` has seen every seed's stored fingerprint and entry.
fn reseeded(
    cold: &QueryService,
    mut edit: impl FnMut(&mut QueryFingerprint, &mut CacheEntry),
) -> Vec<u8> {
    let bytes = cold.snapshot_bytes();
    let db = cold.db();
    let file = SnapshotFile::parse(&bytes).expect("good snapshot parses");
    let (_, payload) =
        file.sections().find(|(id, _)| *id == SEC_PLANSEEDS).expect("the cache is persisted");
    let seeds = decode_plan_seeds(payload, db.catalog()).unwrap();
    let version = cold.store().version();
    let mut entries = Vec::new();
    for PlanSeed { mut fingerprint, mut entry } in seeds {
        edit(&mut fingerprint, &mut entry);
        entries.push((fingerprint, version, Arc::new(entry)));
    }
    with_section(&bytes, SEC_PLANSEEDS, Some(encode_plan_seeds(&entries, version)))
}

/// The served cache's snapshot with the first plan that has a join step
/// redirected over a relationship that does not join the step's classes.
fn misjoined(cold: &QueryService) -> Vec<u8> {
    let db = cold.db();
    let catalog = db.catalog();
    let mut pending = true;
    let bytes = reseeded(cold, |_, entry| {
        if let Some(plan) = entry.plan.as_ref().filter(|p| pending && !p.steps.is_empty()) {
            let mut plan = PhysicalPlan::clone(plan);
            let step = &mut plan.steps[0];
            let (astray, _) = catalog
                .relationships()
                .find(|(_, r)| r.other_end(step.from_class) != Some(step.access.class))
                .expect("some relationship misses the step's classes");
            step.rel = astray;
            entry.plan = Some(Arc::new(plan));
            pending = false;
        }
    });
    assert!(!pending, "the served cache holds a plan with a join step");
    bytes
}

/// A seeded plan the executor cannot run — a step over a relationship that
/// does not reach the step's class, which would read the other endpoint's
/// ids as that class — is refused already at Standard.
#[test]
fn a_seeded_plan_the_executor_cannot_run_is_refused() {
    let (cold, _) = served();
    let boot = |bytes: &[u8], level| {
        QueryService::from_snapshot_bytes(bytes, level, ServiceConfig::default())
    };
    boot(&reseeded(&cold, |_, _| {}), ValidationLevel::Standard).expect("re-encoded seeds boot");
    let crafted = misjoined(&cold);
    for level in [ValidationLevel::Standard, ValidationLevel::Audit] {
        let err = boot(&crafted, level).expect_err("a mis-joined plan must not boot");
        assert!(
            matches!(err, LoadError::Malformed { section: "PLANSEEDS", .. }),
            "expected Malformed PLANSEEDS at {level:?}, got {err:?}"
        );
    }
}

/// A seed's stored fingerprint is not its key: a PLANSEEDS section whose
/// every stored fingerprint is overwritten — what a file written by a build
/// with another key function looks like — boots warm at both levels,
/// because the reader keys each seed by the fingerprint it derives from the
/// seed's canonical query.
#[test]
fn seeds_are_keyed_by_the_reading_build() {
    let (cold, queries) = served();
    let foreign = reseeded(&cold, |fingerprint, _| *fingerprint = QueryFingerprint(!fingerprint.0));
    for level in [ValidationLevel::Standard, ValidationLevel::Audit] {
        let warm = QueryService::from_snapshot_bytes(&foreign, level, ServiceConfig::default())
            .unwrap_or_else(|e| panic!("overwritten fingerprints must boot at {level:?}: {e}"));
        for q in &queries {
            assert!(warm.run(q).unwrap().cache_hit, "every seeded query hits at {level:?}");
        }
        assert_eq!(warm.stats().optimizations, 0, "{level:?}");
    }
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
    let warm = QueryService::warm_start(&path, ValidationLevel::Standard, ServiceConfig::default())
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
