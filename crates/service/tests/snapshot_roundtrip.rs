//! End-to-end warm-start contract: a service saved with
//! [`QueryService::save_snapshot`] and rebooted with
//! [`QueryService::warm_start`] must answer the paper workload identically
//! to the service it was saved from — from the plan cache, without a
//! single request-path optimization — and a snapshot with damaged serving
//! sections must be rejected, not half-loaded. Every snapshot a service
//! writes, before or after it takes changes, reloads, and its bytes are a
//! function of the service's state. The file carries only the cached
//! queries: boot derives every entry afresh, so no file, whatever its
//! QUERIES section holds, makes a query answer another's rows. Nor does
//! the file hold a copy of a derived fact: boot derives each right
//! adjacency from the left, and a store holds exactly the constraints the
//! file states, each rebuilt by `HornConstraint::new`, so a file states no
//! constraint a caller could not build. A version 3 file is refused.
//! The indexes a file stores
//! are checked against the extents they index, so a posting id moved to
//! another key, or dropped, is refused.

use std::sync::Arc;

use sqo_constraints::{figure22, ConstraintBuilder, ConstraintStore, HornConstraint, StoreOptions};
use sqo_exec::{plan_query, CostModel, ResultSet};
use sqo_query::{CompOp, Predicate, Query, QueryBuilder};
use sqo_service::{QueryService, ServiceConfig};
use sqo_snapshot::{
    read_query, section_name, write_predicate, write_query, ByteReader, ByteWriter, LoadError,
    SnapshotBuilder, SnapshotFile, ValidationLevel, EPOCH_LIMIT, SEC_CONSTRAINTS, SEC_EXTENTS,
    SEC_INDEXES, SEC_QUERIES,
};
use sqo_storage::{DataWrite, ObjectId};
use sqo_workload::{
    copyable_rels, dup_insert, dup_safe_classes, logistics_database, paper_scenario, DbSize,
    LogisticsConfig,
};

#[path = "common/stored_indexes.rs"]
mod stored_indexes;
use stored_indexes::{read_indexes, write_indexes, Entries};

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

/// What `service` answers for each query.
fn answers(service: &QueryService, queries: &[Query]) -> Vec<Arc<ResultSet>> {
    queries.iter().map(|q| service.run(q).expect("the query answers").results).collect()
}

/// Boots a service from `bytes`. A service that boots holds the statistics
/// a rescan of its loaded extents and links gives (load reads them without
/// checking them).
fn boot(bytes: &[u8]) -> Result<QueryService, LoadError> {
    let service = QueryService::from_snapshot_bytes(
        bytes,
        ValidationLevel::Standard,
        ServiceConfig::default(),
    )?;
    assert_statistics_rescan(&service);
    Ok(service)
}

/// `service`'s statistics equal a rescan of its database.
fn assert_statistics_rescan(service: &QueryService) {
    let db = service.db();
    assert_eq!(db.stats(), &db.rebuild_statistics(), "loaded statistics differ from a rescan");
}

/// What a service writes, its own loader admits.
fn assert_reloads(service: &QueryService) {
    let bytes = service.snapshot_bytes();
    boot(&bytes).unwrap_or_else(|e| panic!("a snapshot the service wrote does not reload: {e}"));
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
    let attr = sqo_catalog::AttrId(0);
    let value =
        db.value(sqo_catalog::AttrRef::new(class, attr), ObjectId(0)).expect("an object").clone();
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
    let warm = QueryService::warm_start(&path, ValidationLevel::Standard, ServiceConfig::default())
        .unwrap_or_else(|e| panic!("warm start: {e}"));
    assert_statistics_rescan(&warm);
    assert_eq!(warm.epoch(), cold.epoch(), "semantic epoch survives the trip");
    assert_eq!(warm.stats().data_epoch, cold.stats().data_epoch, "data epoch survives the trip");
    for (q, want) in queries.iter().zip(&cold_answers) {
        let r = warm.run(q).unwrap();
        assert!(r.cache_hit, "warm service answers from the persisted cache");
        assert!(r.results.same_multiset(want), "warm answer differs");
    }
    assert_eq!(
        warm.stats().optimizations,
        0,
        "a warm start must never re-optimize the persisted workload"
    );
    assert_reloads(&warm);
    take_changes(&warm, assert_reloads);
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
    let err = boot(&missing).expect_err("a snapshot without CONSTRAINTS must not boot");
    assert!(
        matches!(err, LoadError::MissingSection("CONSTRAINTS")),
        "expected MissingSection(CONSTRAINTS), got {err:?}"
    );
    let file = SnapshotFile::parse(&bytes).expect("good snapshot parses");
    let mut trailing = file.section(SEC_CONSTRAINTS).expect("CONSTRAINTS").to_vec();
    trailing.push(0);
    let err = boot(&with_section(&bytes, SEC_CONSTRAINTS, Some(trailing)))
        .expect_err("a CONSTRAINTS section with trailing bytes must not boot");
    assert!(matches!(err, LoadError::Malformed { section: "CONSTRAINTS", .. }), "{err:?}");

    // A persisted query is derived, not trusted: structural damage, an id
    // the catalog does not resolve and a query the optimizer refuses are
    // each a typed error naming QUERIES.
    let mut unresolved = queries_of(&bytes)[0].clone();
    unresolved.classes.push(sqo_catalog::ClassId(99));
    let classless = Query { classes: vec![], ..queries_of(&bytes)[0].clone() };
    let garbled = with_section(&bytes, SEC_QUERIES, Some(vec![0xfe; 9]));
    let dangling = with_queries(&bytes, &[unresolved]);
    let refused = with_queries(&bytes, &[classless]);
    let refuse =
        |b: &[u8]| boot(b).expect_err("a QUERIES section that does not derive must not boot");
    let err = refuse(&garbled);
    assert!(matches!(err, LoadError::Malformed { section: "QUERIES", .. }), "{err:?}");
    let err = refuse(&dangling);
    assert!(matches!(err, LoadError::DanglingReference { section: "QUERIES", .. }), "{err:?}");
    let err = refuse(&refused);
    assert!(matches!(err, LoadError::Malformed { section: "QUERIES", .. }), "{err:?}");

    // A snapshot may omit QUERIES entirely (cold cache, warm data) — that
    // is a valid file, not a damaged one.
    let cacheless = with_section(&bytes, SEC_QUERIES, None);
    let warm = boot(&cacheless).expect("QUERIES is an optional section");
    assert_eq!(warm.epoch(), cold.epoch());
}

/// Both epochs a snapshot carries, the CONSTRAINTS store epoch and the
/// EXTENTS data epoch, lead their payloads, and every change to a loaded
/// service adds one to one of them. At or above [`EPOCH_LIMIT`] a load is
/// refused, so no later change can overflow; at the largest
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
    for section in [SEC_CONSTRAINTS, SEC_EXTENTS] {
        let name = section_name(section);
        for epoch in [EPOCH_LIMIT, u64::MAX] {
            let damaged = with_epoch(section, epoch);
            let err = boot(&damaged).expect_err("an epoch that cannot advance must not load");
            assert!(
                matches!(err, LoadError::Malformed { section, .. } if section == name),
                "{name} epoch {epoch}: expected Malformed({name}), got {err:?}"
            );
        }
        let top = with_epoch(section, EPOCH_LIMIT - 1);
        let warm = boot(&top).unwrap_or_else(|e| panic!("{name} epoch 2^63 - 1: {e}"));
        take_changes(&warm, |_| {});
    }
}

/// The queries a snapshot's QUERIES section holds, in file order.
fn queries_of(bytes: &[u8]) -> Vec<Query> {
    let file = SnapshotFile::parse(bytes).expect("good snapshot parses");
    let payload = file.section(SEC_QUERIES).expect("the cache is persisted");
    let mut r = ByteReader::new(payload, "QUERIES");
    let queries = (0..r.u32().unwrap()).map(|_| read_query(&mut r).unwrap()).collect();
    r.expect_exhausted().unwrap();
    queries
}

/// `bytes` with its QUERIES section holding exactly `queries`.
fn with_queries(bytes: &[u8], queries: &[Query]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(queries.len() as u32);
    for q in queries {
        write_query(&mut w, q);
    }
    with_section(bytes, SEC_QUERIES, Some(w.finish()))
}

/// Older builds wrote a PLANSEEDS section (id 7) with each entry's plan,
/// and no load compared a plan with its query: a file whose seeds swapped
/// two plans, or marked a satisfiable query provably empty, booted and
/// answered wrong. Id 7 is now an unknown section id like any other, and
/// unknown ids are skipped: a file that carries it and no QUERIES boots
/// with a cold cache, and each query misses once and then answers exactly
/// what the saving service answered. The section here is garbage the older
/// reader refused as `Malformed`; its content is not looked at.
#[test]
fn an_older_file_with_planseeds_boots_cold_and_answers_like_its_saver() {
    let (cold, queries) = served();
    let want = answers(&cold, &queries);
    let bytes = with_section(&cold.snapshot_bytes(), SEC_QUERIES, None);
    let mut b = SnapshotBuilder::new();
    for (id, payload) in SnapshotFile::parse(&bytes).expect("good snapshot parses").sections() {
        b.section(id, payload.to_vec());
    }
    b.section(7, vec![0xfe; 9]);
    let older = b.finish();
    let warm = boot(&older).unwrap_or_else(|e| panic!("a file with section 7 boots: {e}"));
    for (q, want) in queries.iter().zip(&want) {
        let first = warm.run(q).unwrap();
        assert!(!first.cache_hit, "nothing is read from section 7");
        let again = warm.run(q).unwrap();
        assert!(again.cache_hit);
        for r in [first, again] {
            assert!(r.results.same_multiset(want), "{q:?}");
        }
    }
}

/// A QUERIES section is a list of requests to warm, not a map from keys to
/// answers: permuted, duplicated, respelled, or with one query replaced by
/// another pool query, it boots and every query answers
/// what the saving service answers. Each persisted query warms only its own
/// entry, so the queries the section still names hit and the replaced one
/// misses.
#[test]
fn a_tampered_queries_section_answers_every_query_correctly() {
    let (cold, queries) = served();
    let pool = paper_scenario(DbSize::Db1, 7).queries;
    let stranger = pool[16].clone();
    let all: Vec<Query> = queries.iter().cloned().chain([stranger]).collect();
    let bytes = cold.snapshot_bytes();
    let saved = queries_of(&bytes);
    assert_eq!(saved.len(), queries.len(), "every served query is persisted");
    let want = answers(&cold, &all);

    let mut tampered: Vec<Query> = saved.iter().rev().cloned().collect();
    tampered.extend(saved[..4].iter().cloned());
    let replaced = tampered.iter().position(|q| *q == queries[5].canonical()).unwrap();
    tampered[replaced] = all[16].clone();
    let mut respelled = tampered[0].clone();
    respelled.classes.reverse();
    respelled.selective_predicates.reverse();
    tampered[0] = respelled;
    let file = with_queries(&bytes, &tampered);
    let warm = boot(&file).unwrap_or_else(|e| panic!("a tampered QUERIES section boots: {e}"));
    for (i, (q, want)) in all.iter().zip(&want).enumerate() {
        let r = warm.run(q).unwrap();
        assert_eq!(r.cache_hit, i != 5, "query {i}");
        assert!(r.results.same_multiset(want), "query {i}");
    }
}

/// Boot is deterministic: every entry a warm boot derives equals the
/// saving service's — optimized query, plan with its estimates,
/// provably-empty flag and columns. It also follows the statistics it
/// loads: after writes that move them, the saving service still holds the
/// plans it chose before (plans survive data writes), while every warm
/// plan is the one the planner builds on the loaded snapshot, and the
/// answers still match.
#[test]
fn boot_derives_the_savers_entries_and_plans_on_the_loaded_statistics() {
    let (cold, queries) = served();
    let bytes = cold.snapshot_bytes();
    let warm = boot(&bytes).expect("the snapshot boots");
    for q in &queries {
        let (a, b) = (cold.prepare(q).unwrap(), warm.prepare(q).unwrap());
        assert!(a.cache_hit && b.cache_hit);
        assert_eq!(a.optimized(), b.optimized());
        assert_eq!(a.plan(), b.plan());
        assert_eq!(a.provably_empty(), b.provably_empty());
        let columns = |s: &QueryService| s.run(q).unwrap().results.columns().collect::<Vec<_>>();
        assert_eq!(columns(&cold), columns(&warm));
    }

    take_changes(&cold, |_| {});
    for q in &queries {
        cold.run(q).expect("re-derived after the changes");
    }
    let db = cold.db();
    let class = dup_safe_classes(db.catalog())[0];
    for rank in 0..8 {
        let insert = dup_insert(&cold.db(), class, rank, &copyable_rels(db.catalog(), class));
        cold.write(&[insert]).expect("a duplicate insert goes in");
    }
    let want = answers(&cold, &queries);
    let warm = boot(&cold.snapshot_bytes()).expect("the changed service's snapshot boots");
    let loaded = warm.db();
    let mut replanned = 0;
    for (q, want) in queries.iter().zip(&want) {
        let prepared = warm.prepare(q).unwrap();
        assert!(prepared.cache_hit);
        if let Some(plan) = prepared.plan() {
            let fresh = plan_query(&loaded, prepared.optimized(), &CostModel::default()).unwrap();
            assert_eq!(**plan, fresh, "a warm plan is planned on the loaded statistics");
            replanned += usize::from(cold.prepare(q).unwrap().plan() != Some(plan));
        }
        assert!(warm.run(q).unwrap().results.same_multiset(want));
    }
    assert!(replanned > 0, "the writes moved some estimate");
    assert_eq!(warm.stats().optimizations, 0, "boot derivations are not counted");
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
    assert_statistics_rescan(&warm);
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

/// `bytes` with one more CONSTRAINTS entry after the others, written in
/// the v4 layout (`docs/FORMAT.md` §3.6) from raw parts, and the
/// constraint count raised by one.
fn with_stated_constraint(
    bytes: &[u8],
    antecedents: &[Predicate],
    consequent: &Predicate,
    scope: &[u32],
) -> Vec<u8> {
    let file = SnapshotFile::parse(bytes).expect("good snapshot parses");
    let mut payload = file.section(SEC_CONSTRAINTS).expect("CONSTRAINTS").to_vec();
    // The epoch, then the constraint count.
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    payload[8..12].copy_from_slice(&(count + 1).to_le_bytes());
    let mut w = ByteWriter::new();
    w.str("stated");
    w.u32(antecedents.len() as u32);
    for p in antecedents {
        write_predicate(&mut w, p);
    }
    w.u32(0);
    write_predicate(&mut w, consequent);
    w.u32(scope.len() as u32);
    for &class in scope {
        w.u32(class);
    }
    payload.extend(w.finish());
    with_section(bytes, SEC_CONSTRAINTS, Some(payload))
}

/// A stated constraint is rebuilt by `HornConstraint::new` at boot, so the
/// file can state nothing a caller could not build: an antecedent that
/// implies its consequent is malformed CONSTRAINTS, and a scope class the
/// catalog does not declare is a dangling reference. A constraint `new`
/// builds boots.
#[test]
fn a_stated_constraint_new_refuses_does_not_boot() {
    let (saver, _) = served();
    let bytes = saver.snapshot_bytes();
    let catalog = Arc::clone(saver.store().catalog());
    let key = catalog.attr_ref("cargo", "key").unwrap();
    let (gt20, gt10) =
        (Predicate::sel(key, CompOp::Gt, 20i64), Predicate::sel(key, CompOp::Gt, 10i64));
    let err = boot(&with_stated_constraint(&bytes, std::slice::from_ref(&gt20), &gt10, &[]))
        .expect_err("an antecedent that implies the consequent must not boot");
    assert!(matches!(err, LoadError::Malformed { section: "CONSTRAINTS", .. }), "{err:?}");
    let far = catalog.class_count() as u32;
    let err = boot(&with_stated_constraint(&bytes, &[], &gt10, &[far]))
        .expect_err("an unknown scope class must not boot");
    assert!(matches!(err, LoadError::DanglingReference { section: "CONSTRAINTS", .. }), "{err:?}");
    let warm = boot(&with_stated_constraint(&bytes, &[gt10], &gt20, &[]))
        .unwrap_or_else(|e| panic!("a constraint new builds boots: {e}"));
    assert_eq!(warm.store().len(), saver.store().len() + 1);
}

/// Figure 2.2's constraints round-trip equal, c4 with its `manager`
/// class, and so does a constraint whose scope names a class no predicate
/// does: the file stores only such scope classes, and `new` derives the
/// rest of each class set again.
#[test]
fn figure22_and_scope_classes_round_trip() {
    let catalog = Arc::new(sqo_catalog::example::figure21().unwrap());
    let db = logistics_database(Arc::clone(&catalog), &LogisticsConfig::default()).unwrap();
    let mut constraints = figure22(&catalog).unwrap();
    constraints.push(
        ConstraintBuilder::new(&catalog, "scoped")
            .scope("vehicle")
            .then("cargo.quantity", CompOp::Ge, 0i64)
            .build()
            .unwrap(),
    );
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        constraints.clone(),
        StoreOptions::paper_defaults(),
    )
    .unwrap();
    let saver = QueryService::new(Arc::new(store), Arc::new(db));
    let warm = boot(&saver.snapshot_bytes()).expect("the snapshot boots");
    let loaded: Vec<HornConstraint> = warm.store().constraints().map(|(_, c)| c.clone()).collect();
    assert_eq!(loaded, constraints);
    let class = |name| catalog.class_id(name).unwrap();
    assert_eq!(loaded[3].name, "c4");
    assert_eq!(loaded[3].classes, vec![class("manager")]);
    assert!(loaded[5].classes.contains(&class("vehicle")), "{:?}", loaded[5].classes);
}

/// A version 3 file is refused: its CONSTRAINTS entries carry an origin
/// byte and a class list nothing checked, and there is no second reader.
/// The same state saved by this build boots and answers like its saver.
#[test]
fn a_version_3_file_is_refused() {
    let (saver, queries) = served();
    let bytes = saver.snapshot_bytes();
    let store = saver.store();
    // The v3 CONSTRAINTS layout: each entry ends with its full class list
    // and an origin byte (0, Declared).
    let mut w = ByteWriter::new();
    w.u64(store.epoch());
    w.u32(store.len() as u32);
    for (_, c) in store.constraints() {
        w.str(&c.name);
        w.u32(c.antecedents.len() as u32);
        for p in &c.antecedents {
            write_predicate(&mut w, p);
        }
        w.u32(c.relationships.len() as u32);
        for r in &c.relationships {
            w.u32(r.0);
        }
        write_predicate(&mut w, &c.consequent);
        w.u32(c.classes.len() as u32);
        for class in &c.classes {
            w.u32(class.0);
        }
        w.u8(0);
    }
    let mut v3 = with_section(&bytes, SEC_CONSTRAINTS, Some(w.finish()));
    v3[4..6].copy_from_slice(&3u16.to_le_bytes());
    assert_eq!(boot(&v3).expect_err("a v3 file must not boot"), LoadError::UnsupportedVersion(3));
    let warm = boot(&bytes).unwrap_or_else(|e| panic!("the saver's file boots: {e}"));
    for (q, want) in queries.iter().zip(answers(&saver, &queries)) {
        assert!(warm.run(q).unwrap().results.same_multiset(&want), "{q:?}");
    }
}

/// Constraints a running service took through `add_constraint` are stored
/// like any other and filed again in their place at boot: the loaded store
/// lists the saver's constraints, equal and in order, and every cache
/// entry the boot derives equals the saver's.
#[test]
fn added_constraints_boot_in_the_savers_order_with_its_entries() {
    let (saver, queries) = served();
    for id in [1, 0] {
        let c = saver.store().constraint(sqo_constraints::ConstraintId(id)).clone();
        saver.add_constraint(c).expect("a constraint goes in");
    }
    for q in &queries {
        saver.run(q).expect("re-derived under the added constraints");
    }
    let listing = |s: &QueryService| {
        s.store().constraints().map(|(_, c)| c.clone()).collect::<Vec<HornConstraint>>()
    };
    let saved = listing(&saver);
    assert_eq!(saved[saved.len() - 2..], [saved[1].clone(), saved[0].clone()]);
    let bytes = saver.snapshot_bytes();
    let warm = boot(&bytes).expect("the snapshot boots");
    assert_eq!(listing(&warm), saved);
    assert_eq!(warm.epoch(), saver.epoch());
    for q in &queries {
        let (a, b) = (saver.prepare(q).unwrap(), warm.prepare(q).unwrap());
        assert!(a.cache_hit && b.cache_hit);
        assert_eq!(a.optimized(), b.optimized());
        assert_eq!(a.plan(), b.plan());
        assert_eq!(a.provably_empty(), b.provably_empty());
    }
}

/// A file states its constraints, and a load stores exactly those. A chain
/// of 99 stated constraints on one attribute, `cargo.quantity > 100 + i ⇒
/// cargo.quantity > 101 + i`, boots with exactly 99 constraints in the
/// store, and the booted service answers every probe like its saver: the
/// transformation table fires the chain link by link, so nothing is
/// derived ahead of a query and the file buys no boot work beyond its
/// parse.
#[test]
fn a_stated_chain_boots_with_exactly_its_constraints() {
    let catalog = Arc::new(sqo_catalog::example::figure21().unwrap());
    let db = logistics_database(Arc::clone(&catalog), &LogisticsConfig::default()).unwrap();
    let chain: Vec<HornConstraint> = (0..99i64)
        .map(|i| {
            ConstraintBuilder::new(&catalog, format!("chain{i}"))
                .when("cargo.quantity", CompOp::Gt, 100 + i)
                .then("cargo.quantity", CompOp::Gt, 101 + i)
                .build()
                .unwrap()
        })
        .collect();
    let store = ConstraintStore::build(Arc::clone(&catalog), chain, StoreOptions::paper_defaults())
        .unwrap();
    let saver = QueryService::new(Arc::new(store), Arc::new(db));
    let probes: Vec<Query> = [50i64, 99, 100, 150, 198]
        .iter()
        .map(|&k| {
            QueryBuilder::new(&catalog)
                .select("cargo.desc")
                .filter("cargo.quantity", CompOp::Gt, k)
                .build()
                .unwrap()
        })
        .collect();
    let want = answers(&saver, &probes);
    let warm = boot(&saver.snapshot_bytes()).expect("the snapshot boots");
    assert_eq!(warm.store().len(), 99, "the store holds the stated constraints, no more");
    for (q, want) in probes.iter().zip(&want) {
        assert!(warm.run(q).unwrap().results.same_multiset(want), "{q:?}");
    }
}

/// `service`'s snapshot with its stored index of `cargo.attr` edited by
/// `edit`.
fn with_cargo_index(service: &QueryService, attr: &str, edit: fn(&mut Entries)) -> Vec<u8> {
    let bytes = service.snapshot_bytes();
    let file = SnapshotFile::parse(&bytes).expect("good snapshot parses");
    let payload = file.section(SEC_INDEXES).expect("INDEXES");
    let catalog = Arc::clone(service.db().catalog());
    let mut indexes = read_indexes(payload, &catalog);
    assert_eq!(write_indexes(&indexes), payload, "the INDEXES layout");
    let at = catalog.attr_ref("cargo", attr).expect("the attribute");
    let (_, entries) = indexes.iter_mut().find(|(a, _)| *a == at).expect("an index");
    edit(entries);
    with_section(&bytes, SEC_INDEXES, Some(write_indexes(&indexes)))
}

/// The first key whose posting holds two objects.
fn shared_key(entries: &Entries) -> usize {
    entries.iter().position(|(_, posting)| posting.len() >= 2).expect("a key of two objects")
}

/// Moves the first object of the first shared key's posting to the next
/// key's, in ascending place.
fn move_to_next_key(entries: &mut Entries) {
    let k = shared_key(entries);
    let o = entries[k].1.remove(0);
    let next = &mut entries[k + 1].1;
    let at = next.partition_point(|&x| x < o);
    next.insert(at, o);
}

/// Drops the first object of the first shared key's posting.
fn drop_from_posting(entries: &mut Entries) {
    let k = shared_key(entries);
    entries[k].1.remove(0);
}

/// A file stores each index beside the extent it indexes, and an index
/// probe answers from the index alone. Served as stored, the DB1 snapshot
/// with cargo 3 moved from `cargo.b3` (hash) key `"forced_cargo_6"` to the
/// next key answers pool query 33 with no rows where the data holds one
/// (the optimizer adds `cargo.b3 = "forced_cargo_6"` to it), and the one
/// with cargo 16 moved from `cargo.a3` (B-tree) key 515 to 540 answers
/// `cargo.a3 = 515` without it. A load checks that each posting id's
/// object holds the posting's key and that an attribute's postings sum to
/// its class's cardinality, so both files, and one with cargo 3 dropped
/// from its posting, are refused as malformed INDEXES.
#[test]
fn forged_index_postings_are_refused() {
    let (saver, _) = served();
    let forgeries = [
        ("an id moved to another key of a hash index", "b3", move_to_next_key as fn(&mut Entries)),
        ("an id moved to another key of a B-tree index", "a3", move_to_next_key),
        ("an id dropped from a posting", "b3", drop_from_posting),
    ];
    for (what, attr, edit) in forgeries {
        let Err(err) = boot(&with_cargo_index(&saver, attr, edit)) else {
            panic!("{what}: the forged file boots");
        };
        assert!(matches!(err, LoadError::Malformed { section: "INDEXES", .. }), "{what}: {err:?}");
    }
}

/// A snapshot's bytes are a function of the state of the service that
/// wrote it. Two services booted in one process from the same inputs hold
/// store generations of their own (a process-wide counter) and write the
/// same bytes after serving the same queries; a service booted from a
/// snapshot writes that snapshot again, byte for byte.
#[test]
fn snapshot_bytes_are_a_function_of_the_service_state() {
    let ((first, _), (second, _)) = (served(), served());
    assert_ne!(first.store().generation(), second.store().generation());
    let bytes = first.snapshot_bytes();
    assert!(bytes == second.snapshot_bytes(), "two services of one state write different bytes");
    let warm = boot(&bytes).expect("the snapshot boots");
    assert_ne!(warm.store().generation(), first.store().generation());
    assert!(warm.snapshot_bytes() == bytes, "save, boot and save wrote different bytes");
}
