//! The serving contract under class-precise memo validity.
//!
//! A write expires only the result memos of plans that bind a class it
//! changed (`cache.rs` module docs). What that must never cost is the
//! serving contract — every response equals the **unoptimized original**
//! executed on the snapshot its `data_epoch` names — and what it must buy
//! is exact: a query re-executes if and only if a class its plan binds was
//! written since its memo. Both are checked here against a model that reads
//! nothing but write receipts and plans, so a check that expires too much
//! fails as surely as one that expires too little.

use std::sync::Arc;

use proptest::prelude::*;
use sqo_catalog::ClassId;
use sqo_exec::{execute, plan_query, plan_query_shared, CostModel, ResultSet};
use sqo_query::{Query, QueryBuilder};
use sqo_service::{CacheEntry, QueryService, ServiceResponse};
use sqo_storage::{DataWrite, Database, ObjectId, VersionedDatabase};
use sqo_workload::{
    dup_safe_classes, paper_scenario, DbSize, MixedApplier, PaperScenario, WriteKind,
};

/// A service over a **fresh** paper-scale database: every call starts a
/// snapshot lineage of its own, so no other test's writes show in its
/// per-class write epochs and execution counts are exact.
fn service(seed: u64) -> (QueryService, Vec<Query>) {
    let PaperScenario { store, db, queries, .. } = paper_scenario(DbSize::Db1, seed);
    (QueryService::new(Arc::new(store), Arc::new(db)), queries)
}

/// The serving contract for one response: stamped with the current
/// snapshot's epoch, equal to the original query executed on it.
fn assert_answers_the_original(service: &QueryService, query: &Query, response: &ServiceResponse) {
    let db = service.db();
    assert_eq!(response.data_epoch, db.data_version(), "one client: the current epoch");
    let plan = plan_query(&db, &query.canonical(), &CostModel::default()).expect("plans");
    let (reference, _) = execute(&db, &plan).expect("executes");
    assert!(
        response.results.same_multiset(&reference),
        "answer differs from the original at epoch {}",
        response.data_epoch
    );
}

/// The classes `query`'s cached plan binds; `None` for a provably empty
/// answer (no plan, nothing ever executes).
fn bound_classes(service: &QueryService, query: &Query) -> Option<Vec<ClassId>> {
    service.prepare(query).expect("prepares").plan().map(|plan| plan.binding_order())
}

fn apply(service: &QueryService, applier: &mut MixedApplier, kind: WriteKind) -> Vec<ClassId> {
    let (class, victim, batch) = applier.resolve(&service.db(), &kind);
    let outcome = service.write(&batch).expect("safe write rejected");
    applier.confirm(class, victim, &outcome.receipt);
    outcome.receipt.touched_classes
}

/// One step of a generated interleaving; the indices are reduced modulo
/// the scenario's query and writable-class counts.
#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    Insert { class: usize, rank: u32 },
    Delete { class: usize, pick: u32 },
}

fn step() -> impl Strategy<Value = Step> {
    // Six queries over five classes: memos are hit, expired and rebuilt
    // many times in fifty steps.
    prop_oneof![
        (0usize..6).prop_map(Step::Read),
        (0usize..6).prop_map(Step::Read),
        (0usize..6).prop_map(Step::Read),
        (0usize..5, 0u32..1000).prop_map(|(class, rank)| Step::Insert { class, rank }),
        (0usize..5, 0u32..1000).prop_map(|(class, pick)| Step::Delete { class, pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_query_re_executes_iff_a_class_its_plan_binds_was_written(
        seed in 0u64..4,
        steps in prop::collection::vec(step(), 20..60),
    ) {
        let (service, queries) = service(seed);
        let writable = dup_safe_classes(service.db().catalog());
        let mut applier = MixedApplier::new(&service.db());
        // The model: per class the epoch of its last write, per query the
        // epoch of its memo, and the executions those two imply.
        let mut last_written = vec![0u64; service.db().catalog().class_count()];
        let mut memo_epoch: Vec<Option<u64>> = vec![None; queries.len()];
        let mut executions = 0u64;
        for step in steps {
            let kind = match step {
                Step::Read(i) => {
                    let query = &queries[i % queries.len()];
                    let response = service.run(query).expect("runs");
                    assert_answers_the_original(&service, query, &response);
                    if let Some(classes) = bound_classes(&service, query) {
                        let memo = &mut memo_epoch[i % queries.len()];
                        let valid = memo.is_some_and(|at| {
                            classes.iter().all(|c| last_written[c.index()] <= at)
                        });
                        if !valid {
                            executions += 1;
                            *memo = Some(response.data_epoch);
                        }
                    }
                    assert_eq!(service.stats().executions, executions, "after {step:?}");
                    continue;
                }
                Step::Insert { class, rank } => {
                    WriteKind::InsertDup { class: writable[class % writable.len()], source_rank: rank }
                }
                Step::Delete { class, pick } => {
                    WriteKind::DeleteDup { class: writable[class % writable.len()], pick }
                }
            };
            let touched = apply(&service, &mut applier, kind);
            let epoch = service.db().data_version();
            for class in touched {
                last_written[class.index()] = epoch;
            }
        }
    }
}

#[test]
fn a_write_to_an_eliminated_class_leaves_the_memo_served() {
    let (service, queries) = service(42);
    let writable = dup_safe_classes(service.db().catalog());
    // A query the optimizer answers without one of its classes, that class
    // being one the generator can write to without breaking the
    // constraints that justified eliminating it.
    let (query, eliminated) = queries
        .iter()
        .find_map(|query| {
            let prepared = service.prepare(query).expect("prepares");
            let bound = prepared.plan()?.binding_order();
            let eliminated = *prepared
                .canonical()
                .classes
                .iter()
                .find(|c| !bound.contains(c) && writable.contains(c))?;
            Some((query, eliminated))
        })
        .expect("the paper's query set has a class elimination");
    let before = service.run(query).expect("runs");
    assert_answers_the_original(&service, query, &before);
    let executions = service.stats().executions;

    let mut applier = MixedApplier::new(&service.db());
    let touched =
        apply(&service, &mut applier, WriteKind::InsertDup { class: eliminated, source_rank: 3 });
    assert_eq!(touched, [eliminated]);

    let after = service.run(query).expect("runs");
    assert_eq!(after.data_epoch, 1);
    assert!(Arc::ptr_eq(&before.results, &after.results), "the memo outlives the write");
    assert_eq!(service.stats().executions, executions);
    // ... and is still the original's answer, eliminated class included.
    assert_answers_the_original(&service, query, &after);
}

#[test]
fn a_bare_link_or_unlink_expires_the_memos_that_traverse_it_and_no_other() {
    let (service, _) = service(42);
    let db = service.db();
    let catalog = Arc::clone(db.catalog());
    let traversing = QueryBuilder::new(&catalog)
        .select("department.key")
        .select("vehicle.key")
        .via("owns")
        .build()
        .expect("builds");
    let disjoint = QueryBuilder::new(&catalog)
        .select("cargo.key")
        .select("supplier.key")
        .via("supplies")
        .build()
        .expect("builds");
    // An existing edge of the many-to-many, non-total `owns`: removing it
    // only removes constraint bindings, and putting it back restores a
    // state that was legal.
    let owns = catalog.rel_id("owns").expect("bench schema");
    let department = catalog.class_id("department").expect("bench schema");
    let (left, right) = (0..db.cardinality(department) as u32)
        .map(ObjectId)
        .find_map(|d| Some((d, *db.traverse(owns, department, d).ok()?.first()?)))
        .expect("some department owns a vehicle");
    drop(db);

    let mut memo: Vec<Arc<ResultSet>> = [&traversing, &disjoint]
        .iter()
        .map(|query| service.run(query).expect("runs").results)
        .collect();
    let rows_linked = memo[0].len();
    for (write, rows) in [
        (DataWrite::Unlink { rel: owns, left, right }, rows_linked - 1),
        (DataWrite::Link { rel: owns, left, right }, rows_linked),
    ] {
        let executions = service.stats().executions;
        let outcome = service.write(std::slice::from_ref(&write)).expect("applies");
        assert!(outcome.receipt.touched_classes.is_empty(), "no extent changed: {write:?}");

        let response = service.run(&traversing).expect("runs");
        assert_answers_the_original(&service, &traversing, &response);
        assert_eq!(response.results.len(), rows, "after {write:?}");
        assert!(!Arc::ptr_eq(&response.results, &memo[0]), "a stale memo was served");
        memo[0] = response.results;

        let response = service.run(&disjoint).expect("runs");
        assert_answers_the_original(&service, &disjoint, &response);
        assert!(Arc::ptr_eq(&response.results, &memo[1]), "{write:?} reads neither class");
        assert_eq!(service.stats().executions, executions + 1, "one of the two re-executed");
    }
}

#[test]
fn a_reader_on_an_older_snapshot_neither_serves_nor_clobbers_a_newer_memo() {
    // The entry's protocol on its own, with real lineages: one plan, one
    // write path, and readers that hold the snapshots of different epochs.
    let PaperScenario { db, queries, .. } = paper_scenario(DbSize::Db1, 42);
    let handle = VersionedDatabase::new(Arc::new(db));
    let held = handle.snapshot();
    let writable = dup_safe_classes(held.catalog());
    let model = CostModel::default();
    let (query, plan, unbound) = queries
        .iter()
        .find_map(|q| {
            let query = q.canonical();
            let plan = plan_query_shared(&held, &query, &model).ok()?;
            let unbound = *writable.iter().find(|c| !query.classes.contains(c))?;
            Some((query, plan, unbound))
        })
        .expect("some query leaves a writable class out");
    let columns = plan.projections.iter().map(|p| p.attr).collect();
    let entry = CacheEntry::new(query.clone(), query, Some(Arc::clone(&plan)), false, columns);
    let executed = |db: &Database| Arc::new(execute(db, &plan).expect("executes").0);
    let mut applier = MixedApplier::new(&held);
    let mut write = |class, source_rank| {
        let (class, victim, batch) =
            applier.resolve(&handle.snapshot(), &WriteKind::InsertDup { class, source_rank });
        let outcome = handle.write(&batch).expect("safe write rejected");
        applier.confirm(class, victim, &outcome.receipt);
        outcome.epoch
    };

    // Epoch 0 is held across two writes to a class the plan does not bind;
    // the memo is published in between, at epoch 1.
    assert_eq!(write(unbound, 0), 1);
    let newer = executed(&handle.snapshot());
    entry.publish_results(1, &newer);
    assert_eq!(write(unbound, 1), 2);

    assert!(entry.memoized_results(0).is_none(), "a memo newer than the reader is not its answer");
    entry.publish_results(0, &executed(&held));
    let kept = entry.memoized_results(1).expect("the epoch-1 memo is still there");
    assert!(Arc::ptr_eq(&kept, &newer), "an older execution clobbered a newer memo");
    let served = entry.memoized_results(2).expect("no bound class was written since epoch 1");
    assert!(Arc::ptr_eq(&served, &newer));

    // A write to a bound class expires it — also for a reader still on
    // epoch 2, which cannot tell the raise is not in its snapshot yet.
    assert_eq!(write(plan.root.class, 0), 3);
    assert!(entry.memoized_results(3).is_none());
    assert!(entry.memoized_results(2).is_none(), "the conservative side");
    assert!(entry.memoized_results(1).is_some(), "its own epoch is always its answer");
}

#[test]
fn services_forked_from_one_snapshot_stay_correct() {
    // Two services over one `Arc<Database>`: two write paths, one shared
    // vector of write epochs. Each fork's epochs count its own writes only,
    // so the other's raises can only cost re-executions.
    let PaperScenario { store, db, queries, .. } = paper_scenario(DbSize::Db1, 42);
    let (store, db) = (Arc::new(store), Arc::new(db));
    let forks = [
        QueryService::new(Arc::clone(&store), Arc::clone(&db)),
        QueryService::new(store, Arc::clone(&db)),
    ];
    let writable = dup_safe_classes(db.catalog());
    let mut appliers = [MixedApplier::new(&db), MixedApplier::new(&db)];
    let check = |fork: &QueryService| {
        for query in queries.iter().take(8) {
            let response = fork.run(query).expect("runs");
            assert_answers_the_original(fork, query, &response);
        }
    };
    forks.iter().for_each(check);
    for round in 0..12u32 {
        // Fork 0 writes every round, fork 1 every third, to different
        // classes: their epochs drift apart while the slots interleave.
        let class = writable[round as usize % writable.len()];
        apply(&forks[0], &mut appliers[0], WriteKind::InsertDup { class, source_rank: round });
        if round % 3 == 0 {
            let class = writable[(round as usize + 2) % writable.len()];
            apply(&forks[1], &mut appliers[1], WriteKind::InsertDup { class, source_rank: round });
        }
        forks.iter().for_each(check);
    }
    assert_eq!((forks[0].data_epoch(), forks[1].data_epoch()), (12, 4));
}
