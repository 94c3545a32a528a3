//! The serving contract under class-precise memo validity.
//!
//! A write expires only the result memos of plans it can reach: it changed
//! a class the plan binds, by an update or a bare link, or by inserting or
//! deleting an object that the optimized query's selections on that class
//! admit (`cache.rs` module docs, *Irrelevant writes*). What that must
//! never cost is the serving contract — every response equals the
//! **unoptimized original** executed on the snapshot its `data_epoch`
//! names — and what it must buy is exact: a query re-executes if and only
//! if such a write was committed since its memo. Both are checked here
//! against a model that reads nothing but the written tuples, the plans'
//! classes and the optimized queries' selections, so a check that expires
//! too much fails as surely as one that expires too little.

use std::sync::Arc;

use proptest::prelude::*;
use sqo_catalog::{AttrId, ClassId, Value};
use sqo_exec::{execute, plan_query, plan_query_shared, CostModel, PhysicalPlan, ResultSet};
use sqo_query::{Query, QueryBuilder};
use sqo_service::{CacheEntry, QueryService, ServiceResponse};
use sqo_storage::{DataWrite, Database, ObjectId, VersionedDatabase, WRITE_LOG_BATCHES};
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

/// What the model knows of a query's cached plan: the classes it binds,
/// and the optimized query's selections. `None` for a provably empty
/// answer (no plan, nothing ever executes).
struct Reads {
    classes: Vec<ClassId>,
    optimized: Query,
}

impl Reads {
    fn of(service: &QueryService, query: &Query) -> Option<Self> {
        let prepared = service.prepare(query).expect("prepares");
        let classes = prepared.plan()?.binding_order();
        Some(Self { classes, optimized: prepared.optimized().clone() })
    }

    /// Whether an insert or delete of an object of `class` holding `tuple`
    /// can change the answer: the plan binds `class`, and the tuple passes
    /// every selection the optimized query puts on it.
    fn reached_by(&self, class: ClassId, tuple: &[Value]) -> bool {
        self.classes.contains(&class)
            && self
                .optimized
                .selective_predicates
                .iter()
                .filter(|p| p.attr.class == class)
                .all(|p| p.eval(&tuple[p.attr.attr.index()]))
    }
}

/// Applies one generated write; returns the class and tuple of the object
/// it inserted or deleted, read from the batch and the snapshot before it.
fn apply(
    service: &QueryService,
    applier: &mut MixedApplier,
    kind: WriteKind,
) -> (ClassId, Vec<Value>) {
    let before = service.db();
    let (class, victim, batch) = applier.resolve(&before, &kind);
    let tuple = match (&batch[..], victim) {
        ([DataWrite::Insert { tuple, .. }], None) => tuple.clone(),
        ([DataWrite::Delete { .. }], Some(victim)) => before.tuple(class, victim).expect("live"),
        (other, _) => panic!("a generated write is one insert or one delete: {other:?}"),
    };
    let outcome = service.write(&batch).expect("safe write rejected");
    applier.confirm(class, victim, &outcome.receipt);
    (class, tuple)
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
    fn a_query_re_executes_iff_a_class_its_plan_binds_was_written_by_a_relevant_write(
        seed in 0u64..4,
        steps in prop::collection::vec(step(), 20..60),
    ) {
        let (service, queries) = service(seed);
        let writable = dup_safe_classes(service.db().catalog());
        let mut applier = MixedApplier::new(&service.db());
        // The model: every write's epoch, class and tuple, per query the
        // epoch of its memo, and the executions those two imply. (Fewer
        // writes than the log keeps: the horizon has a test of its own.)
        let mut written: Vec<(u64, ClassId, Vec<Value>)> = Vec::new();
        let mut memo_epoch: Vec<Option<u64>> = vec![None; queries.len()];
        let mut executions = 0u64;
        for step in steps {
            let kind = match step {
                Step::Read(i) => {
                    let query = &queries[i % queries.len()];
                    let response = service.run(query).expect("runs");
                    assert_answers_the_original(&service, query, &response);
                    if let Some(reads) = Reads::of(&service, query) {
                        let memo = &mut memo_epoch[i % queries.len()];
                        let valid = memo.is_some_and(|at| {
                            written
                                .iter()
                                .filter(|(epoch, ..)| *epoch > at)
                                .all(|(_, class, tuple)| !reads.reached_by(*class, tuple))
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
            let (class, tuple) = apply(&service, &mut applier, kind);
            written.push((service.db().data_version(), class, tuple));
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
    let (class, _) =
        apply(&service, &mut applier, WriteKind::InsertDup { class: eliminated, source_rank: 3 });
    assert_eq!(class, eliminated);

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
    let (query, plan, unbound, admitted) = queries
        .iter()
        .find_map(|q| {
            let query = q.canonical();
            let plan = plan_query_shared(&held, &query, &model).ok()?;
            let unbound = *writable.iter().find(|c| !query.classes.contains(c))?;
            let root = plan.root.class;
            let admitted = (0..held.cardinality(root) as u32)
                .find(|&i| plan.admits(root, &held.tuple(root, ObjectId(i)).expect("live")))?;
            writable.contains(&root).then_some((query, plan, unbound, admitted))
        })
        .expect("some query leaves a writable class out and roots at a writable one");
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
    // A write the plan admits, committed before any reader at 2 came.
    assert_eq!(write(plan.root.class, admitted), 3);
    assert!(entry.memoized_results(3).is_none(), "an admitted insert into the root expires it");
    let kept = entry.memoized_results(1).expect("the epoch-1 memo is still there");
    assert!(Arc::ptr_eq(&kept, &newer), "an older execution clobbered a newer memo");
    // A reader at 2 is served it: batch 2 cannot reach the plan, and batch
    // 3 is not in the reader's snapshot. It is re-stamped there.
    let served = entry.memoized_results(2).expect("no write up to epoch 2 reaches the plan");
    assert!(Arc::ptr_eq(&served, &newer));
    assert!(entry.memoized_results(1).is_none(), "re-stamped at 2, it is no longer epoch 1's");
    assert!(entry.memoized_results(3).is_none(), "and it still expires at 3");
}

/// A query of `queries` whose cached plan has a residual on a writable
/// class, with one object of that class its selections admit and one that
/// fails a residual: their ids, which are also their source ranks for
/// [`WriteKind::InsertDup`].
struct Selective {
    query: Query,
    plan: Arc<PhysicalPlan>,
    class: ClassId,
    admitted: u32,
    rejected: u32,
}

fn selective(service: &QueryService, queries: &[Query]) -> Selective {
    let db = service.db();
    let writable = dup_safe_classes(db.catalog());
    queries
        .iter()
        .find_map(|query| {
            let plan = Arc::clone(service.prepare(query).ok()?.plan()?);
            let accesses = std::iter::once(&plan.root).chain(plan.steps.iter().map(|s| &s.access));
            let (class, admitted, rejected) = accesses
                .filter(|a| writable.contains(&a.class) && !a.residual.is_empty())
                .find_map(|access| {
                    let class = access.class;
                    let tuple = |i| db.tuple(class, ObjectId(i)).expect("live");
                    let ranks = 0..db.cardinality(class) as u32;
                    let admitted = ranks.clone().find(|&i| plan.admits(class, &tuple(i)))?;
                    let fails = |i| {
                        let t = tuple(i);
                        !access.residual.iter().all(|p| p.eval(&t[p.attr.attr.index()]))
                    };
                    let rejected = ranks.clone().find(|&i| fails(i))?;
                    Some((class, admitted, rejected))
                })?;
            Some(Selective { query: query.clone(), plan, class, admitted, rejected })
        })
        .expect("some plan has a residual that some object passes and another fails")
}

/// Runs `query`; asserts the serving contract and whether the memo was
/// served (`kept`) or the plan executed again. Returns the response.
fn read(
    service: &QueryService,
    query: &Query,
    memo: &Arc<ResultSet>,
    kept: bool,
    why: &str,
) -> ServiceResponse {
    let executions = service.stats().executions;
    let response = service.run(query).expect("runs");
    assert_answers_the_original(service, query, &response);
    assert_eq!(Arc::ptr_eq(&response.results, memo), kept, "{why}");
    assert_eq!(service.stats().executions, executions + u64::from(!kept), "{why}");
    response
}

#[test]
fn an_insert_that_fails_a_residual_keeps_the_memo_and_one_that_passes_expires_it() {
    let (service, queries) = service(42);
    let case = selective(&service, &queries);
    let mut applier = MixedApplier::new(&service.db());
    let memo = service.run(&case.query).expect("runs").results;
    let rejected = WriteKind::InsertDup { class: case.class, source_rank: case.rejected };
    apply(&service, &mut applier, rejected);
    read(&service, &case.query, &memo, true, "an insert no row can bind");
    let admitted = WriteKind::InsertDup { class: case.class, source_rank: case.admitted };
    apply(&service, &mut applier, admitted);
    let after = read(&service, &case.query, &memo, false, "an insert the selections admit");
    read(&service, &case.query, &after.results, true, "re-armed at the new epoch");
}

#[test]
fn a_delete_that_fails_a_predicate_keeps_the_memo_while_swap_remove_renumbers_another_object() {
    let (service, queries) = service(42);
    let case = selective(&service, &queries);
    let mut applier = MixedApplier::new(&service.db());
    // Two duplicates: first one the plan rejects, then one it admits.
    for source_rank in [case.rejected, case.admitted] {
        apply(&service, &mut applier, WriteKind::InsertDup { class: case.class, source_rank });
    }
    let memo = service.run(&case.query).expect("runs").results;
    // Deleting the first duplicate moves the second, which rows bind, into
    // its id: the rows are the same values under another id.
    let (class, victim, batch) =
        applier.resolve(&service.db(), &WriteKind::DeleteDup { class: case.class, pick: 0 });
    let outcome = service.write(&batch).expect("safe write rejected");
    applier.confirm(class, victim, &outcome.receipt);
    assert_eq!(outcome.receipt.moves.len(), 1, "the admitted duplicate was renumbered");
    assert!(!case.plan.admits(class, &outcome.receipt.deleted[0]), "the rejected one went");
    read(&service, &case.query, &memo, true, "a delete no row bound");
}

#[test]
fn an_update_or_a_bare_link_expires_the_memo() {
    // A bare link: `a_bare_link_or_unlink_expires_the_memos_that_traverse_it_and_no_other`.
    // An update expires it even when it leaves the object's value as it
    // was, on an object the selections reject.
    let (service, queries) = service(42);
    let case = selective(&service, &queries);
    let memo = service.run(&case.query).expect("runs").results;
    let object = ObjectId(case.rejected);
    let value = service.db().tuple(case.class, object).expect("live").remove(0);
    let update = DataWrite::Update { class: case.class, object, attr: AttrId(0), value };
    service.write(&[update]).expect("applies");
    read(&service, &case.query, &memo, false, "an update is opaque");
}

#[test]
fn writes_past_the_log_horizon_expire_the_memo() {
    let (service, queries) = service(42);
    let case = selective(&service, &queries);
    let mut applier = MixedApplier::new(&service.db());
    let irrelevant = WriteKind::InsertDup { class: case.class, source_rank: case.rejected };
    let memo = service.run(&case.query).expect("runs").results;
    for _ in 0..WRITE_LOG_BATCHES {
        apply(&service, &mut applier, irrelevant);
    }
    read(&service, &case.query, &memo, true, "every batch since the memo is in the log");
    for _ in 0..=WRITE_LOG_BATCHES {
        apply(&service, &mut applier, irrelevant);
    }
    read(&service, &case.query, &memo, false, "one batch since the memo fell off the log");
}

#[test]
fn forked_services_keep_memos_across_their_own_irrelevant_writes_and_stay_correct() {
    // Two services over one `Arc<Database>` share one write log: a fork's
    // irrelevant write keeps its memo, the other fork's relevant write at
    // an overlapping epoch costs it a re-execution, and every answer is the
    // original's.
    let PaperScenario { store, db, queries, .. } = paper_scenario(DbSize::Db1, 42);
    let (store, db) = (Arc::new(store), Arc::new(db));
    let forks = [
        QueryService::new(Arc::clone(&store), Arc::clone(&db)),
        QueryService::new(store, Arc::clone(&db)),
    ];
    let case = selective(&forks[0], &queries);
    let mut appliers = [MixedApplier::new(&db), MixedApplier::new(&db)];
    let memos: Vec<_> = forks.iter().map(|f| f.run(&case.query).expect("runs").results).collect();
    let insert = |source_rank| WriteKind::InsertDup { class: case.class, source_rank };
    apply(&forks[0], &mut appliers[0], insert(case.rejected));
    read(&forks[0], &case.query, &memos[0], true, "its own irrelevant write");
    // Fork 1's epochs 1 and 2, then fork 0's epoch 2: fork 0's memo, now
    // stamped 1, is checked against both forks' batches of epoch 2.
    apply(&forks[1], &mut appliers[1], insert(case.rejected));
    apply(&forks[1], &mut appliers[1], insert(case.admitted));
    apply(&forks[0], &mut appliers[0], insert(case.rejected));
    read(&forks[1], &case.query, &memos[1], false, "its own relevant write");
    read(&forks[0], &case.query, &memos[0], false, "the other fork's relevant write");
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
