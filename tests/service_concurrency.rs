//! Serving-layer correctness under concurrency: 8 threads hammering a
//! [`sqo::service::QueryService`] with a mixed, Zipf-skewed,
//! spelling-shuffled workload must produce exactly the answers of
//! single-threaded, uncached execution — before *and* after a constraint
//! insert bumps the epoch and invalidates every cached rewrite.

use std::sync::Arc;

use sqo::core::SemanticOptimizer;
use sqo::exec::{execute, plan_query, CostBasedOracle, CostModel, ResultSet};
use sqo::query::Query;
use sqo::service::{QueryService, ServiceConfig, ServiceResponse};
use sqo::storage::Database;
use sqo::workload::{paper_scenario, service_workload, DbSize, ServiceWorkloadConfig};

/// The ground truth: one fresh optimize → plan → execute per query, no
/// service, no cache, one thread. Answers come back keyed by the canonical
/// form so any spelling can be checked against them.
fn reference_answers(
    store: &sqo::constraints::ConstraintStore,
    db: &Database,
    queries: &[Query],
) -> Vec<ResultSet> {
    let optimizer = SemanticOptimizer::new(store);
    let oracle = CostBasedOracle::new(db);
    let model = CostModel::default();
    queries
        .iter()
        .map(|q| {
            // The service canonicalizes before optimizing, so the reference
            // must too (answers are in canonical column order).
            let canonical = q.canonical();
            let out = optimizer.optimize(&canonical, &oracle).expect("optimize");
            if out.report.provably_empty {
                ResultSet::new(out.query.projections.iter().map(|p| p.attr).collect())
            } else {
                let plan = plan_query(db, &out.query, &model).expect("plan");
                execute(db, &plan).expect("execute").0
            }
        })
        .collect()
}

/// `requests` answered by eight threads calling `run` at once — thread `t`
/// takes every eighth request from `t` — in request order.
fn run_on_eight_threads(service: &QueryService, requests: &[Query]) -> Vec<ServiceResponse> {
    let mut answers: Vec<(usize, ServiceResponse)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|t| {
                scope.spawn(move || {
                    let mine = (t..requests.len()).step_by(8);
                    mine.map(|i| (i, service.run(&requests[i]).expect("request must succeed")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|thread| thread.join().expect("no thread panics")).collect()
    });
    answers.sort_by_key(|(i, _)| *i);
    answers.into_iter().map(|(_, response)| response).collect()
}

#[test]
fn eight_threads_match_single_threaded_execution_across_epochs() {
    let scenario = paper_scenario(DbSize::Db1, 42);
    let workload = service_workload(
        &scenario.queries,
        &ServiceWorkloadConfig { seed: 7, distinct: 12, requests: 240, ..Default::default() },
    );
    let store = Arc::new(scenario.store);
    let db = Arc::new(scenario.db);
    let service = QueryService::with_config(
        Arc::clone(&store),
        Arc::clone(&db),
        ServiceConfig { shards: 8, ..Default::default() },
    );

    // Epoch 0: concurrent cached answers == sequential uncached answers.
    let reference = reference_answers(&store, &db, &workload.distinct);
    let responses = run_on_eight_threads(&service, &workload.requests);
    for ((response, &i), request) in responses.iter().zip(&workload.indices).zip(&workload.requests)
    {
        assert!(
            response.results.same_multiset(&reference[i]),
            "request {request:?} diverged from single-threaded execution"
        );
        assert_eq!(response.epoch, 0);
    }
    // Concurrent first requests for the same query share one flight: a
    // miss either follows the open flight or leads one, and a leader that
    // registered after an earlier flight retired finds its published entry.
    // So each distinct query is optimized exactly once. Each worker still
    // misses a key at most once (its `run` returns after the entry lands),
    // so the lookups bound misses by distinct × workers.
    let miss_ceiling = (workload.distinct.len() * 8) as u64;
    let stats = service.stats();
    assert_eq!(stats.requests, 240);
    assert!(
        stats.cache.misses <= miss_ceiling,
        "repeated spellings must be served from the cache: {stats:?}"
    );
    assert!(
        stats.cache.hits + stats.cache.misses == 240,
        "every request consults the cache exactly once: {stats:?}"
    );
    assert_eq!(
        stats.optimizations,
        workload.distinct.len() as u64,
        "one optimization per distinct query: {stats:?}"
    );

    // Bump the epoch with a (sound) constraint insert: a duplicate of an
    // existing constraint changes no semantics, so answers must not move —
    // but every cached rewrite whose class set overlaps the constraint's
    // must be re-derived under the new epoch, while disjoint entries are
    // revalidated in place (class-overlap invalidation).
    let dup = service.store().constraint(sqo::constraints::ConstraintId(0)).clone();
    let touched = dup.classes.clone();
    let entries_before = service.stats().cache.entries;
    let invalidations_before = service.stats().cache.invalidations;
    let overlapping =
        workload.distinct.iter().filter(|q| q.classes.iter().any(|c| touched.contains(c))).count();
    assert!(overlapping >= 1, "c1's classes are hot in every workload");
    let new_epoch = service.add_constraint(dup).unwrap();
    assert!(new_epoch > 0);
    let mid = service.stats();
    assert_eq!(
        mid.cache.invalidations - invalidations_before,
        overlapping as u64,
        "exactly the overlapping entries are purged: {mid:?}"
    );
    assert_eq!(
        mid.cache.entries,
        entries_before - overlapping,
        "disjoint entries survive the insert: {mid:?}"
    );

    let new_store = service.store();
    let reference2 = reference_answers(&new_store, &db, &workload.distinct);
    let optimizations_before = mid.optimizations;
    let responses = run_on_eight_threads(&service, &workload.requests);
    for (response, &i) in responses.iter().zip(&workload.indices) {
        assert!(response.results.same_multiset(&reference2[i]), "post-epoch answer diverged");
        assert!(
            response.results.same_multiset(&reference[i]),
            "duplicate constraint moved answers"
        );
        assert_eq!(response.epoch, new_epoch);
    }
    let after = service.stats();
    assert!(
        after.optimizations > optimizations_before,
        "epoch bump must force re-optimization of overlapping queries: {after:?}"
    );
    assert_eq!(
        after.optimizations - optimizations_before,
        overlapping as u64,
        "re-optimization happens once per *invalidated* distinct query; \
         revalidated entries keep serving: {after:?}"
    );
}

#[test]
fn concurrent_mixed_readers_and_an_epoch_writer_stay_consistent() {
    // Harsher interleaving: the epoch bump lands *while* 8 reader threads
    // are mid-batch. Every response must be internally consistent (match
    // the reference for whatever epoch answered it) even as the store swaps.
    let scenario = paper_scenario(DbSize::Db1, 11);
    let workload = service_workload(
        &scenario.queries,
        &ServiceWorkloadConfig { seed: 3, distinct: 8, requests: 400, ..Default::default() },
    );
    let store = Arc::new(scenario.store);
    let db = Arc::new(scenario.db);
    let service = QueryService::new(Arc::clone(&store), Arc::clone(&db));
    let reference = reference_answers(&store, &db, &workload.distinct);

    std::thread::scope(|scope| {
        let service = &service;
        let writer = scope.spawn(move || {
            for _ in 0..5 {
                let dup = service.store().constraint(sqo::constraints::ConstraintId(0)).clone();
                service.add_constraint(dup).unwrap();
                std::thread::yield_now();
            }
        });
        let requests = &workload.requests;
        let indices = &workload.indices;
        let reference = &reference;
        let readers: Vec<_> = (0..8)
            .map(|r| {
                scope.spawn(move || {
                    for (request, &i) in requests.iter().zip(indices).skip(r).step_by(8) {
                        let response = service.run(request).expect("run");
                        assert!(
                            response.results.same_multiset(&reference[i]),
                            "reader {r} got a wrong answer mid-swap"
                        );
                    }
                })
            })
            .collect();
        writer.join().expect("writer");
        for reader in readers {
            reader.join().expect("reader");
        }
    });
    assert_eq!(service.epoch(), 5);
}
