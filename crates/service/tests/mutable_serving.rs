//! Mutable-data serving under concurrency: reader threads answering a
//! Zipf-skewed query stream while writer threads mutate the database
//! through the service's write path.
//!
//! The core guarantee is **per-epoch linearizability, no torn reads**:
//! every response names the data epoch it was computed at, and its rows
//! must equal a fresh, uncached optimize→plan→execute run against that
//! epoch's recorded snapshot — a response mixing rows from two epochs can
//! match no single snapshot and fails the check. These tests are
//! timing-sensitive in debug builds; CI runs them under
//! `cargo test -p sqo-service --release`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sqo_core::SemanticOptimizer;
use sqo_exec::{execute, plan_query, CostBasedOracle, CostModel};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_storage::{DataWrite, Database, VersionedDatabase};
use sqo_workload::{
    mixed_workload, paper_scenario, service_workload, DbSize, MixedApplier, MixedOp,
    MixedWorkloadConfig, ServiceWorkloadConfig, WriteKind,
};

/// Fresh, uncached ground truth for `query` on one immutable snapshot.
fn reference_fingerprint(
    store: &sqo_constraints::ConstraintStore,
    db: &Database,
    query: &Query,
) -> u64 {
    let optimizer = SemanticOptimizer::new(store);
    let oracle = CostBasedOracle::new(db);
    let model = CostModel::default();
    let canonical = query.canonical();
    let out = optimizer.optimize(&canonical, &oracle).expect("optimize");
    let results = if out.report.provably_empty {
        sqo_exec::ResultSet::new(out.query.projections.iter().map(|p| p.attr).collect())
    } else {
        let plan = plan_query(db, &out.query, &model).expect("plan");
        execute(db, &plan).expect("execute").0
    };
    results.fingerprint()
}

#[test]
fn concurrent_writers_and_readers_observe_linearized_data_epochs() {
    let s = paper_scenario(DbSize::Db1, 42);
    let store = Arc::new(s.store);
    let handle = Arc::new(VersionedDatabase::new(Arc::new(s.db)));
    let service = Arc::new(QueryService::with_versioned_db(
        Arc::clone(&store),
        Arc::clone(&handle),
        ServiceConfig { shards: 8, ..Default::default() },
    ));
    let reads = service_workload(
        &s.queries,
        &ServiceWorkloadConfig { seed: 5, distinct: 10, requests: 320, ..Default::default() },
    );
    let writes = mixed_workload(
        &s.queries,
        &s.catalog,
        &MixedWorkloadConfig { seed: 9, requests: 120, write_ratio: 1.0, ..Default::default() },
    );
    let write_kinds: Vec<WriteKind> = writes
        .ops
        .iter()
        .map(|op| match op {
            MixedOp::Write(kind) => *kind,
            MixedOp::Read { .. } => unreachable!("write_ratio 1.0"),
        })
        .collect();

    // Epoch → snapshot, recorded at commit time by the writers (epoch 0 is
    // the initial load). Writers also guard the applier's dup stacks.
    let snapshots: Mutex<HashMap<u64, Arc<Database>>> =
        Mutex::new(HashMap::from([(0, service.db())]));
    let applier = Mutex::new(MixedApplier::new(&service.db()));

    // (distinct index, observed data epoch, result fingerprint) per read.
    let observations: Vec<(usize, u64, u64)> = std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..2 {
            let service = Arc::clone(&service);
            let kinds = &write_kinds;
            let snapshots = &snapshots;
            let applier = &applier;
            writers.push(scope.spawn(move || {
                for kind in kinds.iter().skip(w).step_by(2) {
                    // resolve + submit + confirm under one lock: the batch
                    // must apply to the snapshot it was resolved against.
                    let mut applier = applier.lock().unwrap();
                    let snapshot = service.db();
                    let (class, victim, batch) = applier.resolve(&snapshot, kind);
                    let outcome = service.write(&batch).expect("safe write rejected");
                    applier.confirm(class, victim, &outcome.receipt);
                    snapshots.lock().unwrap().insert(outcome.epoch, outcome.snapshot);
                    drop(applier);
                    // Pace the writers so epochs spread across the readers'
                    // request stream (nothing below *asserts* interleaving —
                    // correctness must hold for any schedule).
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }));
        }
        let readers: Vec<_> = (0..6)
            .map(|r| {
                let service = Arc::clone(&service);
                let requests = &reads.requests;
                let indices = &reads.indices;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for (request, &i) in requests.iter().zip(indices).skip(r).step_by(6) {
                        let response = service.run(request).expect("run");
                        seen.push((i, response.data_epoch, response.results.fingerprint()));
                    }
                    seen
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        readers.into_iter().flat_map(|r| r.join().expect("reader")).collect()
    });

    // Every committed epoch has a recorded snapshot, and every observation
    // matches the uncached reference at *its* epoch: one linearized epoch
    // per answer, no torn reads.
    let snapshots = snapshots.into_inner().unwrap();
    assert_eq!(snapshots.len(), write_kinds.len() + 1, "every write recorded its snapshot");
    let mut reference: HashMap<(usize, u64), u64> = HashMap::new();
    let mut epochs_observed: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for &(i, epoch, fingerprint) in &observations {
        epochs_observed.insert(epoch);
        let snapshot = snapshots.get(&epoch).expect("response named an unknown epoch");
        let expected = *reference
            .entry((i, epoch))
            .or_insert_with(|| reference_fingerprint(&store, snapshot, &reads.distinct[i]));
        assert_eq!(
            fingerprint, expected,
            "distinct query {i} diverged from the epoch-{epoch} reference"
        );
    }
    assert_eq!(observations.len(), 320);

    // Plans survived every data write: the cache was never purged and hits
    // kept landing.
    let stats = service.stats();
    assert_eq!(stats.writes, write_kinds.len() as u64);
    assert_eq!(stats.data_epoch, write_kinds.len() as u64);
    assert!(stats.cache.hits > 0, "plan-cache hit rate under writes must stay positive: {stats:?}");
    assert_eq!(
        stats.cache.evictions + stats.cache.invalidations,
        0,
        "data writes never invalidate plans: {stats:?}"
    );

    // Deterministic epilogue (no schedule dependence): settle every memo
    // at the current epoch, write to one class, then one request per
    // distinct query — exactly the answers whose *cached* plan binds the
    // written class and admits the inserted tuple re-execute, and nothing
    // re-optimizes.
    for q in &reads.distinct {
        service.run(q).expect("run");
    }
    let before = service.stats();
    // Three of this stream's eight plans bind `driver` (all bind cargo).
    let written = s.catalog.class_id("driver").expect("bench schema");
    let tuple = {
        let mut applier = applier.lock().unwrap();
        let snapshot = service.db();
        let (class, victim, batch) =
            applier.resolve(&snapshot, &WriteKind::InsertDup { class: written, source_rank: 3 });
        let outcome = service.write(&batch).expect("write");
        applier.confirm(class, victim, &outcome.receipt);
        match &batch[..] {
            [DataWrite::Insert { tuple, .. }] => tuple.clone(),
            other => panic!("a duplicate is one insert: {other:?}"),
        }
    };
    let (mut reading_it, mut reading_others) = (0, 0);
    for q in &reads.distinct {
        let response = service.run(q).expect("run");
        assert!(response.cache_hit, "plans survive pure data writes");
        if let Some(plan) = service.prepare(q).expect("prepare").plan() {
            if plan.admits(written, &tuple) {
                reading_it += 1;
            } else {
                reading_others += 1;
            }
        }
    }
    assert!(reading_it > 0 && reading_others > 0, "the workload has queries of both kinds");
    let after = service.stats();
    assert_eq!(after.optimizations, before.optimizations, "no re-optimization after a write");
    assert_eq!(
        after.executions,
        before.executions + reading_it,
        "a write expires the memos of the plans that read its class, and no other: {after:?}"
    );
}

#[test]
fn single_threaded_write_stream_cross_checks_against_unoptimized_reference() {
    // The E11 invariant, in miniature and fully deterministic: after every
    // write, cached answers equal the original query planned and executed
    // unoptimized on the service's own snapshot.
    let s = paper_scenario(DbSize::Db1, 11);
    let store = Arc::new(s.store);
    let handle = Arc::new(VersionedDatabase::new(Arc::new(s.db)));
    let warm = QueryService::with_versioned_db(
        Arc::clone(&store),
        Arc::clone(&handle),
        ServiceConfig::default(),
    );
    let model = CostModel::default();
    let wl = mixed_workload(
        &s.queries,
        &s.catalog,
        &MixedWorkloadConfig {
            seed: 3,
            distinct: 8,
            requests: 160,
            write_ratio: 0.25,
            ..Default::default()
        },
    );
    let mut applier = MixedApplier::new(&warm.db());
    let mut writes_seen = 0u64;
    for op in &wl.ops {
        match op {
            MixedOp::Write(kind) => {
                let snapshot = warm.db();
                let (class, victim, batch) = applier.resolve(&snapshot, kind);
                let outcome = warm.write(&batch).expect("safe write rejected");
                applier.confirm(class, victim, &outcome.receipt);
                writes_seen += 1;
            }
            MixedOp::Read { query, .. } => {
                let a = warm.run(query).expect("warm run");
                let db = warm.db();
                let plan = plan_query(&db, &query.canonical(), &model).expect("plan");
                let (b, _) = execute(&db, &plan).expect("execute");
                assert_eq!(a.data_epoch, writes_seen, "reads see every prior write");
                assert!(
                    a.results.same_multiset(&b),
                    "cached answer diverged from the unoptimized reference at epoch {writes_seen}"
                );
            }
        }
    }
    assert_eq!(writes_seen, wl.writes as u64);
    let stats = warm.stats();
    assert!(stats.cache.hit_rate() > 0.5, "plans keep serving across writes: {stats:?}");
}
