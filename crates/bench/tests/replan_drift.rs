//! Cached plans follow the statistics: the `mixed_rw` drift probe.
//!
//! A cached plan keeps the statistics it was planned on, while the answer
//! check plans the original query on the current ones, so without
//! re-planning `mixed_rw`'s `exec_cost_ratio` steps up inside a window of
//! blocks (about 8,700–9,900 at seed 42, 3,300–5,900 at seed 9) where one
//! query's boot-time plan costs about 26,000 work units and a fresh one
//! about 18,600. The service plans an entry's rewrite again whenever its
//! memo expired (`QueryService::replanned`).
//!
//! This test replays the benchmark's `mixed_rw` stream (its fixture, its
//! query pool, its generator, draw for draw) through a service, and every
//! 500 blocks scores the cached plans as the benchmark's answer check
//! does: the measured cost of each query's cached plan over the measured
//! cost of the original planned fresh, summed over the 16 queries. Beside
//! it, the same score of the plans each query was first derived with —
//! what a service that never re-plans serves. Every sample must be at or
//! below that, and none above 0.8956.
//!
//! It builds the 20,000-objects-per-class database and runs 14,000 blocks
//! per seed, so it runs in release only:
//! `cargo test --release -p sqo-bench --test replan_drift`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_catalog::ClassId;
use sqo_constraints::{ConstraintStore, StoreOptions};
use sqo_exec::{execute, plan_query, CostModel, PhysicalPlan};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_workload::bench_schema::bench_catalog;
use sqo_workload::{
    dup_safe_classes, generate_constraints, generate_database, paper_query_set, respell,
    ConstraintGenConfig, DataGenConfig, MixedApplier, QueryGenConfig, WriteKind, Zipf,
};

/// The benchmark's fixture seed, workload constants and stream shape
/// (`benches/e2e/src/fixture.rs`, `workloads.rs`).
const FIXTURE_SEED: u64 = 42;
const DISTINCT: usize = 16;
const BLOCK: usize = 20;
const ZIPF_S: f64 = 1.1;
const WRITE_ZIPF_S: f64 = 0.8;
const DELETE_FRACTION: f64 = 0.4;

const BLOCKS: usize = 14_000;
const SAMPLE_EVERY: usize = 500;
/// The ratio the benchmark reads outside the windows, with its spread.
const CEILING: f64 = 0.8956;
/// The traced run's window: 10 warm-up blocks and 75 traced ones.
const TRACED_BLOCKS: usize = 85;

/// The benchmark's query pool: the first distinct-fingerprint queries of
/// the paper's generator under consecutive seeds.
fn query_pool(catalog: &sqo_catalog::Catalog, forcings: &[sqo_workload::Forcing]) -> Vec<Query> {
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(DISTINCT);
    for k in 0..10_000u64 {
        let config = QueryGenConfig { seed: FIXTURE_SEED + 1000 + k, ..Default::default() };
        for q in paper_query_set(catalog, forcings, 40, &config) {
            if seen.insert(q.fingerprint()) {
                pool.push(q);
                if pool.len() == DISTINCT {
                    return pool;
                }
            }
        }
    }
    panic!("the query generator yields fewer than {DISTINCT} distinct queries");
}

/// One op of the stream.
enum Op {
    Read(usize, Query),
    Write(WriteKind),
}

/// One block of `mixed_rw`: 19 Zipf reads in fresh spellings and one
/// write, drawn in the benchmark generator's order.
fn block(
    rng: &mut StdRng,
    pool: &[Query],
    zipf: &Zipf,
    classes: &[ClassId],
    class_zipf: &Zipf,
) -> Vec<Op> {
    let write_at = rng.gen_range(0..BLOCK);
    (0..BLOCK)
        .map(|i| {
            if i == write_at {
                let class = classes[class_zipf.sample(rng)];
                let pick = rng.gen_range(0..u32::MAX);
                Op::Write(if rng.gen_range(0.0..1.0) < DELETE_FRACTION {
                    WriteKind::DeleteDup { class, pick }
                } else {
                    WriteKind::InsertDup { class, source_rank: pick }
                })
            } else {
                let index = zipf.sample(rng);
                Op::Read(index, respell(&pool[index], rng))
            }
        })
        .collect()
}

/// `(cached plans, first plans)` scored against the originals on the
/// current snapshot, as the benchmark's answer check scores them.
fn score(
    service: &QueryService,
    pool: &[Query],
    first: &[Option<Option<Arc<PhysicalPlan>>>],
) -> (f64, f64) {
    let model = CostModel::default();
    let db = service.db();
    let cost = |plan: Option<&Arc<PhysicalPlan>>| {
        plan.map_or(0.0, |p| model.measured(&execute(&db, p).expect("the plan executes").1))
    };
    let (mut cached, mut boot, mut original) = (0.0, 0.0, 0.0);
    for (query, first) in pool.iter().zip(first) {
        let reference = plan_query(&db, &query.canonical(), &model)
            .and_then(|plan| execute(&db, &plan))
            .expect("the original plans and executes");
        original += model.measured(&reference.1);
        service.run(query).expect("the query answers");
        let prepared = service.prepare(query).expect("prepares");
        assert!(prepared.cache_hit, "every query was read before the first sample");
        cached += cost(prepared.plan());
        boot += cost(first.as_ref().expect("read before the first sample").as_ref());
    }
    (cached / original, boot / original)
}

fn probe(seed: u64) {
    let catalog = Arc::new(bench_catalog().expect("benchmark schema builds"));
    let generated = generate_constraints(
        &catalog,
        ConstraintGenConfig { seed: FIXTURE_SEED, ..Default::default() },
    )
    .expect("constraint generation succeeds");
    let config = DataGenConfig::new(20_000, 30_000, FIXTURE_SEED);
    let db = generate_database(Arc::clone(&catalog), &config, &generated.forcings)
        .expect("database generation succeeds");
    let pool = query_pool(&catalog, &generated.forcings);
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        generated.constraints,
        StoreOptions::paper_defaults(),
    )
    .expect("generated constraints compile");
    let service =
        QueryService::with_config(Arc::new(store), Arc::new(db), ServiceConfig::default());

    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let classes = dup_safe_classes(&catalog);
    let class_zipf = Zipf::new(classes.len(), WRITE_ZIPF_S);
    let mut applier = MixedApplier::new(&service.db());
    let mut first: Vec<Option<Option<Arc<PhysicalPlan>>>> = vec![None; pool.len()];
    let mut samples = Vec::new();
    for blocks in 1..=BLOCKS {
        for op in block(&mut rng, &pool, &zipf, &classes, &class_zipf) {
            match op {
                Op::Read(index, query) => {
                    service.run(&query).expect("the query answers");
                    if first[index].is_none() {
                        // The first read derived the entry: its plan is
                        // the one a service that never re-plans keeps.
                        let plan = service.prepare(&query).expect("prepares").plan().cloned();
                        first[index] = Some(plan);
                    }
                }
                Op::Write(kind) => {
                    let (class, victim, batch) = applier.resolve(&service.db(), &kind);
                    let outcome = service.write(&batch).expect("a duplicate write applies");
                    applier.confirm(class, victim, &outcome.receipt);
                }
            }
        }
        if blocks == TRACED_BLOCKS {
            // The traced run's answers are compared with its shadow's row
            // for row, and the shadow never re-plans.
            assert_eq!(
                service.stats().replans,
                0,
                "seed {seed}: a plan changed in the traced window"
            );
        }
        if blocks % SAMPLE_EVERY == 0 {
            samples.push((blocks, score(&service, &pool, &first)));
        }
    }
    let replans = service.stats().replans;
    for &(blocks, (cached, boot)) in &samples {
        println!("seed {seed} blocks {blocks}: ratio {cached:.4}, never re-planned {boot:.4}");
    }
    println!("seed {seed}: {replans} plans replaced");
    for &(blocks, (cached, boot)) in &samples {
        assert!(
            cached <= boot,
            "seed {seed}, {blocks} blocks: {cached} above the first plans' {boot}"
        );
        assert!(cached <= CEILING, "seed {seed}, {blocks} blocks: {cached} above {CEILING}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 14,000 blocks on 20,000 objects per class")]
fn replanned_plans_hold_the_ratio_at_seed_9() {
    probe(9);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 14,000 blocks on 20,000 objects per class")]
fn replanned_plans_hold_the_ratio_at_seed_42() {
    probe(42);
}
