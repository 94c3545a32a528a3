//! Microbenchmarks of the batch executor: interleaved K-wide batches
//! vs. K sequential executions of the same plan, at widths 1/4/8/16, for
//! both probe shapes (`AsPlanned` warm groups and `RootSet` re-keyed
//! parameterized batches). Every width's batched output is cross-checked
//! against the sequential path before the timed runs.
//!
//! Quick mode: set `SQO_BENCH_SMOKE=1` (the CI bench-smoke job does) to run
//! every benchmark at minimal sample counts — same code paths, a fraction
//! of the wall clock.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use sqo_catalog::Value;
use sqo_exec::{
    execute_batch_with, execute_with, plan_query, BatchExecScratch, CostModel, ExecScratch,
    ProbeBinding,
};
use sqo_query::{CompOp, QueryBuilder, ValueSet};
use sqo_storage::Database;
use sqo_workload::{paper_scenario, DbSize};

const WIDTHS: [usize; 4] = [1, 4, 8, 16];

fn smoke() -> bool {
    std::env::var_os("SQO_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn tune<'c>(c: &'c mut Criterion, name: &str) -> criterion::BenchmarkGroup<'c> {
    let mut group = c.benchmark_group(name);
    if smoke() {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(20))
            .measurement_time(Duration::from_millis(100));
    } else {
        group
            .sample_size(60)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1));
    }
    group
}

fn check_equivalence(db: &Database, plan: &sqo_exec::PhysicalPlan, probes: &[ProbeBinding]) {
    let batched =
        execute_batch_with(db, plan, probes, &mut BatchExecScratch::new()).expect("batch");
    for (probe, (rows, counters)) in probes.iter().zip(&batched) {
        let solo = probe.apply(plan).expect("standalone plan");
        let (want, want_counters) =
            execute_with(db, &solo, &mut ExecScratch::new()).expect("sequential");
        assert_eq!(rows.rows, want.rows, "batched must match sequential");
        assert_eq!(counters, &want_counters);
    }
}

/// Warm-group shape: K `AsPlanned` probes of one DB1 scenario plan,
/// batched-interleaved vs. K back-to-back sequential executions.
fn bench_warm_groups(c: &mut Criterion) {
    let scenario = paper_scenario(DbSize::Db1, 42);
    let model = CostModel::default();
    let plan = plan_query(&scenario.db, &scenario.queries[0], &model).expect("plan");
    let mut group = tune(c, "batchexec_warm");
    for width in WIDTHS {
        let probes = vec![ProbeBinding::AsPlanned; width];
        check_equivalence(&scenario.db, &plan, &probes);
        group.bench_function(format!("batched_w{width}"), |b| {
            let mut scratch = BatchExecScratch::new();
            b.iter(|| {
                let out =
                    execute_batch_with(&scenario.db, &plan, &probes, &mut scratch).expect("batch");
                std::hint::black_box(out.len())
            })
        });
        group.bench_function(format!("sequential_w{width}"), |b| {
            let mut scratch = ExecScratch::new();
            b.iter(|| {
                let mut n = 0;
                for _ in 0..width {
                    let (rows, _) =
                        execute_with(&scenario.db, &plan, &mut scratch).expect("execute");
                    n += rows.rows.len();
                }
                std::hint::black_box(n)
            })
        });
    }
    group.finish();
}

/// Parameterized-batch shape: one index-rooted plan skeleton, K distinct
/// `RootSet` keys per batch, vs. K sequential re-keyed plans.
fn bench_rekeyed(c: &mut Criterion) {
    // A 2 000-supplier figure-2.1 instance: large enough that the planner
    // roots the probe query at the supplier-name hash index.
    let catalog = Arc::new(sqo_catalog::example::figure21().expect("schema"));
    let mut b = Database::builder(Arc::clone(&catalog));
    let supplier = catalog.class_id("supplier").expect("class");
    for i in 0..2_000 {
        b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).expect("insert");
    }
    let db = b
        .finalize(sqo_storage::IntegrityOptions {
            enforce_total_participation: false,
            enforce_multiplicity: true,
        })
        .expect("finalize");
    let query = QueryBuilder::new(&catalog)
        .select("supplier.address")
        .filter("supplier.name", CompOp::Eq, "s1")
        .build()
        .expect("probe query");
    let model = CostModel::default();
    let plan = plan_query(&db, &query, &model).expect("plan");
    let mut group = tune(c, "batchexec_rekeyed");
    for width in WIDTHS {
        let probes: Vec<ProbeBinding> = (0..width)
            .map(|i| ProbeBinding::RootSet(ValueSet::point(Value::str(format!("s{}", i * 97)))))
            .collect();
        check_equivalence(&db, &plan, &probes);
        group.bench_function(format!("batched_w{width}"), |b| {
            let mut scratch = BatchExecScratch::new();
            b.iter(|| {
                let out = execute_batch_with(&db, &plan, &probes, &mut scratch).expect("batch");
                std::hint::black_box(out.len())
            })
        });
        group.bench_function(format!("sequential_w{width}"), |b| {
            let mut scratch = ExecScratch::new();
            let solos: Vec<_> =
                probes.iter().map(|p| p.apply(&plan).expect("standalone plan")).collect();
            b.iter(|| {
                let mut n = 0;
                for solo in &solos {
                    let (rows, _) = execute_with(&db, solo, &mut scratch).expect("execute");
                    n += rows.rows.len();
                }
                std::hint::black_box(n)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_warm_groups, bench_rekeyed);
criterion_main!(benches);
