//! Microbenchmarks of the copy-on-write write path: applying a batch via
//! the incremental path ([`Database::with_writes`]: paged shards, statistics
//! by delta) vs the from-scratch rebuild oracle
//! ([`Database::with_writes_full`]), and the statistics side in isolation —
//! a one-value in-place update, which patches one class's counts, vs the
//! full rescan ([`Database::rebuild_statistics`]).
//!
//! Each runs on the paper's DB2 and on 20,000 objects per class, where a
//! class no longer fits the caches; the gap between the two sizes is what
//! per-class work in a write would show up as. Databases are measured as
//! they are after their first write, with the touched class's value counts
//! built.
//!
//! Quick mode: set `SQO_BENCH_SMOKE=1` (the CI bench-smoke job does) to run
//! every benchmark at minimal sample counts — same code paths, a fraction
//! of the wall clock.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use sqo_bench::scaled_database;
use sqo_catalog::Value;
use sqo_storage::{DataWrite, Database, ObjectId};
use sqo_workload::{copyable_rels, dup_insert, paper_scenario, DbSize};

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

/// An E11-style duplicate-insert batch touching one class.
fn dup_batch(db: &Database, size: usize) -> Vec<DataWrite> {
    let catalog = db.catalog();
    let cargo = catalog.class_id("cargo").expect("bench schema");
    let rels = copyable_rels(catalog, cargo);
    (0..size).map(|i| dup_insert(db, cargo, i as u32, &rels)).collect()
}

/// The two sizes, each after one batch of duplicate inserts into `cargo`.
fn written_databases() -> [(&'static str, Database); 2] {
    [("db2", paper_scenario(DbSize::Db2, 42).db), ("scaled", scaled_database(42))].map(
        |(name, db)| {
            let (written, _) = db.with_writes(&dup_batch(&db, 8), None).expect("apply");
            (name, written)
        },
    )
}

/// Batch apply, incremental vs full rebuild.
fn bench_batch_apply(c: &mut Criterion) {
    for (name, db) in written_databases() {
        let batch = dup_batch(&db, 8);
        let mut group = tune(c, &format!("writepath_apply_{name}"));
        group.bench_function("incremental", |b| {
            b.iter(|| std::hint::black_box(db.with_writes(&batch, None).expect("apply")));
        });
        group.bench_function("full_rebuild", |b| {
            b.iter(|| std::hint::black_box(db.with_writes_full(&batch, None).expect("apply")));
        });
        group.finish();
    }
}

/// The statistics side in isolation: a one-attribute in-place update of an
/// unindexed attribute copies one extent page and patches two value counts,
/// vs recomputing every class's statistics from scratch.
fn bench_stats(c: &mut Criterion) {
    for (name, db) in written_databases() {
        let cargo = db.catalog().class_id("cargo").expect("bench schema");
        let a2 = db.catalog().attr_ref("cargo", "a2").expect("bench schema").attr;
        let touch = vec![DataWrite::Update {
            class: cargo,
            object: ObjectId(0),
            attr: a2,
            value: Value::Int(-1),
        }];
        let mut group = tune(c, &format!("writepath_stats_{name}"));
        group.bench_function("delta_one_value", |b| {
            b.iter(|| std::hint::black_box(db.with_writes(&touch, None).expect("apply")));
        });
        group.bench_function("full_rescan", |b| {
            b.iter(|| std::hint::black_box(db.rebuild_statistics()));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_batch_apply, bench_stats);
criterion_main!(benches);
