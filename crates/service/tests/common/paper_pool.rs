//! The end-to-end benchmark's paper-scale deployment, rebuilt for in-tree
//! tests (`miss_alloc.rs`, `oracle_by_difference.rs`, `golden_plans.rs`, each through a
//! `#[path]` include): the schema, constraints, DB1 population and query
//! generator of `benches/e2e/src/fixture.rs`, all from its fixture seed.

use std::collections::HashSet;
use std::sync::Arc;

use sqo_constraints::{ConstraintStore, StoreOptions};
use sqo_query::Query;
use sqo_storage::Database;
use sqo_workload::bench_schema::bench_catalog;
use sqo_workload::{
    generate_constraints, generate_database, paper_query_set, ConstraintGenConfig, DbSize,
    QueryGenConfig,
};

const FIXTURE_SEED: u64 = 42;

/// The store, the database, and the first `n` distinct-fingerprint queries
/// of the paper's query generator run under consecutive seeds — the head
/// of `cold_paper`'s 4,096-query pool.
pub(crate) fn paper_pool(n: usize) -> (Arc<ConstraintStore>, Arc<Database>, Vec<Query>) {
    let catalog = Arc::new(bench_catalog().unwrap());
    let generated = generate_constraints(
        &catalog,
        ConstraintGenConfig { seed: FIXTURE_SEED, ..Default::default() },
    )
    .unwrap();
    let db = generate_database(
        Arc::clone(&catalog),
        &DbSize::Db1.config(FIXTURE_SEED),
        &generated.forcings,
    )
    .unwrap();
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        generated.constraints,
        StoreOptions::paper_defaults(),
    )
    .unwrap();
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    for k in 0.. {
        let config = QueryGenConfig { seed: FIXTURE_SEED + 1000 + k, ..Default::default() };
        for q in paper_query_set(&catalog, &generated.forcings, 40, &config) {
            if pool.len() < n && seen.insert(q.fingerprint()) {
                pool.push(q);
            }
        }
        if pool.len() == n {
            return (Arc::new(store), Arc::new(db), pool);
        }
    }
    unreachable!("the seed range is unbounded")
}
