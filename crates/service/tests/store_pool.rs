//! A store's predicate pool is derived from its constraints and never
//! persisted. A store that gained constraints through `add_constraint`, and
//! that store booted warm from a snapshot, build every transformation table
//! exactly as a store built at once from the same constraint list does:
//! the columns in order, the rows, presence, tags and the rendered matrix.
//!
//! Over the head of the end-to-end benchmark's `cold_paper` pool.

#[path = "common/paper_pool.rs"]
mod paper_pool;

use std::sync::Arc;

use sqo_constraints::{ConstraintId, ConstraintStore, StoreOptions};
use sqo_core::{run_transformations, OptimizerConfig, TransformationTable};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_snapshot::ValidationLevel;

/// Everything a table is, after building and after the fixpoint.
fn tables(store: &ConstraintStore, query: &Query) -> [String; 2] {
    let config = OptimizerConfig::paper();
    let catalog = store.catalog();
    let relevant = store.relevant_for(query);
    let mut t = TransformationTable::build(catalog, store, &relevant, query, config.match_policy);
    let state = |t: &TransformationTable| {
        let columns: Vec<_> =
            t.columns().map(|(col, p)| (p.clone(), t.presence(col), t.tag(col))).collect();
        let rows: Vec<_> = t
            .rows()
            .map(|(ri, r)| {
                let at = (r.constraint, r.consequent, r.classification, r.consequent_indexed);
                (at, r.active, t.antecedents(ri).to_vec())
            })
            .collect();
        format!("{columns:?}\n{rows:?}\n{:?}\n{}", t.query_columns(), t.render(catalog, store))
    };
    let built = state(&t);
    run_transformations(&mut t, &config);
    [built, state(&t)]
}

#[test]
fn grown_and_warm_booted_stores_build_a_fresh_store_s_tables() {
    let (store, db, queries) = paper_pool::paper_pool(256);
    let catalog = Arc::clone(store.catalog());
    let service = QueryService::with_config(Arc::clone(&store), db, ServiceConfig::default());
    for id in [0, 5] {
        service.add_constraint(store.constraint(ConstraintId(id)).clone()).unwrap();
    }
    let grown = service.store();
    assert_eq!(grown.len(), store.len() + 2);
    let warm = QueryService::from_snapshot_bytes(
        &service.snapshot_bytes(),
        ValidationLevel::Standard,
        ServiceConfig::default(),
    )
    .unwrap()
    .store();
    let fresh = ConstraintStore::build(
        catalog,
        grown.constraints().map(|(_, c)| c.clone()).collect(),
        StoreOptions::paper_defaults(),
    )
    .unwrap();
    let list = |s: &ConstraintStore| s.constraints().map(|(_, c)| c.clone()).collect::<Vec<_>>();
    assert_eq!(list(&warm), list(&fresh));
    assert_eq!(list(&grown), list(&fresh));
    let mut rows = 0;
    for (i, q) in queries.iter().enumerate() {
        let q = q.canonical();
        let want = tables(&fresh, &q);
        assert_eq!(tables(&grown, &q), want, "query {i}, grown by add_constraint");
        assert_eq!(tables(&warm, &q), want, "query {i}, warm-booted");
        rows += fresh.relevant_for(&q).len();
    }
    assert!(rows > 256, "{rows} rows over 256 queries");
}
