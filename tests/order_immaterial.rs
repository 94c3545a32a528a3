//! The paper's headline property: **the order of transformations is
//! immaterial**. Because transformations are tentative (tags only move down
//! the lattice), every processing order reaches the same fixpoint.
//!
//! We vary everything that could influence order — queue discipline,
//! constraint insertion order in the store, and the order §3's grouped
//! retrieval fetches constraints in under each assignment policy — and
//! require identical optimized queries.

use proptest::prelude::*;
use std::sync::Arc;

use sqo::baseline::{AssignmentPolicy, ConstraintGroups};
use sqo::constraints::{ConstraintStore, StoreOptions};
use sqo::core::{
    formulate, run_transformations, OptimizerConfig, QueueDiscipline, SemanticOptimizer,
    StructuralOracle, TransformationTable,
};
use sqo::query::Query;
use sqo::workload::{
    bench_schema::bench_catalog, generate_constraints, paper_query_set, ConstraintGenConfig,
    QueryGenConfig,
};

fn environment(
    seed: u64,
) -> (Arc<sqo::catalog::Catalog>, Vec<sqo::constraints::HornConstraint>, Vec<Query>) {
    let catalog = Arc::new(bench_catalog().unwrap());
    let generated =
        generate_constraints(&catalog, ConstraintGenConfig { seed, ..Default::default() }).unwrap();
    let queries = paper_query_set(
        &catalog,
        &generated.forcings,
        12,
        &QueryGenConfig { seed: seed.wrapping_add(1), ..Default::default() },
    );
    (catalog, generated.constraints, queries)
}

/// Optimizes every query. With `grouped`, the relevant constraints enter
/// the transformation table in the order that policy's group fetch
/// retrieves them; without, in the store index's ascending order.
fn optimize_all(
    catalog: &Arc<sqo::catalog::Catalog>,
    constraints: Vec<sqo::constraints::HornConstraint>,
    queries: &[Query],
    grouped: Option<AssignmentPolicy>,
    discipline: QueueDiscipline,
) -> Vec<Query> {
    let store =
        ConstraintStore::build(Arc::clone(catalog), constraints, StoreOptions::paper_defaults())
            .unwrap();
    let config = OptimizerConfig { queue: discipline, ..OptimizerConfig::paper() };
    let Some(policy) = grouped else {
        let optimizer = SemanticOptimizer::with_config(&store, config);
        return queries
            .iter()
            .map(|q| optimizer.optimize(q, &StructuralOracle).unwrap().query.normalized())
            .collect();
    };
    let mut groups = ConstraintGroups::new(&store, policy);
    queries
        .iter()
        .map(|q| {
            let relevant = groups.relevant_for(q);
            let mut table =
                TransformationTable::build(catalog, &store, &relevant, q, config.match_policy);
            run_transformations(&mut table, &config);
            formulate(catalog, q, &table, &config, &StructuralOracle).query.normalized()
        })
        .collect()
}

#[test]
fn fifo_and_priority_queues_agree() {
    let (catalog, constraints, queries) = environment(5);
    let fifo = optimize_all(&catalog, constraints.clone(), &queries, None, QueueDiscipline::Fifo);
    let prio = optimize_all(&catalog, constraints, &queries, None, QueueDiscipline::Priority);
    assert_eq!(fifo, prio);
}

#[test]
fn constraint_insertion_order_is_immaterial() {
    let (catalog, constraints, queries) = environment(9);
    let forward = optimize_all(
        &catalog,
        constraints.clone(),
        &queries,
        Some(AssignmentPolicy::Arbitrary),
        QueueDiscipline::Fifo,
    );
    let mut reversed_constraints = constraints;
    reversed_constraints.reverse();
    let reversed = optimize_all(
        &catalog,
        reversed_constraints,
        &queries,
        Some(AssignmentPolicy::Arbitrary),
        QueueDiscipline::Fifo,
    );
    assert_eq!(forward, reversed);
}

#[test]
fn grouping_policy_is_immaterial_to_outcomes() {
    let (catalog, constraints, queries) = environment(13);
    let a = optimize_all(
        &catalog,
        constraints.clone(),
        &queries,
        Some(AssignmentPolicy::Arbitrary),
        QueueDiscipline::Fifo,
    );
    let b = optimize_all(
        &catalog,
        constraints.clone(),
        &queries,
        Some(AssignmentPolicy::Balanced),
        QueueDiscipline::Fifo,
    );
    let c = optimize_all(
        &catalog,
        constraints.clone(),
        &queries,
        Some(AssignmentPolicy::LeastFrequentlyAccessed),
        QueueDiscipline::Fifo,
    );
    let indexed = optimize_all(&catalog, constraints, &queries, None, QueueDiscipline::Fifo);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(c, indexed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form: for random constraint/query populations, every
    /// order-influencing knob yields the same fixpoint.
    #[test]
    fn order_immateriality_holds_for_random_seeds(seed in 0u64..5000) {
        let (catalog, constraints, queries) = environment(seed);
        let fifo = optimize_all(
            &catalog,
            constraints.clone(),
            &queries,
            Some(AssignmentPolicy::Arbitrary),
            QueueDiscipline::Fifo,
        );
        let mut shuffled = constraints.clone();
        shuffled.rotate_left(constraints.len() / 2);
        let rotated = optimize_all(
            &catalog,
            shuffled,
            &queries,
            Some(AssignmentPolicy::Balanced),
            QueueDiscipline::Priority,
        );
        prop_assert_eq!(fifo, rotated);
    }
}
