//! §3's grouping-scheme correctness: the group union always retrieves a
//! superset of the relevant constraints ("Thus the grouping scheme is
//! correct, though not necessarily optimal").

use proptest::prelude::*;
use std::sync::Arc;

use sqo::baseline::{AssignmentPolicy, ConstraintGroups};
use sqo::constraints::{ConstraintStore, StoreOptions};
use sqo::workload::{
    bench_schema::bench_catalog, generate_constraints, paper_query_set, ConstraintGenConfig,
    QueryGenConfig,
};

/// The grouped relevant set, in ascending order.
fn grouped(
    groups: &mut ConstraintGroups<'_>,
    q: &sqo::query::Query,
) -> Vec<sqo::constraints::ConstraintId> {
    let mut ids = groups.relevant_for(q);
    ids.sort_unstable();
    ids
}

fn recall_holds(seed: u64, policy: AssignmentPolicy) {
    let catalog = Arc::new(bench_catalog().unwrap());
    let generated = generate_constraints(
        &catalog,
        ConstraintGenConfig { seed, per_class: 4, ..Default::default() },
    )
    .unwrap();
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        generated.constraints,
        StoreOptions::paper_defaults(),
    )
    .unwrap();
    let mut groups = ConstraintGroups::new(&store, policy);
    let queries = paper_query_set(
        &catalog,
        &generated.forcings,
        20,
        &QueryGenConfig { seed: seed.wrapping_add(3), ..Default::default() },
    );
    for q in &queries {
        assert_eq!(
            grouped(&mut groups, q),
            store.relevant_by_scan(q),
            "policy {policy:?} lost a relevant constraint"
        );
        assert_eq!(
            store.relevant_for(q),
            store.relevant_by_scan(q),
            "the index lost a relevant constraint"
        );
    }
}

#[test]
fn recall_under_all_policies() {
    for policy in [
        AssignmentPolicy::Arbitrary,
        AssignmentPolicy::LeastFrequentlyAccessed,
        AssignmentPolicy::Balanced,
    ] {
        recall_holds(42, policy);
    }
}

#[test]
fn regrouping_preserves_recall() {
    let catalog = Arc::new(bench_catalog().unwrap());
    let generated = generate_constraints(&catalog, ConstraintGenConfig::default()).unwrap();
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        generated.constraints,
        StoreOptions::paper_defaults(),
    )
    .unwrap();
    let mut groups = ConstraintGroups::new(&store, AssignmentPolicy::LeastFrequentlyAccessed);
    let queries = paper_query_set(&catalog, &generated.forcings, 15, &QueryGenConfig::default());
    // Skew the access pattern, regroup repeatedly, and re-check recall.
    let mut moved = false;
    for round in 0..4 {
        let before = groups.group_sizes();
        for q in queries.iter().skip(round) {
            assert_eq!(grouped(&mut groups, q), store.relevant_by_scan(q), "round {round}");
        }
        groups.regroup();
        moved |= groups.group_sizes() != before;
    }
    assert!(moved, "the skewed access pattern moved some constraint to another group");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn recall_for_random_seeds(seed in 0u64..10_000) {
        recall_holds(seed, AssignmentPolicy::LeastFrequentlyAccessed);
    }
}
