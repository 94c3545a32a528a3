//! Property tests for the core algorithm's invariants:
//! tag monotonicity, termination, and the uniqueness of the transformation
//! fixpoint on randomly generated constraint populations.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_catalog::{AttributeDef, Catalog, DataType, IndexKind};
use sqo_constraints::{ConstraintBuilder, ConstraintStore, StoreOptions};
use sqo_core::{
    run_transformations, MatchPolicy, OptimizerConfig, PredicateTag, QueueDiscipline,
    TransformationTable,
};
use sqo_query::{CompOp, QueryBuilder};

/// One class, three feature attributes, three derived attributes (one
/// indexed) — enough to express every constraint shape intra-class.
fn catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    b.class(
        "t",
        vec![
            AttributeDef::new("a0", DataType::Int),
            AttributeDef::new("a1", DataType::Int),
            AttributeDef::new("a2", DataType::Int),
            AttributeDef::new("b0", DataType::Int),
            AttributeDef::new("b1", DataType::Int),
            AttributeDef::indexed("b2", DataType::Int, IndexKind::Hash),
        ],
    )
    .unwrap();
    Arc::new(b.build().unwrap())
}

/// A random single-class constraint population: `a_i = v -> b_j = w` and
/// chains `b_j = w -> b_k = u`.
fn constraints(
    catalog: &Arc<Catalog>,
    spec: &[(u8, i64, u8, i64)],
) -> Vec<sqo_constraints::HornConstraint> {
    spec.iter()
        .enumerate()
        .filter_map(|(i, &(ante, av, cons, cv))| {
            let ante_attr =
                format!("t.{}", ["a0", "a1", "a2", "b0", "b1", "b2"][(ante % 6) as usize]);
            let cons_attr = format!("t.{}", ["b0", "b1", "b2"][(cons % 3) as usize]);
            if ante_attr == cons_attr {
                return None;
            }
            ConstraintBuilder::new(catalog, format!("p{i}"))
                .when(&ante_attr, CompOp::Eq, av)
                .then(&cons_attr, CompOp::Eq, cv)
                .build()
                .ok()
        })
        .collect()
}

fn final_tags(
    catalog: &Arc<Catalog>,
    cs: Vec<sqo_constraints::HornConstraint>,
    query_preds: &[(u8, i64)],
    discipline: QueueDiscipline,
) -> Vec<(String, Option<PredicateTag>)> {
    let store =
        ConstraintStore::build(Arc::clone(catalog), cs, StoreOptions::paper_defaults()).unwrap();
    let mut qb = QueryBuilder::new(catalog).select("t.a0");
    for &(attr, v) in query_preds {
        let name = format!("t.{}", ["a0", "a1", "a2", "b0", "b1", "b2"][(attr % 6) as usize]);
        qb = qb.filter(&name, CompOp::Eq, v);
    }
    let query = qb.build_unchecked();
    if query.validate(store.catalog()).is_err() {
        return vec![];
    }
    let relevant = store.relevant_for(&query);
    let config = OptimizerConfig { queue: discipline, ..OptimizerConfig::paper() };
    let mut table = TransformationTable::build(
        store.catalog(),
        &store,
        &relevant,
        &query,
        MatchPolicy::Implication,
    );
    run_transformations(&mut table, &config);
    let mut out: Vec<(String, Option<PredicateTag>)> =
        table.columns().map(|(id, p)| (format!("{p:?}"), table.final_tag(id))).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| format!("{:?}", a.1).cmp(&format!("{:?}", b.1))));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fixpoint is unique: FIFO and priority queues produce identical
    /// final tags for arbitrary constraint populations, and so does
    /// reversing the constraint list.
    #[test]
    fn unique_fixpoint(
        spec in prop::collection::vec((0u8..6, -3i64..3, 0u8..3, -3i64..3), 1..10),
        query_preds in prop::collection::vec((0u8..6, -3i64..3), 1..4),
    ) {
        let catalog = catalog();
        let cs = constraints(&catalog, &spec);
        prop_assume!(!cs.is_empty());
        let fifo = final_tags(&catalog, cs.clone(), &query_preds, QueueDiscipline::Fifo);
        let prio = final_tags(&catalog, cs.clone(), &query_preds, QueueDiscipline::Priority);
        prop_assert_eq!(&fifo, &prio);
        let mut rev = cs;
        rev.reverse();
        let rev_tags = final_tags(&catalog, rev, &query_preds, QueueDiscipline::Fifo);
        prop_assert_eq!(&fifo, &rev_tags);
    }

    /// Termination + single-fire: the transformation count never exceeds the
    /// number of relevant constraints (each fires at most once).
    #[test]
    fn transformations_bounded_by_constraints(
        spec in prop::collection::vec((0u8..6, -3i64..3, 0u8..3, -3i64..3), 1..12),
        query_preds in prop::collection::vec((0u8..6, -3i64..3), 1..4),
    ) {
        let catalog = catalog();
        let cs = constraints(&catalog, &spec);
        prop_assume!(!cs.is_empty());
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            cs,
            StoreOptions::paper_defaults(),
        ).unwrap();
        let mut qb = QueryBuilder::new(&catalog).select("t.a0");
        for &(attr, v) in &query_preds {
            let name = format!("t.{}", ["a0", "a1", "a2", "b0", "b1", "b2"][(attr % 6) as usize]);
            qb = qb.filter(&name, CompOp::Eq, v);
        }
        let query = qb.build_unchecked();
        prop_assume!(query.validate(store.catalog()).is_ok());
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::paper();
        let mut table = TransformationTable::build(
            store.catalog(), &store, &relevant, &query, MatchPolicy::Implication,
        );
        let log = run_transformations(&mut table, &config);
        prop_assert!(log.applied.len() <= relevant.len());
        // Quiescence: a second run is a no-op.
        let log2 = run_transformations(&mut table, &config);
        prop_assert!(log2.applied.is_empty());
    }

    /// Monotonicity: no predicate's final tag is ever *above* its initial
    /// tag (query predicates start imperative; nothing is promoted).
    #[test]
    fn tags_never_promoted(
        spec in prop::collection::vec((0u8..6, -3i64..3, 0u8..3, -3i64..3), 1..10),
        query_preds in prop::collection::vec((0u8..6, -3i64..3), 1..4),
    ) {
        let catalog = catalog();
        let cs = constraints(&catalog, &spec);
        prop_assume!(!cs.is_empty());
        let tags = final_tags(&catalog, cs, &query_preds, QueueDiscipline::Fifo);
        for (_, tag) in tags {
            if let Some(t) = tag {
                // Imperative is the top: everything observed is <= top.
                prop_assert!(!PredicateTag::Imperative.can_lower_to(t) || t != PredicateTag::Imperative);
            }
        }
    }
}
