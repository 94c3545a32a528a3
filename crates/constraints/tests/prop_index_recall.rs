//! Recall-equivalence of the constraint index: for arbitrary stores and
//! queries, the indexed retrieval (`ConstraintStore::relevant_into`) must
//! return **exactly** the same constraint set as the linear scan
//! (`relevant_by_scan`) and as the paper's grouped scheme under each
//! assignment policy (`sqo_baseline::ConstraintGroups`) — the index may
//! never drop a relevant constraint nor invent an irrelevant one, including
//! across incremental inserts and copy-on-write store copies.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_baseline::{AssignmentPolicy, ConstraintGroups};
use sqo_catalog::{AttributeDef, Catalog, ClassId, DataType, RelId};
use sqo_constraints::{ConstraintStore, HornConstraint, RetrievalScratch, StoreOptions};
use sqo_query::{CompOp, Predicate, Query};

const CLASSES: usize = 6;
const ATTRS: usize = 3;

/// A 6-class chain schema with 3 int attributes per class and a
/// relationship between each adjacent pair — enough shape for constraints
/// spanning 1–3 classes with relationship requirements.
fn catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    let mut ids = Vec::new();
    for c in 0..CLASSES {
        let attrs = (0..ATTRS).map(|a| AttributeDef::new(format!("a{a}"), DataType::Int)).collect();
        ids.push(b.class(format!("c{c}"), attrs).unwrap());
    }
    for w in ids.windows(2) {
        b.many_to_one(format!("r{}", w[0].0), w[0], w[1]).unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// One randomly-shaped (but always valid) constraint: distinct antecedent
/// attributes, a consequent on a different attribute, and any subset of the
/// adjacent relationships among the referenced classes.
#[derive(Debug, Clone)]
struct RawConstraint {
    antecedents: Vec<(usize, usize, i64)>, // (class, attr, value)
    consequent: (usize, usize, i64),
    rels: Vec<usize>,
}

fn raw_constraint() -> impl Strategy<Value = RawConstraint> {
    let site = (0..CLASSES, 0..ATTRS, -3i64..3);
    (
        proptest::collection::vec(site.clone(), 0..3),
        site,
        proptest::collection::vec(0..(CLASSES - 1), 0..2),
    )
        .prop_map(|(antecedents, consequent, rels)| RawConstraint {
            antecedents,
            consequent,
            rels,
        })
}

fn materialize(catalog: &Catalog, raw: &RawConstraint) -> Option<HornConstraint> {
    let pred = |&(c, a, v): &(usize, usize, i64)| {
        let attr = catalog.attr_ref(&format!("c{c}"), &format!("a{a}")).unwrap();
        Predicate::sel(attr, CompOp::Eq, v)
    };
    // Drop clauses with duplicate antecedent sites — same-attribute equality
    // pairs are either redundant or contradictory, both rejected anyway.
    let mut sites: Vec<(usize, usize)> = raw.antecedents.iter().map(|&(c, a, _)| (c, a)).collect();
    sites.push((raw.consequent.0, raw.consequent.1));
    sites.sort_unstable();
    sites.dedup();
    if sites.len() != raw.antecedents.len() + 1 {
        return None;
    }
    HornConstraint::new(
        catalog,
        "p",
        raw.antecedents.iter().map(pred).collect(),
        raw.rels.iter().map(|&r| RelId(r as u32)).collect(),
        pred(&raw.consequent),
        vec![],
    )
    .ok()
}

/// A raw retrieval probe: any class subset and relationship subset. The
/// retrieval APIs only consult these two lists, so the probe need not be an
/// executable (connected, projected) query.
fn raw_query() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (
        proptest::collection::vec(0..CLASSES, 0..CLASSES),
        proptest::collection::vec(0..(CLASSES - 1), 0..3),
    )
}

fn probe(classes: &[usize], rels: &[usize]) -> Query {
    let mut q = Query::new();
    q.classes = classes.iter().map(|&c| ClassId(c as u32)).collect();
    q.classes.sort_unstable();
    q.classes.dedup();
    q.relationships = rels.iter().map(|&r| RelId(r as u32)).collect();
    q.relationships.sort_unstable();
    q.relationships.dedup();
    q
}

fn assert_equivalent(store: &ConstraintStore, query: &Query) {
    let mut indexed = Vec::new();
    store.relevant_into(query, &mut RetrievalScratch::new(), &mut indexed);
    let linear = store.relevant_by_scan(query);
    assert_eq!(indexed, linear, "index must match the linear scan exactly");
    for policy in [
        AssignmentPolicy::Arbitrary,
        AssignmentPolicy::LeastFrequentlyAccessed,
        AssignmentPolicy::Balanced,
    ] {
        let mut grouped = ConstraintGroups::new(store, policy).relevant_for(query);
        grouped.sort_unstable();
        assert_eq!(grouped, linear, "{policy:?} grouping must match the linear scan exactly");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Build-time index: equivalence over arbitrary stores and probes.
    #[test]
    fn indexed_retrieval_equals_linear_scan(
        raws in proptest::collection::vec(raw_constraint(), 0..16),
        probes in proptest::collection::vec(raw_query(), 1..8),
    ) {
        let catalog = catalog();
        let constraints: Vec<HornConstraint> =
            raws.iter().filter_map(|r| materialize(&catalog, r)).collect();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            constraints,
            StoreOptions::paper_defaults(),
        ).unwrap();
        for (classes, rels) in &probes {
            assert_equivalent(&store, &probe(classes, rels));
        }
    }

    /// The index stays exact across copy-on-write copies (the serving
    /// layer's constraint-update path), and a chain of copies retrieves
    /// what one build over the same constraints does.
    #[test]
    fn index_survives_inserts_and_cow_copies(
        base in proptest::collection::vec(raw_constraint(), 0..8),
        extra in proptest::collection::vec(raw_constraint(), 1..6),
        probes in proptest::collection::vec(raw_query(), 1..6),
    ) {
        let catalog = catalog();
        let constraints: Vec<HornConstraint> =
            base.iter().filter_map(|r| materialize(&catalog, r)).collect();
        let seeds: Vec<HornConstraint> =
            extra.iter().filter_map(|r| materialize(&catalog, r)).collect();
        prop_assume!(!seeds.is_empty());
        let mut cow = ConstraintStore::build(
            Arc::clone(&catalog),
            constraints.clone(),
            StoreOptions::paper_defaults(),
        ).unwrap();
        for c in &seeds {
            cow = cow.with_constraint(c.clone()).unwrap().0;
        }
        let built = ConstraintStore::build(
            Arc::clone(&catalog),
            constraints.into_iter().chain(seeds).collect(),
            StoreOptions::paper_defaults(),
        ).unwrap();
        for (classes, rels) in &probes {
            let q = probe(classes, rels);
            assert_equivalent(&cow, &q);
            assert_eq!(cow.relevant_for(&q), built.relevant_for(&q));
        }
    }
}
