//! End-to-end reproduction of the paper's worked example (Figure 2.3 + §3.5).

use std::sync::Arc;

use sqo::baseline::{AssignmentPolicy, ConstraintGroups};
use sqo::catalog::example::figure21;
use sqo::constraints::{figure22, ConstraintStore, StoreOptions};
use sqo::core::{
    run_transformations, MatchPolicy, OptimizerConfig, PredicateTag, SemanticOptimizer,
    StructuralOracle, TransformationTable,
};
use sqo::query::{parse_query, QueryExt};

const FIG23_ORIGINAL: &str = r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
    {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
    {collects, supplies} {supplier, cargo, vehicle})"#;

fn setup() -> (Arc<sqo::catalog::Catalog>, ConstraintStore) {
    let catalog = Arc::new(figure21().unwrap());
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        figure22(&catalog).unwrap(),
        StoreOptions::paper_defaults(),
    )
    .unwrap();
    (catalog, store)
}

/// The final transformed query of Figure 2.3, exactly.
#[test]
fn figure23_transformed_query_matches_paper() {
    let (catalog, store) = setup();
    let optimizer = SemanticOptimizer::new(&store);
    let query = parse_query(FIG23_ORIGINAL, &catalog).unwrap();
    let out = optimizer.optimize(&query, &StructuralOracle).unwrap();
    assert_eq!(
        out.query.display(&catalog).to_string(),
        "(SELECT {vehicle.vehicle_no, cargo.desc=\"frozen food\", cargo.quantity} {} \
         {vehicle.desc = \"refrigerated truck\", cargo.desc = \"frozen food\"} \
         {collects} {cargo, vehicle})"
    );
}

/// §3.5 step 1: C = {c1, c2}; P = {p1, p2, p3}; T as printed in the paper.
#[test]
fn section35_initialization_state() {
    let (catalog, store) = setup();
    let query = parse_query(FIG23_ORIGINAL, &catalog).unwrap();
    let relevant = store.relevant_for(&query);
    let names: Vec<&str> = relevant.iter().map(|&id| store.constraint(id).name.as_str()).collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&"c1") && names.contains(&"c2"));
    // §3's group fetch, under the paper's LFA assignment, finds the same C.
    let mut grouped = ConstraintGroups::new(&store, AssignmentPolicy::LeastFrequentlyAccessed)
        .relevant_for(&query);
    grouped.sort_unstable();
    assert_eq!(grouped, relevant);

    let table =
        TransformationTable::build(&catalog, &store, &relevant, &query, MatchPolicy::Implication);
    assert_eq!(table.column_count(), 3, "P = {{p1, p2, p3}}");
    // p1, p2 (query predicates) start imperative; p3 is not yet present.
    use sqo::constraints::PredId;
    assert_eq!(table.final_tag(PredId(0)), Some(PredicateTag::Imperative));
    assert_eq!(table.final_tag(PredId(1)), Some(PredicateTag::Imperative));
    assert_eq!(table.final_tag(PredId(2)), None);
}

/// §3.5 steps 2–3: after the two transformations, p1 is imperative and
/// p2, p3 are optional; supplier is eliminated at formulation.
#[test]
fn section35_final_tags() {
    let (catalog, store) = setup();
    let query = parse_query(FIG23_ORIGINAL, &catalog).unwrap();
    let relevant = store.relevant_for(&query);
    let config = OptimizerConfig::paper();
    let mut table =
        TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
    let log = run_transformations(&mut table, &config);
    assert_eq!(log.applied.len(), 2);
    use sqo::constraints::PredId;
    assert_eq!(table.final_tag(PredId(0)), Some(PredicateTag::Imperative), "p1");
    assert_eq!(table.final_tag(PredId(1)), Some(PredicateTag::Optional), "p2");
    assert_eq!(table.final_tag(PredId(2)), Some(PredicateTag::Optional), "p3");
}

/// The paper's query format round-trips: parse → display → parse.
#[test]
fn paper_syntax_round_trip() {
    let (catalog, _) = setup();
    let q1 = parse_query(FIG23_ORIGINAL, &catalog).unwrap();
    let printed = q1.display(&catalog).to_string();
    let q2 = parse_query(&printed, &catalog).unwrap();
    assert_eq!(q1, q2);
}
