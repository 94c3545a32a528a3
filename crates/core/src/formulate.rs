//! Query formulation (§3.4): turn final predicate tags into the transformed
//! query.
//!
//! * **imperative** predicates are retained;
//! * **redundant** predicates are discarded outright (the paper: such
//!   transformations "should always be carried out" — no profitability check
//!   needed);
//! * **optional** predicates go through the cost–benefit oracle;
//! * **class elimination** (King's rule) runs first, under the structural
//!   soundness conditions `eliminable` checks — dangling class, nothing
//!   projected, no imperative predicate, and exactly-one linkage from the
//!   surviving side (to-one + total participation);
//! * projections whose value is pinned by an entailed equality get the
//!   paper's `attr=value` **binding** annotation (Figure 2.3's
//!   `cargo.desc="frozen food"`).

use sqo_catalog::{Catalog, ClassId};
use sqo_query::{Predicate, Query};

use crate::config::OptimizerConfig;
use crate::oracle::ProfitOracle;
use crate::table::TransformationTable;
use crate::tag::{ColumnPresence, PredicateTag};

/// Outcome of formulation, with full bookkeeping for the report.
#[derive(Debug, Clone)]
pub struct FormulationResult {
    pub query: Query,
    pub eliminated_classes: Vec<ClassId>,
    /// Predicates dropped because their final tag was redundant.
    pub dropped_redundant: Vec<Predicate>,
    /// Optional predicates dropped by the cost–benefit analysis.
    pub dropped_unprofitable: Vec<Predicate>,
    /// Optional predicates retained in the final query.
    pub retained_optional: Vec<Predicate>,
    /// Predicates newly introduced into the final query.
    pub introduced: Vec<Predicate>,
    /// Final classification of every predicate that was in play.
    pub final_tags: Vec<(Predicate, PredicateTag)>,
    /// The entailed predicate set is contradictory: every result row would
    /// have to satisfy two mutually exclusive predicates, so the answer is
    /// empty *without touching the database* — the paper's "unless the
    /// output can be obtained without going to the database" case.
    pub provably_empty: bool,
}

/// Reusable working memory of formulation's cost–benefit loops.
///
/// Every class-elimination and optional-predicate decision costs a
/// *candidate* query — the working query minus one class or predicate.
/// Building that candidate used to be a fresh five-vector [`Query`] clone
/// per decision, which profiling showed dominating the cold path
/// (formulation was ~9 of ~16 µs). The scratch keeps one candidate buffer
/// alive across all decisions of one [`formulate_with`] call — and, held inside
/// [`crate::OptimizerScratch`], across every `optimize_with` call of a
/// worker thread: candidates are written into the buffer with
/// allocation-reusing `clone_from`s, and an *adopted* candidate is swapped
/// with the working query instead of moved, so the steady state allocates
/// nothing per decision.
#[derive(Debug, Default)]
pub struct FormulationScratch {
    /// The candidate buffer the next decision is formulated into.
    candidate: Query,
}

impl FormulationScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs query formulation over the post-transformation table.
///
/// Allocates fresh working memory; repeated callers (the optimizer's
/// pipeline) should hold a [`FormulationScratch`] and use
/// [`formulate_with`].
pub fn formulate(
    catalog: &Catalog,
    original: &Query,
    table: &TransformationTable,
    config: &OptimizerConfig,
    oracle: &dyn ProfitOracle,
) -> FormulationResult {
    formulate_with(catalog, original, table, config, oracle, &mut FormulationScratch::new())
}

/// [`formulate`] against reusable candidate buffers.
pub fn formulate_with(
    catalog: &Catalog,
    original: &Query,
    table: &TransformationTable,
    config: &OptimizerConfig,
    oracle: &dyn ProfitOracle,
    scratch: &mut FormulationScratch,
) -> FormulationResult {
    let mut final_tags = Vec::new();
    let mut dropped_redundant = Vec::new();
    let mut introduced = Vec::new();

    // Working query: original shape, predicates re-derived from the table.
    let mut q = original.clone();
    q.join_predicates.clear();
    q.selective_predicates.clear();

    let mut optional: Vec<Predicate> = Vec::new();
    let mut imperative: Vec<Predicate> = Vec::new();
    for (col, pred) in table.pool().iter() {
        let Some(tag) = table.final_tag(col) else {
            continue;
        };
        final_tags.push((pred.clone(), tag));
        let is_introduced = table.presence(col) == ColumnPresence::Introduced;
        if is_introduced && tag != PredicateTag::Redundant {
            introduced.push(pred.clone());
        }
        match tag {
            PredicateTag::Redundant => dropped_redundant.push(pred.clone()),
            PredicateTag::Imperative => {
                push_pred(&mut q, pred);
                imperative.push(pred.clone());
            }
            PredicateTag::Optional => {
                push_pred(&mut q, pred);
                optional.push(pred.clone());
            }
        }
    }

    // ---- class elimination (before optional filtering, as in §3.4) -------
    let mut eliminated_classes = Vec::new();
    if config.class_elimination {
        while let Ok(graph) = q.graph(catalog) {
            let mut eliminated_this_round = false;
            for class in graph.dangling_classes() {
                // "The absence of imperative predicates on its attributes is
                // a necessary … condition for an object class to be
                // eliminated" (§3.4).
                if imperative.iter().any(|p| p.involves(class)) {
                    continue;
                }
                if !eliminable(catalog, &q, class) {
                    continue;
                }
                without_class_into(catalog, &q, class, &mut scratch.candidate);
                if oracle.eliminate_class(&q, &scratch.candidate, class) {
                    // Any predicates that vanish with the class were optional.
                    for p in q.predicates() {
                        if p.involves(class) {
                            optional.retain(|o| o != &p);
                            introduced.retain(|i| i != &p);
                        }
                    }
                    // Adopt the candidate; the old working query becomes the
                    // next decision's buffer.
                    std::mem::swap(&mut q, &mut scratch.candidate);
                    eliminated_classes.push(class);
                    eliminated_this_round = true;
                    break; // graph changed; recompute
                }
            }
            if !eliminated_this_round {
                break;
            }
        }
    }

    // ---- optional predicate retention (cost–benefit) ----------------------
    let mut dropped_unprofitable = Vec::new();
    let mut retained_optional = Vec::new();
    for pred in optional {
        if !q.contains_predicate(&pred) {
            continue; // removed together with an eliminated class
        }
        without_predicate_into(&q, &pred, &mut scratch.candidate);
        if oracle.retain_optional(&q, &scratch.candidate, &pred) {
            retained_optional.push(pred);
        } else {
            dropped_unprofitable.push(pred.clone());
            std::mem::swap(&mut q, &mut scratch.candidate);
        }
    }
    introduced.retain(|p| q.contains_predicate(p));

    // ---- projection bindings ----------------------------------------------
    // An entailed equality (present in the query or introduced — regardless
    // of retention) pins the projected value.
    for proj in q.projections.iter_mut() {
        if proj.binding.is_some() {
            continue;
        }
        for (col, pred) in table.pool().iter() {
            if !matches!(table.presence(col), ColumnPresence::InQuery | ColumnPresence::Introduced)
            {
                continue;
            }
            if let Predicate::Sel(s) = pred {
                if s.attr == proj.attr && s.op == sqo_query::CompOp::Eq {
                    proj.binding = Some(s.value.clone());
                    break;
                }
            }
        }
    }

    // ---- contradiction detection -------------------------------------------
    // Every predicate that is present in the original query or was
    // introduced by a constraint holds on *all* result rows (introduction is
    // sound by entailment). If any two of them are mutually exclusive, the
    // result is provably empty.
    let entailed: Vec<&Predicate> = table
        .pool()
        .iter()
        .filter(|(col, _)| {
            matches!(table.presence(*col), ColumnPresence::InQuery | ColumnPresence::Introduced)
        })
        .map(|(_, p)| p)
        .collect();
    let mut provably_empty = false;
    'outer: for (i, a) in entailed.iter().enumerate() {
        if let Predicate::Sel(sa) = a {
            if sa.is_unsatisfiable() {
                provably_empty = true;
                break;
            }
            for b in &entailed[i + 1..] {
                if let Predicate::Sel(sb) = b {
                    if sa.contradicts(sb) {
                        provably_empty = true;
                        break 'outer;
                    }
                }
            }
        }
    }

    FormulationResult {
        query: q,
        eliminated_classes,
        dropped_redundant,
        dropped_unprofitable,
        retained_optional,
        introduced,
        final_tags,
        provably_empty,
    }
}

fn push_pred(q: &mut Query, pred: &Predicate) {
    match pred {
        Predicate::Sel(s) => {
            if !q.selective_predicates.contains(s) {
                q.selective_predicates.push(s.clone());
            }
        }
        Predicate::Join(j) => {
            if !q.join_predicates.contains(j) {
                q.join_predicates.push(*j);
            }
        }
    }
}

/// Field-wise `clone_from`: `out` becomes a copy of `src` while reusing
/// `out`'s heap allocations (the derived `Clone` would allocate all five
/// vectors afresh).
fn clone_query_into(src: &Query, out: &mut Query) {
    out.projections.clone_from(&src.projections);
    out.join_predicates.clone_from(&src.join_predicates);
    out.selective_predicates.clone_from(&src.selective_predicates);
    out.relationships.clone_from(&src.relationships);
    out.classes.clone_from(&src.classes);
}

/// Writes `q` minus `pred` into the reusable buffer `out`.
fn without_predicate_into(q: &Query, pred: &Predicate, out: &mut Query) {
    clone_query_into(q, out);
    match pred {
        Predicate::Sel(s) => out.selective_predicates.retain(|x| x != s),
        Predicate::Join(j) => out.join_predicates.retain(|x| x != j),
    }
}

/// Structural soundness of eliminating `class` from `q`:
/// 1. nothing projected from the class;
/// 2. no imperative predicate touches it (checked by the caller, which owns
///    the tag bookkeeping);
/// 3. the class hangs off exactly one relationship, and the *surviving* end
///    is to-one and total: every surviving object has exactly one partner,
///    so dropping the join preserves multiplicity.
fn eliminable(catalog: &Catalog, q: &Query, class: ClassId) -> bool {
    if q.projections.iter().any(|p| p.attr.class == class) {
        return false;
    }
    // Exactly one incident relationship.
    let incident: Vec<_> = q
        .relationships
        .iter()
        .copied()
        .filter(|&r| catalog.relationship(r).map(|def| def.involves(class)).unwrap_or(false))
        .collect();
    if incident.len() != 1 {
        return false;
    }
    let rel = incident[0];
    let Ok(def) = catalog.relationship(rel) else {
        return false;
    };
    let Some(survivor) = def.other_end(class) else {
        return false;
    };
    if survivor == class {
        return false; // self-relationship: never eliminable
    }
    let Some(surviving_end) = def.end_for(survivor) else {
        return false;
    };
    surviving_end.multiplicity == sqo_catalog::Multiplicity::One && surviving_end.total
}

/// Writes `q` minus the class, its single relationship and its predicates
/// into the reusable buffer `out`.
fn without_class_into(catalog: &Catalog, q: &Query, class: ClassId, out: &mut Query) {
    clone_query_into(q, out);
    out.classes.retain(|&c| c != class);
    out.relationships
        .retain(|&r| catalog.relationship(r).map(|def| !def.involves(class)).unwrap_or(true));
    out.selective_predicates.retain(|s| s.attr.class != class);
    out.join_predicates.retain(|j| !j.involves(class));
    out.projections.retain(|p| p.attr.class != class);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::oracle::{DropAllOracle, StructuralOracle};
    use crate::table::TransformationTable;
    use crate::transform::run_transformations;
    use sqo_catalog::example::figure21;
    use sqo_constraints::{figure22, ConstraintStore, StoreOptions};
    use sqo_query::{CompOp, QueryBuilder, QueryExt};
    use std::sync::Arc;

    fn fig23_setup() -> (Arc<Catalog>, ConstraintStore, Query) {
        let catalog = Arc::new(figure21().unwrap());
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions { materialize_closure: false, ..StoreOptions::paper_defaults() },
        )
        .unwrap();
        let query = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "SFI")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        (catalog, store, query)
    }

    fn run_formulation(
        catalog: &Catalog,
        store: &ConstraintStore,
        query: &Query,
        oracle: &dyn ProfitOracle,
    ) -> FormulationResult {
        let relevant = store.relevant_for(query);
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(catalog, store, &relevant, query, config.match_policy);
        run_transformations(&mut table, &config);
        formulate(catalog, query, &table, &config, oracle)
    }

    /// End-to-end §3.5: the formulated query must equal the paper's
    /// transformed query, including the supplier elimination and the bound
    /// projection.
    #[test]
    fn figure23_final_query() {
        let (catalog, store, query) = fig23_setup();
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        let supplier = catalog.class_id("supplier").unwrap();
        assert_eq!(res.eliminated_classes, vec![supplier]);
        let printed = res.query.display(&catalog).to_string();
        assert_eq!(
            printed,
            "(SELECT {vehicle.vehicle_no, cargo.desc=\"frozen food\", cargo.quantity} {} \
             {vehicle.desc = \"refrigerated truck\", cargo.desc = \"frozen food\"} \
             {collects} {vehicle, cargo})"
        );
        res.query.validate(&catalog).expect("formulated query must validate");
        // Bookkeeping: p2 was optional and vanished with the class; p3 was
        // introduced and retained.
        assert_eq!(res.retained_optional.len(), 1);
        assert_eq!(res.introduced.len(), 1);
    }

    #[test]
    fn drop_all_oracle_strips_optionals_but_keeps_imperatives() {
        let (catalog, store, query) = fig23_setup();
        let res = run_formulation(&catalog, &store, &query, &DropAllOracle);
        // Imperative vehicle.desc remains; optional cargo.desc dropped.
        let printed = res.query.display(&catalog).to_string();
        assert!(printed.contains("vehicle.desc = \"refrigerated truck\""), "{printed}");
        assert!(!printed.contains("cargo.desc = \"frozen food\","), "{printed}");
        assert!(res.retained_optional.is_empty());
        // The projection binding survives: entailment does not depend on
        // retention.
        assert!(printed.contains("cargo.desc=\"frozen food\""), "{printed}");
        res.query.validate(&catalog).unwrap();
    }

    #[test]
    fn class_with_projection_not_eliminated() {
        let (catalog, store, mut query) = fig23_setup();
        // Project something from supplier: it must survive.
        query
            .projections
            .push(sqo_query::Projection::plain(catalog.attr_ref("supplier", "address").unwrap()));
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        assert!(res.eliminated_classes.is_empty());
        assert!(query.classes.iter().all(|c| res.query.classes.contains(c)));
    }

    #[test]
    fn class_with_imperative_predicate_not_eliminated() {
        let (catalog, store, mut query) = fig23_setup();
        // supplier.address has no constraint justifying it: stays imperative.
        query.selective_predicates.push(sqo_query::SelPredicate::new(
            catalog.attr_ref("supplier", "address").unwrap(),
            CompOp::Eq,
            sqo_catalog::Value::str("1 Food St"),
        ));
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        assert!(res.eliminated_classes.is_empty());
        let printed = res.query.display(&catalog).to_string();
        assert!(printed.contains("supplier.address"), "{printed}");
    }

    #[test]
    fn non_dangling_class_not_eliminated() {
        let (catalog, store, _) = fig23_setup();
        // cargo sits between supplier and vehicle: degree 2, never dangling.
        let query = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("supplier.name")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        assert!(!res.eliminated_classes.contains(&catalog.class_id("cargo").unwrap()));
    }

    #[test]
    fn elimination_requires_total_to_one_link() {
        // drives: vehicle (to-one, total) -> driver. Eliminating `driver`
        // from a vehicle query is sound; eliminating `vehicle` from a driver
        // query is NOT (a driver may drive many vehicles).
        let (catalog, store, _) = fig23_setup();
        let q_vehicle =
            QueryBuilder::new(&catalog).select("vehicle.vehicle_no").via("drives").build().unwrap();
        let res = run_formulation(&catalog, &store, &q_vehicle, &StructuralOracle);
        assert_eq!(res.eliminated_classes, vec![catalog.class_id("driver").unwrap()]);

        let q_driver =
            QueryBuilder::new(&catalog).select("driver.name").via("drives").build().unwrap();
        let res2 = run_formulation(&catalog, &store, &q_driver, &StructuralOracle);
        assert!(
            res2.eliminated_classes.is_empty(),
            "vehicle end is not total/to-one from driver's side"
        );
    }

    #[test]
    fn contradiction_with_introduced_predicate_is_detected() {
        // c1 entails cargo.desc = "frozen food" for refrigerated trucks; a
        // query that also demands cargo.desc = "durian" can never return a
        // row, and formulation must notice without any data access.
        let (catalog, store, mut query) = fig23_setup();
        query
            .selective_predicates
            .retain(|s| catalog.qualified_attr_name(s.attr) != "supplier.name");
        query.classes.retain(|&c| c != catalog.class_id("supplier").unwrap());
        query.relationships.retain(|&r| r != catalog.rel_id("supplies").unwrap());
        query.selective_predicates.push(sqo_query::SelPredicate::new(
            catalog.attr_ref("cargo", "desc").unwrap(),
            CompOp::Eq,
            sqo_catalog::Value::str("durian"),
        ));
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        assert!(res.provably_empty, "{res:?}");
        // The sane query from the other tests is satisfiable.
        let (catalog, store, query) = fig23_setup();
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        assert!(!res.provably_empty);
    }

    #[test]
    fn redundant_predicates_always_dropped_without_oracle_consultation() {
        let catalog = Arc::new(figure21().unwrap());
        let c = sqo_constraints::ConstraintBuilder::new(&catalog, "intra")
            .when("manager.name", CompOp::Eq, "alice")
            .then("manager.rank", CompOp::Eq, "research staff member")
            .build()
            .unwrap();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            vec![c],
            StoreOptions { materialize_closure: false, ..StoreOptions::paper_defaults() },
        )
        .unwrap();
        let query = QueryBuilder::new(&catalog)
            .select("manager.clearance")
            .filter("manager.name", CompOp::Eq, "alice")
            .filter("manager.rank", CompOp::Eq, "research staff member")
            .build()
            .unwrap();
        let res = run_formulation(&catalog, &store, &query, &StructuralOracle);
        assert_eq!(res.dropped_redundant.len(), 1);
        let printed = res.query.display(&catalog).to_string();
        assert!(!printed.contains("rank"), "{printed}");
        assert!(printed.contains("manager.name = \"alice\""), "{printed}");
    }
}
