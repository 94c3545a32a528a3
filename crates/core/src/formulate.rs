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
use sqo_constraints::PredId;
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

/// Reusable working memory of formulation: the column ids of the optional and
/// imperative predicates, which stay ids until a result list takes a copy.
///
/// No candidate query lives here. A cost–benefit decision names the working
/// query and the one predicate or class it would lose (see
/// [`ProfitOracle`]), and the working query is edited in place only when
/// the difference is adopted. Held inside [`crate::OptimizerScratch`], the
/// buffers serve every `optimize_with` call of a worker thread.
#[derive(Debug, Default)]
pub struct FormulationScratch {
    optional: Vec<PredId>,
    imperative: Vec<PredId>,
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

/// [`formulate`] against reusable buffers.
///
/// Formulation has no configurable step, so `_config` is not read; the
/// parameter keeps the signature `benches/e2e`'s shadow pipeline calls.
pub fn formulate_with(
    catalog: &Catalog,
    original: &Query,
    table: &TransformationTable,
    _config: &OptimizerConfig,
    oracle: &dyn ProfitOracle,
    scratch: &mut FormulationScratch,
) -> FormulationResult {
    let FormulationScratch { optional, imperative } = scratch;
    optional.clear();
    imperative.clear();
    let mut final_tags = Vec::new();
    let mut dropped_redundant = Vec::new();

    // Working query: original shape, predicates re-derived from the table.
    let mut q = Query {
        projections: original.projections.clone(),
        join_predicates: Vec::new(),
        selective_predicates: Vec::new(),
        relationships: original.relationships.clone(),
        classes: original.classes.clone(),
    };
    for (col, pred) in table.columns() {
        let Some(tag) = table.final_tag(col) else {
            continue;
        };
        final_tags.push((pred.clone(), tag));
        match tag {
            PredicateTag::Redundant => dropped_redundant.push(pred.clone()),
            PredicateTag::Imperative => {
                push_pred(&mut q, pred);
                imperative.push(col);
            }
            PredicateTag::Optional => {
                push_pred(&mut q, pred);
                optional.push(col);
            }
        }
    }
    oracle.begin();

    // ---- class elimination (before optional filtering, as in §3.4) -------
    // Only in a query whose relationships all resolve and link listed
    // classes (`Query::validate`'s condition, which `remove_class` keeps): a
    // malformed query loses nothing.
    let mut eliminated_classes = Vec::new();
    let linked = |r| {
        catalog.relationship(r).is_ok_and(|def| {
            let (a, b) = def.classes();
            q.has_class(a) && q.has_class(b)
        })
    };
    if q.relationships.iter().copied().all(linked) {
        while let Some(class) = q.classes.iter().copied().find(|&class| {
            // "The absence of imperative predicates on its attributes is
            // a necessary … condition for an object class to be
            // eliminated" (§3.4).
            !imperative.iter().any(|&p| table.predicate(p).involves(class))
                && eliminable(catalog, &q, class)
                && oracle.eliminate_class(&q, class)
        }) {
            // Any predicates that vanish with the class were optional.
            remove_class(catalog, &mut q, class);
            eliminated_classes.push(class);
        }
    }

    // ---- optional predicate retention (cost–benefit) ----------------------
    let mut dropped_unprofitable = Vec::new();
    let mut retained_optional = Vec::new();
    for pred in optional.iter().map(|&p| table.predicate(p)) {
        if !q.contains_predicate(pred) {
            continue; // removed together with an eliminated class
        }
        if oracle.retain_optional(&q, pred) {
            retained_optional.push(pred.clone());
        } else {
            dropped_unprofitable.push(pred.clone());
            q.remove_predicate(pred);
        }
    }
    let introduced = table
        .columns()
        .filter(|(col, pred)| {
            table.presence(*col) == ColumnPresence::Introduced && q.contains_predicate(pred)
        })
        .map(|(_, pred)| pred.clone())
        .collect();

    // ---- projection bindings ----------------------------------------------
    // An entailed equality (present in the query or introduced — regardless
    // of retention) pins the projected value.
    for proj in q.projections.iter_mut() {
        if proj.binding.is_some() {
            continue;
        }
        for (col, pred) in table.columns() {
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
        .columns()
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
    let mut incident = q
        .relationships
        .iter()
        .filter_map(|&r| catalog.relationship(r).ok())
        .filter(|def| def.involves(class));
    let (Some(def), None) = (incident.next(), incident.next()) else {
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

/// Removes the class, its single relationship and its predicates from `q`,
/// keeping the order of what stays.
fn remove_class(catalog: &Catalog, q: &mut Query, class: ClassId) {
    q.classes.retain(|&c| c != class);
    q.relationships
        .retain(|&r| catalog.relationship(r).map(|def| !def.involves(class)).unwrap_or(true));
    q.selective_predicates.retain(|s| s.attr.class != class);
    q.join_predicates.retain(|j| !j.involves(class));
    q.projections.retain(|p| p.attr.class != class);
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
            StoreOptions::paper_defaults(),
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

    /// A query `validate` would reject — a relationship with an endpoint
    /// outside the class list, or one the catalog does not know — loses no
    /// class (the well-formed query loses `supplier`) and does not panic.
    #[test]
    fn malformed_relationships_eliminate_nothing() {
        let (catalog, store, query) = fig23_setup();
        let mut unlisted_endpoint = query.clone();
        unlisted_endpoint.relationships.push(catalog.rel_id("drives").unwrap()); // no `driver`
        let mut unknown_rel = query.clone();
        unknown_rel.relationships.push(sqo_catalog::RelId(999));
        for bad in [unlisted_endpoint, unknown_rel] {
            assert!(bad.validate(&catalog).is_err());
            let res = run_formulation(&catalog, &store, &bad, &StructuralOracle);
            assert!(res.eliminated_classes.is_empty(), "{res:?}");
            assert_eq!(res.query.classes, bad.classes);
            assert_eq!(res.query.relationships, bad.relationships);
        }
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
        let store =
            ConstraintStore::build(Arc::clone(&catalog), vec![c], StoreOptions::paper_defaults())
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
