//! The tentative-transformation engine (§3.2 *Update Transformation Queue* +
//! §3.3 *Transformation*).
//!
//! The engine never touches the query. It walks the transformation table:
//! every eligible constraint fires exactly once, lowering (or assigning) its
//! consequent's tag per Tables 3.1/3.2 and making an introduced column
//! present (its `AbsentAntecedent` cells read `PresentAntecedent` from then
//! on), which may enable further constraints. Because tag
//! assignment is a lattice meet and enabling is monotone, the fixpoint is
//! unique — the order of transformations is immaterial (property-tested in
//! `tests/order_immaterial.rs`).

use sqo_constraints::{ConstraintClass, ConstraintId};
use sqo_query::Predicate;

use crate::config::OptimizerConfig;
use crate::queue::{ActionKind, TransformationQueue};
use crate::table::TransformationTable;
use crate::tag::{ColumnPresence, PredicateTag};

/// What a fired constraint did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformationKind {
    /// Lowered the tag of a predicate present in the original query
    /// (restriction elimination).
    RestrictionElimination,
    /// Introduced a predicate on a non-indexed attribute.
    RestrictionIntroduction,
    /// Introduced a predicate on an indexed attribute (index introduction).
    IndexIntroduction,
    /// Lowered the tag of an already-introduced predicate further.
    TagLowering,
}

/// One applied transformation, for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformationRecord {
    pub constraint: ConstraintId,
    pub predicate: Predicate,
    pub kind: TransformationKind,
    pub from: Option<PredicateTag>,
    pub to: PredicateTag,
}

/// Outcome of the transformation phase.
#[derive(Debug, Clone, Default)]
pub struct TransformLog {
    pub applied: Vec<TransformationRecord>,
    /// Rows popped that turned out to be no-ops (already at target tag).
    pub noops: usize,
    /// True if the §4 budget stopped the loop early.
    pub budget_exhausted: bool,
}

/// The target tag a row's firing assigns, per Tables 3.1/3.2: an
/// intra-class constraint lowers its consequent to `Redundant` unless the
/// consequent is on an indexed attribute, in which case `Optional`; an
/// inter-class constraint lowers it to `Optional`.
pub fn target_tag(classification: ConstraintClass, consequent_indexed: bool) -> PredicateTag {
    match classification {
        ConstraintClass::Intra if !consequent_indexed => PredicateTag::Redundant,
        ConstraintClass::Intra | ConstraintClass::Inter => PredicateTag::Optional,
    }
}

/// Pending action of a row given the current table state; `None` when the
/// row cannot contribute (and should leave `C`).
fn pending_action(table: &TransformationTable, ri: usize) -> Option<ActionKind> {
    let row = table.row(ri);
    if !row.active || !table.antecedents_satisfied(ri) {
        return None;
    }
    let target = target_tag(row.classification, row.consequent_indexed);
    match table.tag(row.consequent) {
        Some(current) => {
            if current.can_lower_to(target) {
                Some(ActionKind::RestrictionElimination)
            } else {
                None
            }
        }
        None => Some(if row.consequent_indexed {
            ActionKind::IndexIntroduction
        } else {
            ActionKind::RestrictionIntroduction
        }),
    }
}

/// Whether a row might become eligible later (antecedents still missing but
/// the consequent could still be lowered). Rows that can never contribute
/// are deactivated — the paper's "remove cᵢ from C".
fn could_become_eligible(table: &TransformationTable, ri: usize) -> bool {
    let row = table.row(ri);
    if !row.active {
        return false;
    }
    let target = target_tag(row.classification, row.consequent_indexed);
    match table.tag(row.consequent) {
        Some(current) => current.can_lower_to(target),
        None => true,
    }
}

/// Reusable working memory of [`run_transformations_with`]: the queue and
/// the wake-up lists, kept warm across optimizations so the fixpoint loop
/// performs no transient allocation.
#[derive(Debug, Default)]
pub struct TransformScratch {
    queue: TransformationQueue,
    woken_cols: Vec<sqo_constraints::PredId>,
    recheck: Vec<usize>,
}

impl TransformScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the transformation loop to its fixpoint (or budget), §3.2 + §3.3.
pub fn run_transformations(
    table: &mut TransformationTable,
    config: &OptimizerConfig,
) -> TransformLog {
    run_transformations_with(table, config, &mut TransformScratch::default())
}

/// [`run_transformations`] against recycled working memory — the hot-path
/// variant the serving layer drives through `OptimizerScratch`.
pub fn run_transformations_with(
    table: &mut TransformationTable,
    config: &OptimizerConfig,
    scratch: &mut TransformScratch,
) -> TransformLog {
    let mut log = TransformLog::default();
    let queue = &mut scratch.queue;
    queue.reset(config.queue, table.row_count());

    // Initial Update-Transformation-Queue pass.
    for ri in 0..table.row_count() {
        match pending_action(table, ri) {
            Some(kind) => queue.push(ri, kind),
            None => {
                if !could_become_eligible(table, ri) {
                    table.deactivate(ri);
                }
            }
        }
    }

    let mut budget = config.budget;
    while let Some(ri) = queue.pop() {
        // Re-validate at pop time: earlier transformations may have lowered
        // this row's consequent already ("some cₖ ahead of cᵢ in Q has
        // already lowered t(cᵢ, pⱼ) — ignore cᵢ then").
        let Some(_) = pending_action(table, ri) else {
            log.noops += 1;
            table.deactivate(ri);
            continue;
        };
        if let Some(b) = budget.as_mut() {
            if *b == 0 {
                log.budget_exhausted = true;
                break;
            }
            *b -= 1;
        }

        let row = table.row(ri);
        let (constraint, classification, consequent_indexed, col) =
            (row.constraint, row.classification, row.consequent_indexed, row.consequent);
        let target = target_tag(classification, consequent_indexed);
        let presence_before = table.presence(col);
        let tag_before = table.tag(col);

        // Apply: introduce if absent, then meet-assign the tag.
        let woken_cols = &mut scratch.woken_cols;
        woken_cols.clear();
        if !matches!(presence_before, ColumnPresence::InQuery | ColumnPresence::Introduced) {
            table.introduce_into(col, config.match_policy, woken_cols);
        }
        let final_tag = table.assign_tag(col, target);

        let kind = match presence_before {
            ColumnPresence::InQuery => TransformationKind::RestrictionElimination,
            ColumnPresence::Introduced => TransformationKind::TagLowering,
            ColumnPresence::Absent | ColumnPresence::Implied => {
                if consequent_indexed {
                    TransformationKind::IndexIntroduction
                } else {
                    TransformationKind::RestrictionIntroduction
                }
            }
        };
        log.applied.push(TransformationRecord {
            constraint,
            predicate: table.predicate(col).clone(),
            kind,
            from: tag_before,
            to: final_tag,
        });
        table.deactivate(ri);

        // Update Q: wake rows watching any column whose presence changed,
        // and re-examine rows whose consequent is this column (they may now
        // be unable to contribute). Eligibility depends only on the tag of a
        // row's own consequent, and `assign_tag` moved `col`'s tag alone — so
        // the targeted recheck is equivalent to a full sweep of `C`.
        for &wcol in woken_cols.iter().chain(std::iter::once(&col)) {
            for &watcher in table.rows_watching(wcol) {
                if let Some(kind) = pending_action(table, watcher) {
                    queue.push(watcher, kind);
                }
            }
        }
        scratch.recheck.clear();
        scratch.recheck.extend_from_slice(table.rows_with_consequent(col));
        for &rj in &scratch.recheck {
            if table.row(rj).active && !could_become_eligible(table, rj) {
                table.deactivate(rj);
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{example::figure21, Catalog};
    use sqo_constraints::{figure22, ConstraintStore, StoreOptions};
    use sqo_query::{CompOp, Query, QueryBuilder};
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, ConstraintStore, Query) {
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

    /// The full §3.5 walk-through: transformation #1 introduces p3 via c1
    /// (optional, inter-class), which enables c2; transformation #2 lowers
    /// p2 from imperative to optional.
    #[test]
    fn section_3_5_transformation_sequence() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        assert_eq!(log.applied.len(), 2, "{log:?}");
        assert!(!log.budget_exhausted);

        let names: Vec<&str> =
            log.applied.iter().map(|r| store.constraint(r.constraint).name.as_str()).collect();
        assert_eq!(names, vec!["c1", "c2"]);
        assert_eq!(log.applied[0].kind, TransformationKind::RestrictionIntroduction);
        assert_eq!(log.applied[0].to, PredicateTag::Optional);
        assert_eq!(log.applied[1].kind, TransformationKind::RestrictionElimination);
        assert_eq!(log.applied[1].from, Some(PredicateTag::Imperative));
        assert_eq!(log.applied[1].to, PredicateTag::Optional);

        // Final state (the paper's closing matrix): p1 imperative,
        // p2 optional, p3 optional+introduced.
        use sqo_constraints::PredId;
        assert_eq!(table.final_tag(PredId(0)), Some(PredicateTag::Imperative));
        assert_eq!(table.final_tag(PredId(1)), Some(PredicateTag::Optional));
        assert_eq!(table.final_tag(PredId(2)), Some(PredicateTag::Optional));
        assert_eq!(table.presence(PredId(2)), ColumnPresence::Introduced);
    }

    #[test]
    fn intra_class_constraint_lowers_to_redundant() {
        let catalog = Arc::new(figure21().unwrap());
        // Intra constraint with a non-indexed consequent.
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
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        assert_eq!(log.applied.len(), 1);
        assert_eq!(log.applied[0].kind, TransformationKind::RestrictionElimination);
        assert_eq!(log.applied[0].to, PredicateTag::Redundant);
    }

    #[test]
    fn indexed_intra_consequent_stays_optional_under_tables_policy() {
        let catalog = Arc::new(figure21().unwrap());
        // manager.name is hash-indexed; rank -> name is intra with an indexed
        // consequent.
        let c = sqo_constraints::ConstraintBuilder::new(&catalog, "ix")
            .when("manager.rank", CompOp::Eq, "research staff member")
            .then("manager.name", CompOp::Eq, "alice")
            .build()
            .unwrap();
        let mk_store = |cs| {
            ConstraintStore::build(Arc::clone(&catalog), cs, StoreOptions::paper_defaults())
                .unwrap()
        };
        let store = mk_store(vec![c]);
        let query = QueryBuilder::new(&catalog)
            .select("manager.clearance")
            .filter("manager.rank", CompOp::Eq, "research staff member")
            .build()
            .unwrap();
        let relevant = store.relevant_for(&query);
        // Table 3.1: introduction lands at optional (index introduction).
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        assert_eq!(log.applied[0].kind, TransformationKind::IndexIntroduction);
        assert_eq!(log.applied[0].to, PredicateTag::Optional);
    }

    #[test]
    fn budget_stops_early() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::budgeted(1);
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        assert_eq!(log.applied.len(), 1);
        assert!(log.budget_exhausted);
    }

    /// One class `t` with Int attributes `a`, `b` and `c`.
    fn abc_catalog() -> Arc<Catalog> {
        let mut b = Catalog::builder();
        let int = |name| sqo_catalog::AttributeDef::new(name, sqo_catalog::DataType::Int);
        b.class("t", vec![int("a"), int("b"), int("c")]).unwrap();
        Arc::new(b.build().unwrap())
    }

    /// The constraints `a = 1 → b > b1` and `b > 10 → c = 3` on a query
    /// `a = 1`: what fires, in order.
    fn papers_chain(b1: i64) -> Vec<String> {
        let catalog = abc_catalog();
        let c1 = sqo_constraints::ConstraintBuilder::new(&catalog, "c1")
            .when("t.a", CompOp::Eq, 1i64)
            .then("t.b", CompOp::Gt, b1)
            .build()
            .unwrap();
        let c2 = sqo_constraints::ConstraintBuilder::new(&catalog, "c2")
            .when("t.b", CompOp::Gt, 10i64)
            .then("t.c", CompOp::Eq, 3i64)
            .build()
            .unwrap();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            vec![c1, c2],
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        let query = QueryBuilder::new(&catalog)
            .select("t.c")
            .filter("t.a", CompOp::Eq, 1i64)
            .build()
            .unwrap();
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        log.applied.iter().map(|r| store.constraint(r.constraint).name.clone()).collect()
    }

    /// §3's example of what its precompiled closure derives: from
    /// `(A = a) → (B > 20)` and `(B > 10) → (C = c)`, `(A = a) → (C = c)`.
    /// The table reaches the same consequent per query: the introduced
    /// `b > 20` implies c2's antecedent `b > 10`, so c2 fires after c1. An
    /// introduced `b > 5` implies nothing about `b > 10`, and c2 stays put.
    #[test]
    fn papers_closure_example_chains_through_the_table() {
        assert_eq!(papers_chain(20), ["c1", "c2"]);
        assert_eq!(papers_chain(5), ["c1"]);
    }

    #[test]
    fn chain_of_three_fires_transitively() {
        // a=1 present; c1: a=1 -> b=2 ; c2: b=2 -> c=3. Nothing is derived
        // ahead of the query: the chain resolves through queue wake-ups.
        let catalog = abc_catalog();
        let c1 = sqo_constraints::ConstraintBuilder::new(&catalog, "c1")
            .when("t.a", CompOp::Eq, 1i64)
            .then("t.b", CompOp::Eq, 2i64)
            .build()
            .unwrap();
        let c2 = sqo_constraints::ConstraintBuilder::new(&catalog, "c2")
            .when("t.b", CompOp::Eq, 2i64)
            .then("t.c", CompOp::Eq, 3i64)
            .build()
            .unwrap();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            vec![c1, c2],
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        let query = QueryBuilder::new(&catalog)
            .select("t.c")
            .filter("t.a", CompOp::Eq, 1i64)
            .build()
            .unwrap();
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        assert_eq!(log.applied.len(), 2, "both introductions fire: {log:?}");
    }

    #[test]
    fn fired_constraints_never_refire() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let config = OptimizerConfig::paper();
        let mut table =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        let log = run_transformations(&mut table, &config);
        let mut fired: Vec<ConstraintId> = log.applied.iter().map(|r| r.constraint).collect();
        fired.sort_unstable();
        fired.dedup();
        assert_eq!(fired.len(), log.applied.len(), "each constraint fires at most once");
        // And the table is quiescent: re-running changes nothing.
        let log2 = run_transformations(&mut table, &config);
        assert!(log2.applied.is_empty());
    }
}
