//! Property test: the difference is the candidate, to the bit.
//!
//! The profit oracle costs "the working query less one predicate or class"
//! without building that query (`planner.rs`, *Costing a candidate by its
//! difference*). For arbitrary populations and query shapes — single class,
//! chains, a cycle whose extra edge becomes a link filter, a class no
//! relationship reaches — and for **every** selective predicate, join
//! predicate and class of the query, the masked estimate must equal
//! `plan_query(&built_candidate)?.estimated_cost` by `to_bits()`, and be
//! `None` exactly when `plan_query` errs. A second property drives one
//! oracle through a whole formulation's worth of questions, adoptions
//! included, against an oracle that plans both whole queries. A third
//! stops a formulation after any number of questions and requires the plan
//! the oracle builds from what it carried (`plan_formulated`) to be
//! `plan_query`'s, field for field and costs to the bit: after no
//! decision, after a last decision adopted or rejected, and after a class
//! elimination.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_catalog::{
    AttributeDef, Catalog, ClassId, DataType, IndexKind, Multiplicity, RelationshipEnd, Value,
};
use sqo_core::ProfitOracle;
use sqo_exec::{plan_query, CostBasedOracle, CostModel, ExecError, PhysicalPlan, Without};
use sqo_query::{CompOp, JoinPredicate, Predicate, Projection, Query, SelPredicate};
use sqo_storage::{Database, IntegrityOptions, ObjectId};

/// Three classes in a triangle `a —ab— b —bc— c —ac— a`, each with a
/// hash-indexed `id`, a B-tree-indexed `kind` and an unindexed `note`.
fn triangle() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    let attrs = || {
        vec![
            AttributeDef::indexed("id", DataType::Int, IndexKind::Hash),
            AttributeDef::indexed("kind", DataType::Int, IndexKind::BTree),
            AttributeDef::new("note", DataType::Int),
        ]
    };
    let a = b.class("a", attrs()).unwrap();
    let bb = b.class("b", attrs()).unwrap();
    let c = b.class("c", attrs()).unwrap();
    // To-one and not total: an extent may be empty, leaving the objects
    // that would link into it unlinked.
    for (name, from, to) in [("ab", a, bb), ("bc", bb, c), ("ac", a, c)] {
        let end = |class, multiplicity| RelationshipEnd::new(class, multiplicity, false);
        b.relationship(name, end(from, Multiplicity::One), end(to, Multiplicity::Many)).unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// Arbitrary extents and link strides, one of each per class; every many-side object keeps at
/// most one link per relationship, so multiplicity holds for any stride.
fn db(sizes: &[usize], strides: &[usize]) -> Database {
    let catalog = triangle();
    let mut b = Database::builder(Arc::clone(&catalog));
    for (class, &n) in sizes.iter().enumerate() {
        for i in 0..n as i64 {
            let tuple = vec![Value::Int(i), Value::Int(i % 3), Value::Int(i % 5)];
            b.insert(ClassId(class as u32), tuple).unwrap();
        }
    }
    for (rel, (from, to)) in [("ab", (0, 1)), ("bc", (1, 2)), ("ac", (0, 2))] {
        let rel_id = catalog.rel_id(rel).unwrap();
        if sizes[to] == 0 {
            continue;
        }
        for i in 0..sizes[from] {
            let target = (i * strides[from] + i) % sizes[to];
            b.link(rel_id, ObjectId(i as u32), ObjectId(target as u32)).unwrap();
        }
    }
    b.finalize(IntegrityOptions).unwrap()
}

/// Shapes: 0 `a`; 1 `a–b`; 2 the chain `a–b–c`; 3 the cycle (all three
/// relationships: one closes as a link filter); 4 the chain listed from
/// the far end; 5 `a–b` plus an unreachable `c`. `sel_bits` picks, per
/// class, among `id = 1` (hash probe), `kind < 2` (B-tree probe),
/// `kind <> 0` (no index serves a hole) and `note = 3` (unindexed);
/// `join_bits` among `a.note < b.note`, `b.kind = c.kind`, `a.id >= c.id`.
fn query(catalog: &Catalog, shape: u8, sel_bits: u16, join_bits: u8) -> Query {
    let (classes, rels): (&[u32], &[&str]) = match shape % 6 {
        0 => (&[0], &[]),
        1 => (&[0, 1], &["ab"]),
        2 => (&[0, 1, 2], &["ab", "bc"]),
        3 => (&[0, 1, 2], &["ab", "bc", "ac"]),
        4 => (&[2, 1, 0], &["bc", "ab"]),
        _ => (&[0, 1, 2], &["ab"]),
    };
    let names = ["a", "b", "c"];
    let attr = |class: u32, name: &str| catalog.attr_ref(names[class as usize], name).unwrap();
    let mut q = Query::new();
    q.classes = classes.iter().map(|&c| ClassId(c)).collect();
    q.relationships = rels.iter().map(|r| catalog.rel_id(r).unwrap()).collect();
    q.projections = classes.iter().map(|&c| Projection::plain(attr(c, "id"))).collect();
    let filters = [
        ("id", CompOp::Eq, 1i64),
        ("kind", CompOp::Lt, 2),
        ("kind", CompOp::Ne, 0),
        ("note", CompOp::Eq, 3),
    ];
    for &class in classes {
        for (bit, (name, op, value)) in filters.iter().enumerate() {
            if sel_bits >> (class as usize * filters.len() + bit) & 1 == 1 {
                q.selective_predicates.push(SelPredicate::new(
                    attr(class, name),
                    *op,
                    Value::Int(*value),
                ));
            }
        }
    }
    let joins = [
        (0, "note", CompOp::Lt, 1, "note"),
        (1, "kind", CompOp::Eq, 2, "kind"),
        (0, "id", CompOp::Ge, 2, "id"),
    ];
    for (bit, (left, left_attr, op, right, right_attr)) in joins.iter().enumerate() {
        if join_bits >> bit & 1 == 1 && classes.contains(left) && classes.contains(right) {
            q.join_predicates.push(JoinPredicate::new(
                attr(*left, left_attr),
                *op,
                attr(*right, right_attr),
            ));
        }
    }
    q
}

/// The candidate a [`Without`] stands for, built the way formulation
/// removes things: order-keeping `retain`s.
fn built(catalog: &Catalog, q: &Query, without: Without<'_>) -> Query {
    let mut out = q.clone();
    match without {
        Without::Sel(s) => out.selective_predicates.retain(|x| x != s),
        Without::Join(j) => out.join_predicates.retain(|x| x != j),
        Without::Class(class) => {
            out.classes.retain(|&c| c != class);
            out.relationships.retain(|&r| !catalog.relationship(r).unwrap().involves(class));
            out.selective_predicates.retain(|s| s.attr.class != class);
            out.join_predicates.retain(|j| !j.involves(class));
            out.projections.retain(|p| p.attr.class != class);
        }
    }
    out
}

fn planned_bits(db: &Database, q: &Query) -> Option<u64> {
    plan_query(db, q, &CostModel::default()).ok().map(|plan| plan.estimated_cost.to_bits())
}

/// Every difference `q` has, in the order formulation would ask about them.
fn differences(q: &Query) -> Vec<Without<'_>> {
    let classes = q.classes.iter().map(|&c| Without::Class(c));
    let sels = q.selective_predicates.iter().map(Without::Sel);
    let joins = q.join_predicates.iter().map(Without::Join);
    classes.chain(sels).chain(joins).collect()
}

/// The oracle of the parent commit: plans both whole queries.
#[derive(Debug)]
struct PlanBoth<'db>(&'db Database);

impl ProfitOracle for PlanBoth<'_> {
    fn retain_optional(&self, working: &Query, pred: &Predicate) -> bool {
        let without = match pred {
            Predicate::Sel(s) => Without::Sel(s),
            Predicate::Join(j) => Without::Join(j),
        };
        let candidate = built(self.0.catalog(), working, without);
        match (planned_bits(self.0, working), planned_bits(self.0, &candidate)) {
            (Some(w), Some(wo)) => f64::from_bits(w) <= f64::from_bits(wo),
            _ => true,
        }
    }

    fn eliminate_class(&self, working: &Query, class: ClassId) -> bool {
        let candidate = built(self.0.catalog(), working, Without::Class(class));
        match (planned_bits(self.0, working), planned_bits(self.0, &candidate)) {
            (Some(w), Some(wo)) => f64::from_bits(wo) <= f64::from_bits(w),
            _ => false,
        }
    }
}

/// A plan with its two estimates as bits, so `==` compares them exactly.
fn exactly(plan: Result<PhysicalPlan, ExecError>) -> Result<(PhysicalPlan, u64, u64), ExecError> {
    plan.map(|plan| {
        let bits = (plan.estimated_cost.to_bits(), plan.estimated_rows.to_bits());
        (PhysicalPlan { estimated_cost: 0.0, estimated_rows: 0.0, ..plan }, bits.0, bits.1)
    })
}

/// What the last question of a stopped formulation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Last {
    NoDecision,
    Adopted,
    Rejected,
}

/// Runs the questions of a formulation of `original` on one oracle — every
/// class elimination, then every retention, adopting as formulation does —
/// and stops after `stop` of them. Returns the working query, what the last
/// question was, and whether a class was eliminated.
fn stopped_formulation(
    db: &Database,
    oracle: &CostBasedOracle<'_>,
    original: &Query,
    stop: usize,
) -> (Query, Last, bool) {
    let mut working = original.clone();
    let (mut last, mut eliminated) = (Last::NoDecision, false);
    oracle.begin();
    let mut asked = 0;
    for &class in &original.classes {
        if asked == stop {
            return (working, last, eliminated);
        }
        asked += 1;
        if oracle.eliminate_class(&working, class) {
            working = built(db.catalog(), &working, Without::Class(class));
            (last, eliminated) = (Last::Adopted, true);
        } else {
            last = Last::Rejected;
        }
    }
    for pred in original.predicates() {
        if !working.contains_predicate(&pred) {
            continue;
        }
        if asked == stop {
            break;
        }
        asked += 1;
        if oracle.retain_optional(&working, &pred) {
            last = Last::Rejected;
        } else {
            working.remove_predicate(&pred);
            last = Last::Adopted;
        }
    }
    (working, last, eliminated)
}

/// Every kind of formulation end occurs on a fixed sweep of shapes, and
/// each one plans as `plan_query` does.
#[test]
fn carried_plans_cover_every_last_decision() {
    let db = db(&[12, 9, 7], &[1, 2, 3]);
    let mut seen = std::collections::HashSet::new();
    for shape in 0..6 {
        for sel_bits in (0u16..4096).step_by(37) {
            for join_bits in 0..8 {
                let q = query(db.catalog(), shape, sel_bits, join_bits);
                for stop in 0..8 {
                    let oracle = CostBasedOracle::new(&db);
                    let (working, last, eliminated) = stopped_formulation(&db, &oracle, &q, stop);
                    assert_eq!(
                        exactly(oracle.plan_formulated(&working)),
                        exactly(plan_query(&db, &working, &CostModel::default())),
                        "{last:?} after {stop} questions about {q:?}"
                    );
                    seen.insert((last, eliminated));
                }
            }
        }
    }
    for last in [Last::NoDecision, Last::Adopted, Last::Rejected] {
        assert!(seen.contains(&(last, false)), "{last:?} never ended a formulation");
    }
    assert!(seen.contains(&(Last::Adopted, true)), "no formulation eliminated a class");
    assert!(seen.contains(&(Last::Rejected, true)), "no decision followed an elimination");
}

// The default configuration, so `PROPTEST_CASES` scales every property
// (CI runs 1,024 cases optimized).
proptest! {
    #[test]
    fn masked_estimate_is_the_candidate_plan(
        sizes in prop::collection::vec(0usize..24, 3..4),
        strides in prop::collection::vec(0usize..7, 3..4),
        shape in 0u8..6,
        sel_bits in 0u16..4096,
        join_bits in 0u8..8,
    ) {
        let db = db(&sizes, &strides);
        let q = query(db.catalog(), shape, sel_bits, join_bits);
        let oracle = CostBasedOracle::new(&db);
        prop_assert_eq!(
            oracle.estimated_cost(&q, None).map(f64::to_bits),
            planned_bits(&db, &q)
        );
        for without in differences(&q) {
            let candidate = built(db.catalog(), &q, without);
            prop_assert_eq!(
                oracle.estimated_cost(&q, Some(without)).map(f64::to_bits),
                planned_bits(&db, &candidate),
                "{:?} of {:?}", without, q
            );
        }
    }

    /// One oracle, one `begin`, every question a formulation could ask in
    /// turn — each adoption edits the working query and the next question
    /// is about the edited one. Answers must match planning both sides.
    #[test]
    fn a_formulation_s_answers_match_planning_both_sides(
        sizes in prop::collection::vec(0usize..24, 3..4),
        strides in prop::collection::vec(0usize..7, 3..4),
        shape in 0u8..6,
        sel_bits in 0u16..4096,
        join_bits in 0u8..8,
    ) {
        let db = db(&sizes, &strides);
        let original = query(db.catalog(), shape, sel_bits, join_bits);
        let (oracle, reference) = (CostBasedOracle::new(&db), PlanBoth(&db));
        let mut working = original.clone();
        oracle.begin();
        for &class in &original.classes {
            let eliminate = oracle.eliminate_class(&working, class);
            prop_assert_eq!(eliminate, reference.eliminate_class(&working, class));
            if eliminate {
                working = built(db.catalog(), &working, Without::Class(class));
            }
        }
        for pred in original.predicates() {
            if !working.contains_predicate(&pred) {
                continue; // went with an eliminated class
            }
            let retain = oracle.retain_optional(&working, &pred);
            prop_assert_eq!(retain, reference.retain_optional(&working, &pred), "{:?}", pred);
            if !retain {
                working.remove_predicate(&pred);
            }
        }
    }

    /// A formulation stopped anywhere plans, from what the oracle carried,
    /// exactly what `plan_query` plans for its working query.
    #[test]
    fn the_carried_plan_is_plan_query_s(
        sizes in prop::collection::vec(0usize..24, 3..4),
        strides in prop::collection::vec(0usize..7, 3..4),
        shape in 0u8..6,
        sel_bits in 0u16..4096,
        join_bits in 0u8..8,
        stop in 0usize..10,
    ) {
        let db = db(&sizes, &strides);
        let original = query(db.catalog(), shape, sel_bits, join_bits);
        let oracle = CostBasedOracle::new(&db);
        let (working, last, _) = stopped_formulation(&db, &oracle, &original, stop);
        prop_assert_eq!(
            exactly(oracle.plan_formulated(&working)),
            exactly(plan_query(&db, &working, &CostModel::default())),
            "{:?} after {} questions", last, stop
        );
    }
}
