//! Exhaustive transformation search — the (exponential) ground truth.
//!
//! §4 argues the tentative algorithm finds an outcome "at least as good as"
//! the straight-forward approach under any order. For small inputs we can
//! verify that claim against the true optimum: branch on apply/skip for
//! every enabled transformation, score terminal queries with the
//! conventional planner, and return the cheapest semantically-equivalent
//! query reachable. The state space is exponential — exactly the cost the
//! paper's polynomial algorithm avoids — so depth and state limits apply.

use std::collections::HashSet;

use sqo_constraints::{ConstraintId, ConstraintStore};
use sqo_exec::{plan_query, CostModel};
use sqo_query::{Predicate, Query};
use sqo_storage::Database;

/// Search limits.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Maximum distinct query states explored.
    pub max_states: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        Self { max_states: 10_000 }
    }
}

/// Result of the exhaustive search.
#[derive(Debug, Clone)]
pub struct ExhaustiveOutcome {
    pub best_query: Query,
    pub best_cost: f64,
    pub states_explored: usize,
    pub truncated: bool,
}

/// Explores every apply/skip combination of constraint firings on the
/// *physical* query, returning the cheapest (by planner estimate) outcome.
pub fn exhaustive_best(
    db: &Database,
    store: &ConstraintStore,
    query: &Query,
    model: &CostModel,
    limits: SearchLimits,
) -> ExhaustiveOutcome {
    let relevant = store.relevant_for(query);
    let mut seen: HashSet<String> = HashSet::new();
    let mut best_query = query.clone();
    let mut best_cost =
        plan_query(db, query, model).map(|p| p.estimated_cost).unwrap_or(f64::INFINITY);
    let mut states = 0usize;
    let mut truncated = false;

    let mut stack: Vec<(Query, Vec<ConstraintId>)> = vec![(query.clone(), relevant)];
    while let Some((q, remaining)) = stack.pop() {
        if states >= limits.max_states {
            truncated = true;
            break;
        }
        let key = format!("{:?}", q.clone().normalized());
        if !seen.insert(key) {
            continue;
        }
        states += 1;
        if let Ok(plan) = plan_query(db, &q, model) {
            if plan.estimated_cost < best_cost {
                best_cost = plan.estimated_cost;
                best_query = q.clone();
            }
        }
        // Branch on every currently-enabled transformation.
        for (i, &id) in remaining.iter().enumerate() {
            let c = store.constraint(id);
            if !c.relevant_to(&q) {
                continue;
            }
            if !c.antecedents.iter().all(|a| q.satisfies_predicate(a)) {
                continue;
            }
            let mut rest = remaining.clone();
            rest.remove(i);
            // Apply as elimination or introduction; both are sound because
            // the consequent is implied by the present antecedents.
            let mut applied = q.clone();
            if q.contains_predicate(&c.consequent) {
                match &c.consequent {
                    Predicate::Sel(s) => applied.selective_predicates.retain(|x| x != s),
                    Predicate::Join(j) => applied.join_predicates.retain(|x| x != j),
                }
            } else {
                match &c.consequent {
                    Predicate::Sel(s) => applied.selective_predicates.push(s.clone()),
                    Predicate::Join(j) => applied.join_predicates.push(*j),
                }
            }
            stack.push((applied, rest.clone()));
        }
    }
    ExhaustiveOutcome { best_query, best_cost, states_explored: states, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{example::figure21, Value};
    use sqo_constraints::{figure22, StoreOptions};
    use sqo_query::{CompOp, QueryBuilder};
    use sqo_storage::{IntegrityOptions, ObjectId};
    use std::sync::Arc;

    fn db() -> Database {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        for i in 0..20 {
            let name = if i == 0 { "SFI".into() } else { format!("s{i}") };
            b.insert(supplier, vec![Value::str(name), Value::str("a")]).unwrap();
        }
        // Each vehicle has its own engine and one shared driver.
        let license = [Value::Int(0), Value::Int(9), Value::Int(0)];
        let tuple = [Value::str("d"), Value::str("x"), Value::str("x")].into_iter().chain(license);
        let driver = b.insert(catalog.class_id("driver").unwrap(), tuple.collect()).unwrap();
        let engine = catalog.class_id("engine").unwrap();
        for i in 0..20 {
            let desc = if i % 4 == 0 { "refrigerated truck" } else { "flatbed" };
            let v =
                b.insert(vehicle, vec![Value::Int(i), Value::str(desc), Value::Int(0)]).unwrap();
            let e = b.insert(engine, vec![Value::Int(i), Value::Int(1)]).unwrap();
            b.link(catalog.rel_id("eng_comp").unwrap(), v, e).unwrap();
            b.link(catalog.rel_id("drives").unwrap(), v, driver).unwrap();
        }
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        for i in 0..80i64 {
            let v = (i % 20) as u32;
            let frozen = v % 4 == 0;
            let desc = if frozen { "frozen food" } else { "dry goods" };
            let oid =
                b.insert(cargo, vec![Value::Int(i), Value::str(desc), Value::Int(i)]).unwrap();
            b.link(supplies, oid, ObjectId(if frozen { 0 } else { 1 + (i as u32 % 19) })).unwrap();
            b.link(collects, oid, ObjectId(v)).unwrap();
        }
        b.finalize(IntegrityOptions).unwrap()
    }

    #[test]
    fn explores_and_never_worsens() {
        let db = db();
        let catalog = db.catalog().clone();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "SFI")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        let model = CostModel::default();
        let base_cost = plan_query(&db, &q, &model).unwrap().estimated_cost;
        let out = exhaustive_best(&db, &store, &q, &model, SearchLimits::default());
        assert!(out.states_explored >= 2);
        assert!(!out.truncated);
        assert!(out.best_cost <= base_cost);
    }

    #[test]
    fn truncation_respected() {
        let db = db();
        let catalog = db.catalog().clone();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.quantity")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .via("supplies")
            .build()
            .unwrap();
        let out =
            exhaustive_best(&db, &store, &q, &CostModel::default(), SearchLimits { max_states: 1 });
        assert!(out.states_explored <= 1);
    }
}
