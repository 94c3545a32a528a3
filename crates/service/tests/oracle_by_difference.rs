//! The cost-based oracle decides by difference (`sqo-exec`'s `planner.rs`)
//! exactly as an oracle that builds both whole queries and plans them, and
//! what it carries from one decision to the next never leaks from one
//! formulation into another. The plan a miss caches, built from what the
//! oracle carried, is `plan_query`'s for the formulated query.
//!
//! Over the head of the end-to-end benchmark's `cold_paper` pool.

#[path = "common/paper_pool.rs"]
mod paper_pool;

use sqo_catalog::ClassId;
use sqo_core::{Optimized, OptimizerScratch, ProfitOracle, SemanticOptimizer};
use sqo_exec::{plan_query, CostBasedOracle, CostModel, PhysicalPlan};
use sqo_query::{Predicate, Query};
use sqo_service::{QueryService, ServiceConfig};
use sqo_storage::Database;

/// The reference: the parent commit's oracle without its memo.
#[derive(Debug)]
struct PlanBoth<'db>(&'db Database);

impl PlanBoth<'_> {
    fn cost(&self, q: &Query) -> Option<f64> {
        plan_query(self.0, q, &CostModel::default()).ok().map(|plan| plan.estimated_cost)
    }
}

impl ProfitOracle for PlanBoth<'_> {
    fn retain_optional(&self, working: &Query, pred: &Predicate) -> bool {
        let mut without = working.clone();
        without.remove_predicate(pred);
        match (self.cost(working), self.cost(&without)) {
            (Some(w), Some(wo)) => w <= wo,
            _ => true,
        }
    }

    fn eliminate_class(&self, working: &Query, class: ClassId) -> bool {
        let catalog = self.0.catalog();
        let mut without = working.clone();
        without.classes.retain(|&c| c != class);
        without.relationships.retain(|&r| !catalog.relationship(r).unwrap().involves(class));
        without.selective_predicates.retain(|s| s.attr.class != class);
        without.join_predicates.retain(|j| !j.involves(class));
        without.projections.retain(|p| p.attr.class != class);
        match (self.cost(working), self.cost(&without)) {
            (Some(w), Some(wo)) => wo <= w,
            _ => false,
        }
    }
}

/// Everything of an optimization a decision can move.
fn outcome(out: Optimized) -> impl PartialEq + std::fmt::Debug {
    let r = out.report;
    (
        out.query,
        r.eliminated_classes,
        r.retained_optional,
        r.dropped_redundant,
        r.dropped_unprofitable,
        r.introduced,
        r.final_tags,
        r.provably_empty,
    )
}

#[test]
fn decisions_match_planning_both_whole_queries() {
    let (store, db, queries) = paper_pool::paper_pool(512);
    let optimizer = SemanticOptimizer::new(&store);
    let reference = PlanBoth(&db);
    // One oracle and one scratch across the whole pool, as the bench
    // drivers and the baseline hold them.
    let reused = CostBasedOracle::new(&db);
    let mut scratch = OptimizerScratch::new();
    let (mut dropped, mut eliminated) = (0, 0);
    for (i, q) in queries.iter().enumerate() {
        let q = q.canonical();
        let want = optimizer.optimize(&q, &reference).unwrap();
        dropped += want.report.dropped_unprofitable.len();
        eliminated += want.report.eliminated_classes.len();
        let want = outcome(want);
        let fresh = optimizer.optimize(&q, &CostBasedOracle::new(&db)).unwrap();
        assert_eq!(outcome(fresh), want, "query {i}, fresh oracle");
        let again = optimizer.optimize_with(&q, &reused, &mut scratch).unwrap();
        assert_eq!(outcome(again), want, "query {i}, reused oracle");
    }
    // The pool asks both kinds of question and adopts both kinds of answer.
    assert!(dropped > 100 && eliminated > 10, "{dropped} dropped, {eliminated} eliminated");
}

/// A plan with its two estimates as bits, so `==` compares them exactly.
fn exactly(plan: &PhysicalPlan) -> (PhysicalPlan, u64, u64) {
    let bits = (plan.estimated_cost.to_bits(), plan.estimated_rows.to_bits());
    (PhysicalPlan { estimated_cost: 0.0, estimated_rows: 0.0, ..plan.clone() }, bits.0, bits.1)
}

#[test]
fn carried_plans_are_plan_query_s() {
    let (store, db, queries) = paper_pool::paper_pool(512);
    let model = CostModel::default();
    let optimizer = SemanticOptimizer::new(&store);
    let oracle = CostBasedOracle::new(&db);
    let mut scratch = OptimizerScratch::new();
    let service = QueryService::with_config(store.clone(), db.clone(), ServiceConfig::default());
    let mut planned = 0;
    for (i, q) in queries.iter().enumerate() {
        let out = optimizer.optimize_with(&q.canonical(), &oracle, &mut scratch).unwrap();
        let prepared = service.prepare(q).unwrap();
        assert_eq!(prepared.optimized(), &out.query, "query {i}");
        if out.report.provably_empty {
            assert!(prepared.plan().is_none(), "query {i}");
            continue;
        }
        let want = exactly(&plan_query(&db, &out.query, &model).unwrap());
        assert_eq!(exactly(&oracle.plan_formulated(&out.query).unwrap()), want, "query {i}");
        assert_eq!(exactly(prepared.plan().unwrap()), want, "query {i}, cached");
        planned += 1;
    }
    assert!(planned > 400, "{planned} of 512 planned");
}
