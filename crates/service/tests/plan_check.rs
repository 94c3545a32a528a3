//! The executor's shape check ([`PhysicalPlan::check`]) refuses no plan the
//! planner builds: over the end-to-end benchmark's `cold_paper` pool, both
//! the original query's plan and the plan of the service's rewrite pass it.

#[path = "common/paper_pool.rs"]
mod paper_pool;

use sqo_exec::{plan_query, CostModel};
use sqo_service::QueryService;

#[test]
fn every_plan_of_the_cold_paper_pool_passes_the_check() {
    let (store, db, pool) = paper_pool::paper_pool(4096);
    let service = QueryService::new(store, db);
    let (db, model) = (service.db(), CostModel::default());
    let catalog = db.catalog();
    let mut rewrites = 0;
    for query in &pool {
        let original = plan_query(&db, &query.canonical(), &model).expect("the original plans");
        original.check(catalog).unwrap_or_else(|e| panic!("original plan refused: {e}"));
        let prepared = service.prepare(query).expect("the query prepares");
        if let Some(plan) = prepared.plan() {
            plan.check(catalog).unwrap_or_else(|e| panic!("rewrite's plan refused: {e}"));
            rewrites += 1;
        }
    }
    assert!(rewrites > 0, "some rewrite is not provably empty");
}
