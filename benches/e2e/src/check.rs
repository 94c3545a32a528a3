//! The answer check and `exec_cost_ratio`, in one step.
//!
//! The reference is the **original** query, canonicalized for column order
//! only, planned and executed directly on the snapshot the service
//! answered from: no `sqo-core`, no cache. The same execution yields the
//! original's measured cost, the denominator of Table 4.2's ratio.

use sqo_exec::{execute, plan_query, CostModel};
use sqo_query::Query;
use sqo_service::QueryService;

#[derive(Debug, Default, Clone, Copy)]
pub struct CheckResult {
    pub checked: u64,
    pub wrong: u64,
    /// Σ measured cost of the service's (optimized) plans; a provably
    /// empty answer costs nothing.
    pub optimized_cost: f64,
    /// Σ measured cost of the original queries' plans.
    pub original_cost: f64,
}

impl CheckResult {
    pub fn exec_cost_ratio(&self) -> f64 {
        self.optimized_cost / self.original_cost
    }
}

/// Runs every query through `service` and compares the answer with the
/// reference. Single client: the snapshot taken here is the one the
/// response's `data_epoch` names, which is asserted.
pub fn check<'q>(
    service: &QueryService,
    queries: impl IntoIterator<Item = &'q Query>,
) -> CheckResult {
    let model = CostModel::default();
    let mut out = CheckResult::default();
    for query in queries {
        out.checked += 1;
        let db = service.db();
        let (Ok(response), Ok(prepared)) = (service.run(query), service.prepare(query)) else {
            out.wrong += 1;
            continue;
        };
        assert_eq!(response.data_epoch, db.data_version(), "one client, one epoch");
        let reference = plan_query(&db, &query.canonical(), &model)
            .and_then(|plan| execute(&db, &plan))
            .expect("the original query plans and executes");
        out.original_cost += model.measured(&reference.1);
        if let Some(plan) = prepared.plan() {
            let (_, counters) = execute(&db, plan).expect("the cached plan executes");
            out.optimized_cost += model.measured(&counters);
        }
        if !response.results.same_multiset(&reference.0) {
            out.wrong += 1;
        }
    }
    out
}
