//! Fleet analytics over the Table 4.1 benchmark environment.
//!
//! Provisions the paper's DB3-scale scenario (5 classes, 6 relationships,
//! ~3 constraints per class, 40 random path queries), runs every query with
//! and without semantic optimization, and prints a per-query cost summary —
//! a miniature of the paper's Table 4.2 experiment.
//!
//! ```sh
//! cargo run --release --example fleet_analytics
//! ```

use sqo::baseline::{AssignmentPolicy, ConstraintGroups};
use sqo::core::SemanticOptimizer;
use sqo::exec::{execute, plan_query, CostBasedOracle, CostModel};
use sqo::query::QueryExt;
use sqo::workload::{paper_scenario, DbSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = paper_scenario(DbSize::Db3, 42);
    let catalog = &scenario.catalog;
    println!(
        "scenario: {} — {} constraints, {} queries",
        scenario.db_size.name(),
        scenario.store.len(),
        scenario.queries.len()
    );

    let optimizer = SemanticOptimizer::new(&scenario.store);
    // §3's grouped retrieval beside the optimizer's exact index, to report
    // how many irrelevant constraints the paper's scheme would fetch.
    let mut groups =
        ConstraintGroups::new(&scenario.store, AssignmentPolicy::LeastFrequentlyAccessed);
    let oracle = CostBasedOracle::new(&scenario.db);
    let model = CostModel::default();

    let mut improved = 0usize;
    let mut unchanged = 0usize;
    let mut regressed = 0usize;
    let mut total_ratio = 0.0;

    println!("\n  # cls prd   orig cost    opt cost  ratio  transformations");
    for (i, query) in scenario.queries.iter().enumerate() {
        let out = optimizer.optimize(query, &oracle)?;
        let _ = groups.relevant_for(query);
        let plan_orig = plan_query(&scenario.db, query, &model)?;
        let plan_opt = plan_query(&scenario.db, &out.query, &model)?;
        let (res_orig, c_orig) = execute(&scenario.db, &plan_orig)?;
        let (res_opt, c_opt) = execute(&scenario.db, &plan_opt)?;
        assert!(
            res_orig.same_multiset(&res_opt),
            "query {i} changed its answer:\n{}\n{}",
            query.display(catalog),
            out.query.display(catalog)
        );
        let cost_orig = model.measured(&c_orig).max(1e-9);
        let cost_opt = model.measured(&c_opt);
        let ratio = cost_opt / cost_orig;
        total_ratio += ratio;
        if ratio < 0.999 {
            improved += 1;
        } else if ratio <= 1.001 {
            unchanged += 1;
        } else {
            regressed += 1;
        }
        println!(
            "{i:>3} {:>3} {:>3} {:>11.2} {:>11.2} {:>6.2}  {}",
            query.classes.len(),
            query.predicate_count(),
            cost_orig,
            cost_opt,
            ratio,
            out.report.transformations.applied.len(),
        );
    }
    println!(
        "\nsummary: {improved} improved, {unchanged} unchanged, {regressed} regressed; \
         mean cost ratio {:.3}",
        total_ratio / scenario.queries.len() as f64
    );
    println!("constraint retrieval waste (grouping scheme): {:.1}%", groups.waste_ratio() * 100.0);
    Ok(())
}
