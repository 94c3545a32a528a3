//! Constraint management deep-dive: grouping policies.
//!
//! Demonstrates the §3 machinery in isolation: how much each grouping
//! policy over-fetches, with one more constraint beside Figure 2.2's.
//!
//! ```sh
//! cargo run --example constraint_mining
//! ```

use std::sync::Arc;

use sqo::baseline::{AssignmentPolicy, ConstraintGroups};
use sqo::catalog::example::figure21;
use sqo::constraints::{figure22, ConstraintBuilder, ConstraintStore, StoreOptions};
use sqo::query::{CompOp, QueryBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Arc::new(figure21()?);
    let mut constraints = figure22(&catalog)?;

    // d1: every cargo weighs less than 100 units. A store takes it like
    // any declared constraint: it is built and checked by the one
    // constructor, `HornConstraint::new`.
    constraints.push(
        ConstraintBuilder::new(&catalog, "d1")
            .then("cargo.quantity", CompOp::Lt, 100i64)
            .build()?,
    );

    // The store holds exactly these constraints. c1 (truck -> frozen food)
    // chains with c2 (frozen food -> SFI) through the transformation
    // table's fixpoint, so nothing is derived ahead of a query.
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        constraints.clone(),
        StoreOptions::paper_defaults(),
    )?;
    println!("stored constraints ({}):", store.len());
    for (_, c) in store.constraints() {
        println!("  {}", c.display(&catalog));
    }

    // Grouping policies (§3): how many irrelevant constraints ride along?
    let probe_queries = vec![
        QueryBuilder::new(&catalog)
            .select("cargo.desc")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .via("collects")
            .build()?,
        QueryBuilder::new(&catalog).select("driver.name").via("drives").build()?,
        QueryBuilder::new(&catalog)
            .select("employee.name")
            .filter("department.name", CompOp::Eq, "development")
            .via("belongs_to")
            .build()?,
    ];
    println!("\ngrouping policy comparison ({} probe queries):", probe_queries.len());
    for policy in [
        AssignmentPolicy::Arbitrary,
        AssignmentPolicy::LeastFrequentlyAccessed,
        AssignmentPolicy::Balanced,
    ] {
        let mut groups = ConstraintGroups::new(&store, policy);
        for q in &probe_queries {
            let _ = groups.relevant_for(q);
        }
        println!(
            "  {:?}: retrieved {}, relevant {}, waste {:.1}%",
            policy,
            groups.retrieved(),
            groups.relevant(),
            groups.waste_ratio() * 100.0
        );
    }
    Ok(())
}
