//! # sqo-core
//!
//! The primary contribution of Pang, Lu & Ooi, *An Efficient Semantic Query
//! Optimization Algorithm* (ICDE 1991): semantic query optimization by
//! **tentative, order-immaterial transformations**.
//!
//! Instead of physically rewriting the query (and thereby making early
//! transformations preclude later ones), the optimizer:
//!
//! 1. builds a **transformation table** `T` over the relevant constraints
//!    and the predicate set `P` ([`TransformationTable`], §3.1);
//! 2. repeatedly fires enabled constraints from a **transformation queue**,
//!    each firing only *lowering a predicate's tag* in the lattice
//!    `Imperative > Optional > Redundant` ([`run_transformations`],
//!    §3.2–3.3, Tables 3.1/3.2);
//! 3. **formulates** the final query at the end: imperative predicates are
//!    retained, redundant ones dropped, optional ones submitted to a
//!    cost–benefit [`ProfitOracle`], and dangling classes eliminated
//!    ([`formulate`], §3.4, Table 3.3).
//!
//! Because tags only move down the lattice (meet-assignment) and constraint
//! enabling is monotone, the fixpoint is unique: **the order of
//! transformations is immaterial**, and the whole transformation phase is
//! `O(m·n)` for `m` distinct predicates and `n` relevant constraints.
//!
//! ```
//! use std::sync::Arc;
//! use sqo_catalog::example::figure21;
//! use sqo_constraints::{figure22, ConstraintStore, StoreOptions};
//! use sqo_core::{SemanticOptimizer, StructuralOracle};
//! use sqo_query::{parse_query, QueryExt};
//!
//! let catalog = Arc::new(figure21().unwrap());
//! let store = ConstraintStore::build(
//!     Arc::clone(&catalog), figure22(&catalog).unwrap(),
//!     StoreOptions::paper_defaults()).unwrap();
//! let optimizer = SemanticOptimizer::new(&store);
//! let query = parse_query(
//!     r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
//!         {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
//!         {collects, supplies} {supplier, cargo, vehicle})"#,
//!     &catalog).unwrap();
//! let out = optimizer.optimize(&query, &StructuralOracle).unwrap();
//! assert!(out.query.display(&catalog).to_string().contains("{collects} {cargo, vehicle})"));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod config;
mod formulate;
mod optimizer;
mod oracle;
mod queue;
mod report;
mod scratch;
mod table;
mod tag;
mod transform;
mod verify;

pub use config::{MatchPolicy, OptimizerConfig, QueueDiscipline};
pub use formulate::{formulate, formulate_with, FormulationResult, FormulationScratch};
pub use optimizer::{Optimized, SemanticOptimizer};
pub use oracle::{DropAllOracle, ProfitOracle, StructuralOracle};
pub use queue::{ActionKind, TransformationQueue};
pub use report::OptimizationReport;
pub use scratch::OptimizerScratch;
pub use table::{Row, TableBuffers, TransformationTable};
pub use tag::{CellState, ColumnPresence, PredicateTag};
pub use transform::{
    run_transformations, run_transformations_with, target_tag, TransformLog, TransformScratch,
    TransformationKind, TransformationRecord,
};
pub use verify::{verify_optimization, VerificationReport};
