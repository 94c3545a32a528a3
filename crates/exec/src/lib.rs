//! # sqo-exec
//!
//! The conventional query processor for the `sqo` workspace: physical
//! pointer-join plans, a System-R-flavoured cost model, a greedy planner,
//! and a counting executor.
//!
//! §3.4 of the paper leans on "the cost model in the conventional query
//! optimizer" for the two cost–benefit decisions of query formulation
//! (optional-predicate retention and class elimination); `CostBasedOracle`
//! packages exactly that service for `sqo-core`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod batch;
mod cost;
mod error;
mod executor;
mod oracle;
mod plan;
mod planner;
mod result;

pub use batch::{execute_batch, execute_batch_with, BatchExecScratch, ProbeBinding};
pub use cost::CostModel;
pub use error::ExecError;
pub use executor::{execute, execute_with, ExecScratch};
pub use oracle::CostBasedOracle;
pub use plan::{AccessPath, ClassAccess, JoinStep, PhysicalPlan, PlanDisplay};
pub use planner::{plan_query, plan_query_shared, Without};
pub use result::ResultSet;
