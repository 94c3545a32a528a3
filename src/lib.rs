//! # sqo — semantic query optimization
//!
//! A faithful, production-grade Rust implementation of Pang, Lu & Ooi,
//! *An Efficient Semantic Query Optimization Algorithm* (ICDE 1991),
//! together with every substrate the paper depends on: an object-oriented
//! catalog, a query model with the paper's `(SELECT …)` syntax, an indexed
//! Horn-constraint store, an
//! in-memory object store with a deterministic cost model, a conventional
//! planner/executor, the §4 baselines, and the full experiment workload.
//!
//! The crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module named after its role.
//!
//! ```
//! use std::sync::Arc;
//! use sqo::catalog::example::figure21;
//! use sqo::constraints::{figure22, ConstraintStore, StoreOptions};
//! use sqo::core::{SemanticOptimizer, StructuralOracle};
//! use sqo::query::{parse_query, QueryExt};
//!
//! let catalog = Arc::new(figure21().unwrap());
//! let store = ConstraintStore::build(
//!     Arc::clone(&catalog),
//!     figure22(&catalog).unwrap(),
//!     StoreOptions::paper_defaults(),
//! ).unwrap();
//! let optimizer = SemanticOptimizer::new(&store);
//!
//! // Figure 2.3's sample query, in the paper's own syntax.
//! let query = parse_query(
//!     r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
//!         {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
//!         {collects, supplies} {supplier, cargo, vehicle})"#,
//!     &catalog).unwrap();
//! let optimized = optimizer.optimize(&query, &StructuralOracle).unwrap();
//! println!("{}", optimized.query.display(&catalog));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

/// Object-oriented catalog: classes, attributes, relationships, statistics.
pub mod catalog {
    pub use sqo_catalog::*;
}

/// Query model: predicates, AST, parser, printer.
pub mod query {
    pub use sqo_query::*;
}

/// Horn-clause constraints: pool and indexed store.
pub mod constraints {
    pub use sqo_constraints::*;
}

/// The ICDE'91 algorithm: transformation table, tags, formulation.
pub mod core {
    pub use sqo_core::*;
}

/// In-memory object store with cost accounting.
pub mod storage {
    pub use sqo_storage::*;
}

/// Conventional planner, executor and the cost-based profit oracle.
pub mod exec {
    pub use sqo_exec::*;
}

/// Baselines: the straight-forward and exhaustive optimizers (§4) and the
/// grouped constraint retrieval (§3).
pub mod baseline {
    pub use sqo_baseline::*;
}

/// Serving layer: concurrent query service with a sharded, epoch-keyed
/// semantic-plan cache.
pub mod service {
    pub use sqo_service::*;
}

/// Non-blocking request frontend: worker pool, singleflight, admission
/// control and load shedding over the serving layer.
pub mod frontend {
    pub use sqo_frontend::*;
}

/// Experiment workload: schemas, generators, paper scenarios.
pub mod workload {
    pub use sqo_workload::*;
}
