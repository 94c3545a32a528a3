//! # sqo-catalog
//!
//! Object-oriented catalog for the `sqo` workspace — the schema substrate of
//! Pang, Lu & Ooi, *An Efficient Semantic Query Optimization Algorithm*
//! (ICDE 1991).
//!
//! The catalog records:
//! * **object classes** with typed attributes and single-inheritance `is-a`;
//! * **relationships** — named binary links with multiplicity and total-
//!   participation declarations (the figure's italic pointer attributes);
//! * **index declarations** per attribute, because the paper's tag tables
//!   branch on whether a consequent predicate is on an indexed attribute;
//! * **statistics** (cardinalities, distinct counts, min/max) for the
//!   conventional cost model.
//!
//! Everything downstream (queries, constraints, the optimizer, storage,
//! generators) resolves names once and then works with the copyable ids
//! minted here.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod catalog;
mod error;
pub mod example;
mod hash;
mod ids;
mod schema;
mod stats;
mod types;

pub use catalog::{Catalog, CatalogBuilder};
pub use error::CatalogError;
pub use hash::{ValueHashState, ValueHasher};
pub use ids::{AttrId, AttrRef, ClassId, RelId};
pub use schema::{
    AttributeDef, ClassDef, IndexKind, Multiplicity, RelEdge, RelationshipDef, RelationshipEnd,
};
pub use stats::{AttrStats, ClassStats, RelStats, StatsSnapshot};
pub use types::{DataType, Finite, Value};
