//! # sqo-constraints
//!
//! Horn-clause semantic constraints for the `sqo` workspace — the knowledge
//! substrate of Pang, Lu & Ooi (ICDE 1991).
//!
//! Two pieces:
//!
//! * **Constraints** ([`HornConstraint`]) with the intra/inter-class
//!   classification the transformation tables branch on — the one form a
//!   constraint is stored, indexed, persisted and checked in;
//! * the **constraint store** ([`ConstraintStore`]), which holds exactly
//!   the stated constraints and retrieves a query's relevant ones exactly
//!   through an inverted index ([`ConstraintIndex`]). §3 retrieves by
//!   per-class groups instead, which fetch irrelevant constraints too;
//!   that scheme is a baseline in `sqo-baseline`.
//!
//! §3 also precompiles the transitive closure of the constraints. This
//! port does not: `sqo-core`'s transformation table runs its fixpoint per
//! query, and a chain of constraints fires through it link by link
//! (`transform.rs`'s `chain_of_three_fires_transitively`), so a derived
//! constraint would only repeat what the chain already does.
//!
//! §3's "separate structure" of predicates is the [`PredicatePool`]. The
//! constraint store keeps one for its lifetime, into which it interns
//! every constraint's predicates once, when it files the constraint
//! ([`ConstraintStore::filed`]). `sqo-core`'s transformation table maps
//! those ids to its columns and looks up only the query's own predicates
//! by hash.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod dsl;
mod error;
mod examples;
mod horn;
mod index;
mod pool;
mod store;

pub use dsl::ConstraintBuilder;
pub use error::ConstraintError;
pub use examples::figure22;
pub use horn::{ConstraintClass, ConstraintDisplay, ConstraintId, HornConstraint};
pub use index::{ConstraintIndex, RetrievalScratch};
pub use pool::{PredId, PredicatePool};
pub use store::{ConstraintStore, Filed, StoreOptions, StoreVersion};
