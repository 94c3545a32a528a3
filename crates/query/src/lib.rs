//! # sqo-query
//!
//! Query model for the `sqo` workspace: predicates with a sound implication
//! fragment, the paper's five-part query AST, plus a builder, a parser and
//! a pretty printer for the paper's textual `(SELECT …)` syntax.
//!
//! Predicates are kept in canonical form so that structural equality is
//! logical equality over the supported fragment — the property the
//! transformation table of `sqo-core` relies on when it deduplicates the
//! predicate set `P`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod ast;
mod builder;
mod canonical;
mod display;
mod error;
pub mod interval;
mod parser;
mod predicate;
pub mod sync;

pub use ast::{Projection, Query};
pub use builder::QueryBuilder;
pub use canonical::QueryFingerprint;
pub use display::{QueryDisplay, QueryExt};
pub use error::QueryError;
pub use interval::{Bound, ValueSet};
pub use parser::parse_query;
pub use predicate::{CompOp, JoinPredicate, Predicate, PredicateDisplay, SelPredicate};
