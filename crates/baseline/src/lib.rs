//! # sqo-baseline
//!
//! Baseline semantic optimizers the paper compares against (§4):
//!
//! * [`StraightforwardOptimizer`] — evaluate each transformation's
//!   profitability and apply it *immediately and physically*. Earlier
//!   transformations can preclude later ones, so the outcome is
//!   order-dependent; experiment E5 measures how much.
//! * [`exhaustive_best`] — the exponential ground truth: branch on
//!   apply/skip for every enabled transformation and keep the cheapest
//!   plan. Feasible only for small inputs, which is the paper's point.
//!
//! (The third baseline, ungrouped constraint retrieval, lives on
//! `ConstraintStore::relevant_for_ungrouped` since it is a retrieval-path
//! variant, not an optimizer.)

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![warn(missing_debug_implementations)]

mod exhaustive;
mod straightforward;

pub use exhaustive::{exhaustive_best, ExhaustiveOutcome, SearchLimits};
pub use straightforward::{ApplicationOrder, StraightforwardOptimizer, StraightforwardOutcome};
