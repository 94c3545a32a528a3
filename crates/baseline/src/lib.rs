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
//! * [`ConstraintGroups`] — the paper's grouped constraint retrieval (§3)
//!   under its three [`AssignmentPolicy`]s. It fetches every relevant
//!   constraint plus the irrelevant ones that share a group; experiment E6
//!   measures that waste against the store's exact index.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod exhaustive;
mod grouped;
mod straightforward;

pub use exhaustive::{exhaustive_best, ExhaustiveOutcome, SearchLimits};
pub use grouped::{AssignmentPolicy, ConstraintGroups};
pub use straightforward::{ApplicationOrder, StraightforwardOptimizer, StraightforwardOutcome};
