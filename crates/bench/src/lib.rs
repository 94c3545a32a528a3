//! # sqo-bench
//!
//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§4), this repository's ablations, and the two serving sweeps:
//!
//! | id | artifact | driver |
//! |----|----------|--------|
//! | E1 | Fig 2.3 / §3.5 worked example | `examples/logistics.rs` + `report -- e1` |
//! | E2 | Table 4.1 (database sizes) | [`experiments::paper::table41`] |
//! | E3 | Figure 4.1 (transformation time) | [`experiments::paper::figure41`] |
//! | E4 | Table 4.2 (cost-ratio distribution) | [`experiments::paper::table42`] |
//! | E5 | straight-forward baseline comparison | [`experiments::paper::baseline_comparison`] |
//! | E6 | grouping policies | [`experiments::paper::grouping`] |
//! | E7 | priority-queue budget | [`experiments::paper::budget_sweep`] |
//! //! | E11 | mutable-data serving (0/1/5/20 % writes × threads up to the core count) | [`experiments::sweeps::mutable_serving`] |
//! | E14 | open-loop frontend (dedup, admission, shedding) | [`experiments::sweeps::frontend_open_loop`] |
//!
//! The `report` binary prints any subset and emits machine-readable
//! headline numbers with `--json <path>`. The harness has one job the
//! end-to-end benchmark (`benches/e2e`, `BENCHMARK.json`) does not do:
//! E2 and E4–E7 are machine-independent cost ratios and counts that repeat
//! to the bit at a given seed, and `tests/paper_numbers.rs` compares them
//! exactly against constants — a change that moves a paper number edits the
//! constant. Timed numbers (Figure 4.1, E11, E14)
//! are printed and uploaded, never compared; single-client timing claims
//! are made with `BENCHMARK.json`'s pair protocol.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;
pub mod json;

pub use experiments::paper::{
    baseline_comparison, budget_sweep, fig41_headlines, figure41, grouping, table41, table42,
    table42_headlines, Fig41Point, Table42Row,
};
pub use experiments::sweeps::{e11_headlines, frontend_open_loop, mutable_serving, nproc, E11Row};
pub use json::{render_json, Headline};
