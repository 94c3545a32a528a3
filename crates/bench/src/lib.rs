//! # sqo-bench
//!
//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§4), plus the DESIGN.md ablations:
//!
//! | id | artifact | driver |
//! |----|----------|--------|
//! | E1 | Fig 2.3 / §3.5 worked example | `examples/logistics.rs` + `report --exp e1` |
//! | E2 | Table 4.1 (database sizes) | [`experiments::table41`] |
//! | E3 | Figure 4.1 (transformation time) | [`experiments::figure41`] |
//! | E4 | Table 4.2 (cost-ratio distribution) | [`experiments::table42`] |
//! | E5 | straight-forward baseline comparison | [`experiments::baseline_comparison`] |
//! | E6 | grouping policies | [`experiments::grouping`] |
//! | E7 | priority-queue budget | [`experiments::budget_sweep`] |
//! | E8 | closure materialization | [`experiments::closure_ablation`] |
//! | E9 | serving-layer throughput (plan cache) | [`experiments::service_throughput`] |
//! | E10 | cold-path optimize+plan latency (p50/p99) | [`experiments::cold_path_latency`] |
//! | E11 | mutable-data serving (mixed read/write) | [`experiments::mutable_serving`] |
//! | E12 | write-batch latency (cost of what a batch touches) | [`experiments::write_path_scaling`] |
//! | E13 | warm start (snapshot load vs cold boot) | [`experiments::warm_start_boot`] |
//! | E14 | open-loop frontend (dedup, admission, shedding) | [`experiments::frontend_open_loop`] |
//!
//! The `report` binary prints any subset (and emits machine-readable
//! headline numbers with `--json <path>`); the Criterion benches under
//! `benches/` measure the same code paths with statistical rigor. The
//! `benchdiff` binary compares two `--json` documents and fails on
//! regression — CI runs it against the committed `BENCH_<n>.json`
//! baseline.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;
pub mod json;

pub use experiments::{
    baseline_comparison, budget_sweep, calibrate_units_per_second, closure_ablation,
    cold_path_latency, e10_headlines, e11_headlines, e9_headlines, fig41_headlines, figure41,
    frontend_open_loop, grouping, mutable_serving, scaled_database, service_throughput, table41,
    table42, table42_headlines, warm_start_boot, write_path_scaling, E10Row, E11Row, E9Row,
    Fig41Point, Table42Row,
};
pub use json::{parse_headlines, render_json, Headline};
