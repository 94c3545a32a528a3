//! # sqo-workload
//!
//! Workload generation for the `sqo` experiments — the paper's evaluation
//! environment rebuilt procedurally (§4):
//!
//! * the **benchmark schema** (5 classes / 6 relationships, Table 4.1);
//! * **constraint generation** (~3 per class, Figure 2.2 shapes) together
//!   with an enforcement plan;
//! * **database generation** honoring Table 4.1's cardinalities, with a
//!   monotone forcing fixpoint so instances provably satisfy the generated
//!   constraints;
//! * **simple-path enumeration** and **path-query generation** ("a query was
//!   formulated for each such path … 40 test queries were randomly chosen");
//! * a constructive **Figure 2.1 logistics instance** satisfying c1–c5 for
//!   the examples;
//! * packaged [`PaperScenario`]s tying it all together per DB size;
//! * **service workloads**: Zipf-skewed repeated-query request streams with
//!   shuffled spellings, for the serving-layer tests and experiments;
//! * **mixed read/write workloads**: the same streams with a configurable
//!   write ratio of constraint- and integrity-preserving duplicate
//!   inserts/deletes, for the mutable-data serving experiment (E11).

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bench_schema;
mod constraint_gen;
mod data_gen;
mod figure21_data;
mod mixed;
mod open_loop;
mod path_enum;
mod query_gen;
mod scenarios;
mod service_workload;

pub use constraint_gen::{
    category_value, forced_value, generate_constraints, ConstraintGenConfig, Forcing,
    GeneratedConstraints,
};
pub use data_gen::{generate_database, table41_configs, DataGenConfig};
pub use figure21_data::{logistics_database, LogisticsConfig};
pub use mixed::{
    copyable_rels, dup_insert, dup_safe_classes, mixed_workload, MixedApplier, MixedOp,
    MixedWorkload, MixedWorkloadConfig, WriteKind,
};
pub use open_loop::{open_loop_schedule, Arrival, OpenLoopConfig, OpenLoopSchedule};
pub use path_enum::{enumerate_directed_paths, SchemaPath};
pub use query_gen::{generate_query, paper_query_set, QueryGenConfig};
pub use scenarios::{paper_scenario, paper_scenario_with, DbSize, PaperScenario};
pub use service_workload::{
    respell, service_workload, ServiceWorkload, ServiceWorkloadConfig, Zipf,
};
