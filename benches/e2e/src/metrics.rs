//! The catalogue of metric names: the one list `BENCHMARK.json`, the result
//! line and `--noise` agree on.

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: the share of the parent's median by which the metric may
    /// get worse. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// A count or a ratio of counts that is a function of the seed alone,
    /// equal in every run of one seed. The allocation counts are not: the
    /// plan cache's `HashMap`s hash with per-process random keys, and where
    /// their tombstones fall decides a handful of rehash allocations.
    pub exact: bool,
    /// Per-layer: the end-to-end metrics a change to this one should move
    /// and the workloads it should move them on, as
    /// `metric,metric@workload,workload`; empty for the informational ones.
    /// `BENCHMARK.json` has no key for it, so the traced report prints it.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact: false, moves: "" }
}

/// A time, or a count that is not [`MetricDef::exact`].
const fn timed(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: false, moves }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: true, moves }
}

const HIT_PATH: &str = "throughput_ops_s,read_p50_us@warm_zipf,mixed_rw";
const MISS_PATH: &str = "throughput_ops_s,read_p50_us@cold_paper";
const EXECUTION: &str = "throughput_ops_s,read_p50_us@cold_scaled,mixed_rw";
const WRITE_PATH: &str = "throughput_ops_s,peak_rss_mib@mixed_rw";
const COLD_BOOT: &str = "setup_s@cold_paper,cold_scaled,mixed_rw";
const WARM_BOOT: &str = "setup_s@warm_zipf";
const EVERYWHERE: &str = "throughput_ops_s,read_p50_us@cold_paper,cold_scaled,warm_zipf,mixed_rw";
const INFORMATIONAL: &str = "";

/// What a user of the service sees. Measured with tracing off; the times
/// are calibrated (`calibrate.rs`). The bounds are three times the spread
/// `NOISE.md` records, and the largest allowed where that is larger.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
    MetricDef { exact: true, ..e2e("exec_cost_ratio", "ratio", "lower", 0.05) },
];

/// What the traced run reports, layer (crate) first in every name. A
/// workload that does not exercise a layer has no value for its metrics;
/// the result line, which must carry them all, says 0.
pub const PER_LAYER: [MetricDef; 45] = [
    // The hit path: together about the whole op on `warm_zipf`.
    timed("query.canonicalize_ns_per_op", "ns", "lower", HIT_PATH),
    timed("query.fingerprint_ns_per_op", "ns", "lower", HIT_PATH),
    timed("service.cache_get_ns_per_op", "ns", "lower", HIT_PATH),
    // The miss path: optimize, plan, insert.
    timed("query.validate_ns_per_op", "ns", "lower", MISS_PATH),
    timed("constraints.retrieve_ns_per_op", "ns", "lower", MISS_PATH),
    timed("core.table_build_ns_per_op", "ns", "lower", MISS_PATH),
    timed("core.transform_ns_per_op", "ns", "lower", MISS_PATH),
    timed("core.formulate_ns_per_op", "ns", "lower", MISS_PATH),
    timed("exec.plan_ns_per_op", "ns", "lower", MISS_PATH),
    timed("service.cache_insert_ns_per_op", "ns", "lower", MISS_PATH),
    count("constraints.relevant_per_query", "count", "lower", MISS_PATH),
    count("core.transformations_per_query", "count", "higher", MISS_PATH),
    count("core.provably_empty_share", "ratio", "higher", MISS_PATH),
    // Execution.
    timed("service.memo_get_ns_per_op", "ns", "lower", HIT_PATH),
    timed("exec.execute_ns_per_op", "ns", "lower", EXECUTION),
    timed("service.memo_publish_ns_per_op", "ns", "lower", EXECUTION),
    count(
        "exec.work_units_per_op",
        "count",
        "lower",
        "exec_cost_ratio,throughput_ops_s,read_p50_us@cold_scaled,mixed_rw",
    ),
    count("exec.rows_out_per_op", "count", "lower", EXECUTION),
    timed("exec.batch_w1_ns_per_op", "ns", "lower", EXECUTION),
    timed("exec.batch_w8_ns_per_probe", "ns", "lower", EXECUTION),
    // The write path.
    timed("storage.with_writes_us_per_write", "us", "lower", WRITE_PATH),
    timed("storage.alloc_bytes_per_write", "B", "lower", WRITE_PATH),
    timed("service.write_us_per_write", "us", "lower", WRITE_PATH),
    timed("service.write_p50_us", "us", "lower", WRITE_PATH),
    // Boots.
    timed("storage.load_ms", "ms", "lower", COLD_BOOT),
    timed("constraints.store_build_ms", "ms", "lower", COLD_BOOT),
    timed("snapshot.load_ms", "ms", "lower", WARM_BOOT),
    timed("snapshot.parse_ms", "ms", "lower", WARM_BOOT),
    timed("storage.decode_ms", "ms", "lower", WARM_BOOT),
    timed("snapshot.encode_ms", "ms", "lower", WARM_BOOT),
    count("snapshot.bytes", "B", "lower", WARM_BOOT),
    // The service as a whole.
    count("service.hit_share", "ratio", "higher", EVERYWHERE),
    count("service.optimizations_per_op", "count", "lower", EVERYWHERE),
    count("service.executions_per_op", "count", "lower", EVERYWHERE),
    timed("service.run_ns_per_op", "ns", "lower", EVERYWHERE),
    timed("service.run_p99_us", "us", "lower", EVERYWHERE),
    timed("service.allocs_per_op", "count", "lower", EVERYWHERE),
    timed("service.alloc_bytes_per_op", "B", "lower", EVERYWHERE),
    // Informational: no end-to-end counterpart repeats yet.
    timed("service.scaling_2t", "ratio", "higher", INFORMATIONAL),
    timed("frontend.submit_ns_per_op", "ns", "lower", INFORMATIONAL),
    timed("frontend.roundtrip_p50_us", "us", "lower", INFORMATIONAL),
    timed("frontend.pipelined_ops_s", "1/s", "higher", INFORMATIONAL),
    // The trace about itself.
    timed("trace.coverage", "ratio", "higher", INFORMATIONAL),
    timed("trace.overhead_share", "ratio", "lower", INFORMATIONAL),
    timed("trace.clock_ns", "ns", "lower", INFORMATIONAL),
];

/// Named values of one run, reported in catalogue order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `(definition, value)` for every metric of `catalogue`, `None` where
    /// the run set none. Panics if the run set a name the catalogue lacks.
    pub fn in_order<'c>(&self, catalogue: &'c [MetricDef]) -> Vec<(&'c MetricDef, Option<f64>)> {
        for (name, _) in &self.0 {
            assert!(catalogue.iter().any(|d| d.name == *name), "{name} is not in the catalogue");
        }
        catalogue.iter().map(|d| (d, self.get(d.name))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// Every `moves` names end-to-end metrics and workloads that exist.
    #[test]
    fn moves_name_known_metrics_and_workloads() {
        for def in PER_LAYER.iter().filter(|d| !d.moves.is_empty()) {
            assert!(def.name.contains('.'), "{} has no layer prefix", def.name);
            let (metrics, workloads) = def.moves.split_once('@').expect("metrics@workloads");
            for metric in metrics.split(',') {
                assert!(END_TO_END.iter().any(|d| d.name == metric), "{}: {metric}", def.name);
            }
            for workload in workloads.split(',') {
                assert!(Workload::parse(workload).is_some(), "{}: {workload}", def.name);
            }
        }
    }
}
