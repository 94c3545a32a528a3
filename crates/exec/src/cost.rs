//! The conventional cost model (selectivity estimation + plan costing).
//!
//! §3.4 of the paper delegates two decisions to "the cost model in the
//! conventional query optimizer": whether an optional predicate is worth
//! retaining, and whether eliminating a class is profitable. This module is
//! that cost model. Estimates mirror the executor's actual counting (same
//! [`PageModel`]/[`CostWeights`]) so estimated and measured work track.

use sqo_catalog::StatsSnapshot;
use sqo_query::{CompOp, SelPredicate};
use sqo_storage::{CostCounters, CostWeights, PageModel};

/// Cost model: page model + scalar weights + statistics access.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    pub pages: PageModel,
    pub weights: CostWeights,
}

impl CostModel {
    pub fn new(pages: PageModel, weights: CostWeights) -> Self {
        Self { pages, weights }
    }

    /// Estimated fraction of a class's objects satisfying `pred`.
    pub fn selectivity(&self, stats: &StatsSnapshot, pred: &SelPredicate) -> f64 {
        let Some(attr) = stats.attr(pred.attr) else {
            return 1.0;
        };
        match pred.op {
            CompOp::Eq => attr.eq_selectivity_for(&pred.value),
            CompOp::Ne => 1.0 - attr.eq_selectivity_for(&pred.value),
            CompOp::Lt => attr.range_selectivity(&pred.value, true, false),
            CompOp::Le => attr.range_selectivity(&pred.value, true, true),
            CompOp::Gt => attr.range_selectivity(&pred.value, false, false),
            CompOp::Ge => attr.range_selectivity(&pred.value, false, true),
        }
    }

    /// Estimated (work units, produced rows) for a sequential scan of
    /// `class`, taking the residual conjunction as `(count, selectivity)` so
    /// planners can cost candidates without materializing a `ClassAccess`
    /// per candidate.
    pub fn scan_estimate(
        &self,
        stats: &StatsSnapshot,
        class: sqo_catalog::ClassId,
        residual_count: usize,
        residual_sel: f64,
    ) -> (f64, f64) {
        let n = stats.cardinality(class) as f64;
        let rows = n * residual_sel;
        let counters = CostCounters {
            seq_tuples: n as u64,
            predicate_evals: (n * residual_count as f64) as u64,
            tuples_out: rows as u64,
            ..Default::default()
        };
        (self.weights.work_units(&self.pages, &counters), rows)
    }

    /// Estimated (work units, produced rows) for an index probe of
    /// selectivity `indexed_sel` into `class`, residuals given as
    /// `(count, selectivity)`.
    pub fn index_estimate(
        &self,
        stats: &StatsSnapshot,
        class: sqo_catalog::ClassId,
        residual_count: usize,
        residual_sel: f64,
        indexed_sel: f64,
    ) -> (f64, f64) {
        let n = stats.cardinality(class) as f64;
        let matched = n * indexed_sel;
        let rows = matched * residual_sel;
        let counters = CostCounters {
            index_probes: 1,
            index_entries: matched as u64,
            predicate_evals: (matched * residual_count as f64) as u64,
            tuples_out: rows as u64,
            ..Default::default()
        };
        (self.weights.work_units(&self.pages, &counters), rows)
    }

    /// Estimated (work units, produced rows) for one pointer-join fan-out
    /// step, the residual conjunction given as `(count, selectivity)`.
    pub fn join_step_estimate_parts(
        &self,
        input_rows: f64,
        fanout: f64,
        residual_count: usize,
        residual_sel: f64,
        join_filter_count: usize,
    ) -> (f64, f64) {
        let produced = input_rows * fanout;
        // Join filters default to the classic 1/3 selectivity each.
        let join_sel = (1.0f64 / 3.0).powi(join_filter_count as i32);
        let rows = produced * residual_sel * join_sel;
        let counters = CostCounters {
            link_traversals: produced as u64,
            predicate_evals: (produced * (residual_count + join_filter_count) as f64) as u64,
            tuples_out: rows as u64,
            ..Default::default()
        };
        (self.weights.work_units(&self.pages, &counters), rows)
    }

    /// Work units for a measured counter snapshot — the single figure used as
    /// "execution cost" throughout the benchmarks.
    pub fn measured(&self, counters: &CostCounters) -> f64 {
        self.weights.work_units(&self.pages, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, AttrRef, AttrStats, ClassId, ClassStats, Value};

    fn stats_one_class(card: u64, distinct: u64) -> StatsSnapshot {
        StatsSnapshot {
            classes: vec![ClassStats {
                cardinality: card,
                attrs: vec![AttrStats {
                    rows: card,
                    distinct,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(distinct as i64)),
                    mcvs: vec![],
                }],
            }],
            relationships: vec![],
        }
    }

    fn pred(op: CompOp, v: i64) -> SelPredicate {
        SelPredicate::new(AttrRef::new(ClassId(0), AttrId(0)), op, Value::Int(v))
    }

    #[test]
    fn selectivity_shapes() {
        let m = CostModel::default();
        let s = stats_one_class(100, 10);
        assert!((m.selectivity(&s, &pred(CompOp::Eq, 5)) - 0.1).abs() < 1e-9);
        assert!((m.selectivity(&s, &pred(CompOp::Ne, 5)) - 0.9).abs() < 1e-9);
        let lt = m.selectivity(&s, &pred(CompOp::Lt, 5));
        assert!(lt > 0.3 && lt < 0.7, "lt = {lt}");
    }

    #[test]
    fn index_access_cheaper_than_scan_when_selective() {
        let m = CostModel::default();
        let s = stats_one_class(10_000, 1000);
        let sel = m.selectivity(&s, &pred(CompOp::Eq, 5));
        // The same predicate as a scan's one residual, then as the probe.
        let (scan_cost, scan_rows) = m.scan_estimate(&s, ClassId(0), 1, sel);
        let (ix_cost, ix_rows) = m.index_estimate(&s, ClassId(0), 0, 1.0, sel);
        assert!(ix_cost < scan_cost, "index {ix_cost} vs scan {scan_cost}");
        assert!((scan_rows - ix_rows).abs() < 1.0, "{scan_rows} vs {ix_rows}");
    }

    #[test]
    fn join_step_scales_with_fanout() {
        let m = CostModel::default();
        let (c1, r1) = m.join_step_estimate_parts(10.0, 1.0, 0, 1.0, 0);
        let (c2, r2) = m.join_step_estimate_parts(10.0, 4.0, 0, 1.0, 0);
        assert!(c2 > c1);
        assert!((r2 - 4.0 * r1).abs() < 1e-9);
    }
}
