//! Experiment drivers, split by job: [`paper`] regenerates the paper's
//! tables and figures and this repository's ablations (E2–E7), [`sweeps`] runs
//! the multi-thread and frontend sweeps (E11, E14). The `report` binary
//! prints any subset. The smoke tests of both halves live here.

pub mod paper;
pub mod sweeps;

#[cfg(test)]
mod tests {
    use super::paper::*;
    use super::sweeps::*;

    #[test]
    fn table41_reports_paper_cardinalities() {
        let (headlines, s) = table41(42);
        assert!(s.contains("52"), "{s}");
        assert!(s.contains("208"), "{s}");
        assert!(s.contains("# object class"), "{s}");
        assert!(headlines.iter().any(|h| h.metric == "class_cardinality_db1" && h.value == 52.0));
        assert_eq!(headlines.len(), 8);
    }

    #[test]
    fn figure41_produces_all_series() {
        let (points, rendered) = figure41(42, 1);
        let series: std::collections::HashSet<usize> =
            points.iter().map(|p| p.constraints_per_class).collect();
        assert_eq!(series.len(), 3, "{rendered}");
        // Monotone trend check: within a series, more classes should not make
        // transformation dramatically cheaper (averaged noise tolerance).
        for per_class in [1usize, 5, 9] {
            let times: Vec<f64> = points
                .iter()
                .filter(|p| p.constraints_per_class == per_class)
                .map(|p| p.avg_transform.as_nanos() as f64)
                .collect();
            assert!(times.len() >= 2);
        }
    }

    #[test]
    fn table42_buckets_sum_to_hundred() {
        let (rows, rendered) = table42(42);
        assert_eq!(rows.len(), 4, "{rendered}");
        for row in &rows {
            let sum: f64 = row.buckets.iter().sum();
            assert!((sum - 100.0).abs() < 1e-6, "{} sums to {sum}", row.db.name());
            assert_eq!(row.ratios.len(), 40);
        }
    }

    #[test]
    fn grouping_report_renders() {
        let (headlines, s) = grouping(42);
        assert!(s.contains("Arbitrary"), "{s}");
        assert!(s.contains("waste"), "{s}");
        assert_eq!(headlines.len(), 3);
        assert!(headlines.iter().all(|h| h.metric.starts_with("waste_pct_")));
    }

    #[test]
    fn e11_smoke_serves_correctly_under_writes() {
        // The driver itself cross-checks every cached answer against the
        // unoptimized original after every write; this test additionally pins
        // the structural claims the acceptance criteria name.
        let (rows, rendered) = mutable_serving(42, true);
        assert_eq!(rows.len(), 4 * thread_counts().len(), "4 write ratios × threads\n{rendered}");
        for r in &rows {
            assert!(r.threads <= nproc(), "thread sweep stops at the core count: {r:?}");
            assert_eq!(r.data_epoch, r.writes, "one data epoch per committed batch");
            if r.write_pct == 0 {
                // The pure warm-hit sweep: nothing written, every lookup a hit.
                assert_eq!((r.writes, r.data_epoch), (0, 0), "{r:?}");
                assert_eq!(r.plan_hit_rate, 1.0, "{r:?}\n{rendered}");
                assert_eq!(r.executions_per_read, 0.0, "nothing expires a memo: {r:?}");
            } else {
                assert!(r.writes > 0, "every non-zero ratio commits writes: {r:?}");
                assert!(
                    r.plan_hit_rate > 0.0,
                    "plans must survive data writes (hit rate > 0): {r:?}\n{rendered}"
                );
                assert!(
                    r.executions_per_read < 1.0,
                    "memos are served between the writes that expire them: {r:?}\n{rendered}"
                );
            }
        }
        let headlines = e11_headlines(&rows);
        assert_eq!(headlines.len(), rows.len() * 3 + 4);
        assert!(headlines.iter().any(|h| h.metric == "plan_hit_rate_w0" && h.value == 1.0));
        assert!(headlines.iter().any(|h| h.metric == "plan_hit_rate_w20"));
    }

    #[test]
    fn e14_smoke_dedups_and_sheds() {
        // The driver itself asserts dedup > 0.9 and cross-checks every
        // accepted response against the unoptimized original; here we pin
        // the headline shape and the shedding claims.
        let (headlines, rendered) = frontend_open_loop(42, true);
        let dedup = headlines
            .iter()
            .find(|h| h.experiment == "e14" && h.metric == "dedup_hit_rate_o1024")
            .unwrap_or_else(|| panic!("missing dedup headline\n{rendered}"));
        assert!(dedup.value > 0.9, "cold burst must share optimizations\n{rendered}");
        let shed = headlines
            .iter()
            .find(|h| h.metric == "overload_shed_rate")
            .unwrap_or_else(|| panic!("missing shed headline\n{rendered}"));
        assert!(
            shed.value > 0.0 && shed.value < 1.0,
            "offered load 4x the queue depth must shed some but not all\n{rendered}"
        );
        assert!(headlines.iter().any(|h| h.metric == "overload_p99_us"));
        assert!(headlines.iter().any(|h| h.metric == "overload_goodput_qps"));
    }
}
