//! `benchdiff` — compare two `report --json` headline documents and fail
//! on regression. CI's bench-smoke job runs it against the committed
//! `BENCH_<n>.json` baseline so the perf trajectory is enforced, not just
//! recorded.
//!
//! ```sh
//! cargo run -p sqo-bench --bin benchdiff -- BENCH_10.json bench-headlines.json
//! ```
//!
//! Tolerances are deliberately generous — CI machines are noisy and the
//! baseline may come from different hardware:
//!
//! * **timing metrics** (`*qps*`, `*_us`, `*_ms`, `*p50*`, `*p99*`, `*speedup*`)
//!   may regress up to `--timing-factor` (default 8×) before failing;
//! * **everything else** (cost ratios, waste percentages, counts — all
//!   machine-independent) may regress up to `--ratio-slack` (default +50%
//!   relative, with a small absolute floor).
//!
//! Direction matters: `qps`/`speedup`/`improved_fraction` are
//! better-when-higher, everything else better-when-lower.
//!
//! Asymmetric set handling — the growth-friendly contract:
//!
//! * metrics present in the baseline but **removed** from the current run
//!   fail the diff (an experiment silently dropping out of `report` is
//!   itself a regression);
//! * metrics **missing from the committed baseline** (i.e. new in the
//!   current run) are *informational only*: a PR adding a new experiment
//!   must be able to pass bench-smoke *before* its baseline lands, so new
//!   metrics are listed as `NEW` with their values and never fail CI. They
//!   become enforced the moment the next `BENCH_<n>.json` is committed.

use std::process::exit;

use sqo_bench::{parse_headlines, Headline};

#[derive(Debug, Clone, Copy)]
struct Tolerances {
    timing_factor: f64,
    ratio_slack: f64,
}

fn is_timing(metric: &str) -> bool {
    ["qps", "_us", "_ms", "p50", "p99", "speedup"].iter().any(|k| metric.contains(k))
}

fn higher_is_better(metric: &str) -> bool {
    ["qps", "speedup", "improved_fraction", "hit_rate"].iter().any(|k| metric.contains(k))
}

/// `Some(reason)` if `current` regresses from `baseline` beyond tolerance.
fn regression(metric: &str, baseline: f64, current: f64, tol: Tolerances) -> Option<String> {
    if !baseline.is_finite() {
        return None; // a null baseline carries no signal to regress from
    }
    if !current.is_finite() {
        // A finite baseline degrading to null/NaN is a broken experiment,
        // not a pass — treat like a missing metric.
        return Some(format!("metric {metric}: became non-finite (baseline {baseline:.4})"));
    }
    let higher_better = higher_is_better(metric);
    if is_timing(metric) {
        let (worse, allowed) = if higher_better {
            (
                current < baseline / tol.timing_factor,
                format!("≥ {:.3}", baseline / tol.timing_factor),
            )
        } else {
            (
                current > baseline * tol.timing_factor,
                format!("≤ {:.3}", baseline * tol.timing_factor),
            )
        };
        return worse.then(|| {
            format!("timing {metric}: {current:.3} vs baseline {baseline:.3} (allowed {allowed})")
        });
    }
    // Machine-independent metric: relative slack plus a small absolute
    // floor so near-zero baselines don't trip on rounding.
    let slack = baseline.abs() * tol.ratio_slack + 0.05;
    let worse = if higher_better { current < baseline - slack } else { current > baseline + slack };
    worse.then(|| {
        format!("metric {metric}: {current:.4} vs baseline {baseline:.4} (slack ±{slack:.4})")
    })
}

fn load(path: &str) -> Vec<Headline> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot read {path}: {e}");
        exit(2);
    });
    parse_headlines(&text).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot parse {path}: {e}");
        exit(2);
    })
}

/// Outcome of comparing a current headline document against a baseline.
#[derive(Debug, Default)]
struct Diff {
    compared: usize,
    /// Baseline metrics that regressed beyond tolerance (fail).
    regressions: Vec<String>,
    /// Baseline metrics absent from the current run (fail).
    removed: Vec<String>,
    /// Current metrics absent from the baseline (informational: `NEW`).
    new: Vec<String>,
}

impl Diff {
    fn failed(&self) -> bool {
        !self.removed.is_empty() || !self.regressions.is_empty()
    }
}

fn diff(baseline: &[Headline], current: &[Headline], tol: Tolerances) -> Diff {
    let mut out = Diff::default();
    for b in baseline {
        match current.iter().find(|c| c.experiment == b.experiment && c.metric == b.metric) {
            None => out.removed.push(format!("{}/{}", b.experiment, b.metric)),
            Some(c) => {
                out.compared += 1;
                if let Some(reason) = regression(&b.metric, b.value, c.value, tol) {
                    out.regressions.push(format!("{}/{}", b.experiment, reason));
                }
            }
        }
    }
    out.new = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.experiment == c.experiment && b.metric == c.metric))
        .map(|c| format!("{}/{} = {:.4}", c.experiment, c.metric, c.value))
        .collect();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tol = Tolerances { timing_factor: 8.0, ratio_slack: 0.5 };
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timing-factor" => {
                tol.timing_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--timing-factor needs a number"));
            }
            "--ratio-slack" => {
                tol.ratio_slack = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--ratio-slack needs a number"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: benchdiff BASELINE.json CURRENT.json \
                     [--timing-factor F] [--ratio-slack S]"
                );
                return;
            }
            p => paths.push(p.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        die("expected exactly two paths: BASELINE.json CURRENT.json");
    };
    let baseline = load(baseline_path);
    let current = load(current_path);
    let d = diff(&baseline, &current, tol);

    println!(
        "benchdiff: {} metric(s) compared, {} removed, {} new (informational), {} regression(s)",
        d.compared,
        d.removed.len(),
        d.new.len(),
        d.regressions.len()
    );
    for m in &d.new {
        println!("  NEW       {m}");
    }
    for m in &d.removed {
        println!("  REMOVED   {m}");
    }
    for r in &d.regressions {
        println!("  REGRESSED {r}");
    }
    if d.failed() {
        exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("benchdiff: {msg}");
    exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(experiment: &'static str, metric: &str, value: f64) -> Headline {
        Headline::new(experiment, metric, value)
    }

    const TOL: Tolerances = Tolerances { timing_factor: 8.0, ratio_slack: 0.5 };

    #[test]
    fn new_metrics_are_informational_not_failures() {
        // The E11 scenario: a PR adds an experiment whose metrics the
        // committed baseline does not know yet. bench-smoke must pass.
        let baseline = vec![h("e9", "warm_qps_t1", 1000.0)];
        let current = vec![
            h("e9", "warm_qps_t1", 1000.0),
            h("e11", "qps_w5_t1", 800.0),
            h("e11", "p99_us_w5_t1", 30.0),
        ];
        let d = diff(&baseline, &current, TOL);
        assert_eq!(d.compared, 1);
        assert_eq!(d.new.len(), 2);
        assert!(d.removed.is_empty() && d.regressions.is_empty());
        assert!(!d.failed(), "baseline-missing metrics must never fail CI: {d:?}");
    }

    #[test]
    fn removed_metrics_still_fail() {
        let baseline = vec![h("e9", "warm_qps_t1", 1000.0), h("e10", "optimize_plan_p50_us", 14.0)];
        let current = vec![h("e9", "warm_qps_t1", 1000.0)];
        let d = diff(&baseline, &current, TOL);
        assert_eq!(d.removed, vec!["e10/optimize_plan_p50_us".to_string()]);
        assert!(d.failed(), "a silently-dropped experiment is a regression");
    }

    #[test]
    fn regressions_fail_within_set_intersection() {
        let baseline = vec![h("e9", "warm_qps_t1", 1000.0)];
        let current = vec![h("e9", "warm_qps_t1", 10.0), h("e11", "qps_w1_t1", 1.0)];
        let d = diff(&baseline, &current, TOL);
        assert_eq!(d.regressions.len(), 1, "{d:?}");
        assert_eq!(d.new.len(), 1);
        assert!(d.failed());
    }

    #[test]
    fn timing_and_ratio_tolerances_hold() {
        // 8x timing slack: a 7x qps drop passes, a 9x drop fails.
        assert!(regression("warm_qps_t1", 800.0, 800.0 / 7.0, TOL).is_none());
        assert!(regression("warm_qps_t1", 800.0, 800.0 / 9.0, TOL).is_some());
        // Better-when-lower timing (p99).
        assert!(regression("p99_us_w5_t4", 10.0, 70.0, TOL).is_none());
        assert!(regression("p99_us_w5_t4", 10.0, 90.0, TOL).is_some());
        // Machine-independent ratio: ±50% + 0.05 floor.
        assert!(regression("plan_hit_rate_w5", 0.9, 0.5, TOL).is_none());
        assert!(regression("db1_mean_ratio", 0.8, 1.3, TOL).is_some());
        // Non-finite current for a finite baseline is a broken experiment.
        assert!(regression("db1_mean_ratio", 0.8, f64::NAN, TOL).is_some());
    }
}
