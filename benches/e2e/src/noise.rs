//! `--noise`: does the benchmark agree with itself?
//!
//! Runs the whole benchmark as two interleaved sets (A B A B …) of one run
//! per seed and workload, each run a process of its own exactly as the
//! driver starts it, and prints per (workload, metric) what the driver
//! computes: each set's spread across seeds — the distance between the
//! first and third quartile as a share of the median — and how far set B's
//! median lies from set A's, beside the metric's bound. One traced run per
//! workload and set checks that every count metric repeats exactly.

use std::process::Command;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;

pub const DEFAULT_RUNS: usize = 10;
const FIRST_SEED: u64 = 1;

/// This program again, for one run of one workload.
pub fn child(workload: Workload, seed: u64, seconds: f64, trace: &str) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("own path is known"));
    command.args(["--workload", workload.name(), "--trace", trace]);
    command.args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    command
}

#[derive(Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a result line as `main.rs` writes it; `None` for anything else.
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let after = |key: &str| line.split_once(key).map(|(_, rest)| rest);
    let correct = after("\"correct\": ")?.starts_with("true");
    let mut metrics = Vec::new();
    for (head, tail) in
        after("\"metrics\": {")?.split("\"unit\"").filter_map(|m| m.split_once("\": {\"value\": "))
    {
        let name = head.rsplit('"').next()?;
        metrics.push((name.to_string(), tail.trim_end_matches([',', ' ']).parse().ok()?));
    }
    Some(RunResult { correct, metrics })
}

fn measure(workload: Workload, seed: u64, seconds: f64, trace: &str) -> Result<RunResult, String> {
    let what = format!("{} seed {seed} trace {trace}", workload.name());
    eprintln!("noise: {what}");
    let output = child(workload, seed, seconds, trace)
        .output()
        .map_err(|e| format!("{what}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(parse_result_line);
    match result {
        Some(result) if output.status.success() && result.correct => Ok(result),
        _ => Err(format!("{what}: failed ({})\n{stdout}", output.status)),
    }
}

/// Prints the report as markdown; `Ok(false)` if any pair of sets
/// disagrees by more than the metric's bound.
pub fn run(runs: usize, seconds: f64) -> Result<bool, String> {
    if runs < 3 {
        return Err("--runs must be at least 3".into());
    }
    // results[set][workload] = one RunResult per seed.
    let mut results: [Vec<Vec<RunResult>>; 2] =
        std::array::from_fn(|_| Workload::ALL.iter().map(|_| Vec::new()).collect());
    for seed in (FIRST_SEED..).take(runs) {
        for set in &mut results {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                set[w].push(measure(workload, seed, seconds, "0")?);
            }
        }
    }

    println!("# Noise of `benches/e2e`: two interleaved sets of {runs} runs per workload\n");
    println!(
        "Seeds {FIRST_SEED}–{}, `--seconds {seconds}`, each run its own process. *spread* is the \
         distance between the first and third quartile of a set's {runs} values as a share of \
         their median; *drift* is how much worse set B's median is than set A's, as a share of A's \
         (negative: better). Times are calibrated (`calibrate.rs`). \
         A pair passes when drift and both spreads stay within the metric's bound.\n",
        FIRST_SEED + runs as u64 - 1
    );
    println!("| workload | metric | bound | median A | median B | drift | spread A | spread B | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for def in &END_TO_END {
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let column = |set: usize| -> Vec<f64> {
                results[set][w]
                    .iter()
                    .map(|r| {
                        r.metrics
                            .iter()
                            .find(|(n, _)| n == def.name)
                            .expect("every metric reported")
                            .1
                    })
                    .collect()
            };
            let (a, b) = (column(0), column(1));
            let (median_a, median_b) = (median(&a), median(&b));
            // Positive when set B is the worse one, as the driver reads it.
            let worse =
                if def.better == "lower" { median_b - median_a } else { median_a - median_b };
            let drift = worse / median_a;
            let (spread_a, spread_b) = (iqr_share(&a), iqr_share(&b));
            let spread_ok = spread_a.max(spread_b) <= bound;
            // `mixed_rw` checks its answers on the database its time-sized
            // trials left behind, a few duplicates more or less per run.
            let exact_ok =
                !def.exact || a.iter().zip(&b).all(|(x, y)| (x - y).abs() <= 1e-3 * x.abs());
            let pass = drift <= bound && spread_ok && exact_ok;
            ok &= pass;
            println!(
                "| {} | {} ({}) | {bound} | {median_a:.5} | {median_b:.5} | {drift:.4} | {spread_a:.4} | {spread_b:.4} | {} |",
                workload.name(),
                def.name,
                def.unit,
                match (pass, def.exact) {
                    (false, _) => "FAIL",
                    (true, true) => "ok, equal seed by seed (to 1e-3)",
                    (true, false) => "ok",
                },
            );
        }
    }

    println!("\n## Count metrics of the traced run, seed {FIRST_SEED}, run twice\n");
    let exact: Vec<&str> = PER_LAYER.iter().filter(|d| d.exact).map(|d| d.name).collect();
    for workload in Workload::ALL {
        let a = measure(workload, FIRST_SEED, seconds, "1")?;
        let b = measure(workload, FIRST_SEED, seconds, "1")?;
        let differing: Vec<String> = a
            .metrics
            .iter()
            .zip(&b.metrics)
            .filter(|((name, x), (_, y))| exact.contains(&name.as_str()) && x != y)
            .map(|((name, x), (_, y))| format!("{name}: {x} vs {y}"))
            .collect();
        ok &= differing.is_empty();
        if differing.is_empty() {
            println!("- `{}`: all {} identical", workload.name(), exact.len());
        } else {
            println!("- `{}`: FAIL — {}", workload.name(), differing.join("; "));
        }
    }
    println!("\nVerdict: {}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"a.b_c\": {\"value\": 1200000, \"unit\": \"1/s\"}}}";
        let parsed = parse_result_line(line).unwrap();
        assert!(parsed.correct);
        assert_eq!(
            parsed.metrics,
            vec![("setup_s".to_string(), 0.25), ("a.b_c".to_string(), 1.2e6)]
        );
        assert_eq!(parse_result_line("# cold_paper — timed run"), None);
        assert!(!parse_result_line(&line.replace("true", "false")).unwrap().correct);
    }
}
