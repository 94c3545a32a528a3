//! `e2e` — the repo's end-to-end benchmark. `README.md` beside this
//! package holds the workload and metric glossary.
//!
//! ```text
//! e2e --workload <name> [--seed n] [--seconds s] [--trace 0|1]   one run
//! e2e [--seed n] [--seconds s]        every workload, timed then traced
//! e2e --noise [--runs n] [--seconds s]   two interleaved sets of runs
//! e2e --smoke                   paper scale, one short trial, in process
//! ```

mod alloc;
mod calibrate;
mod check;
mod fixture;
mod layers;
mod metrics;
mod noise;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::sync::OnceLock;

use fixture::{Scale, FIXTURE_SEED};
use layers::{run_traced, TracedRun};
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use stats::median;
use workloads::{run_timed, Prepared, Protocol, TimedRun, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: e2e [--workload cold_paper|cold_scaled|warm_zipf|mixed_rw] \
[--seed <n>] [--seconds <s>] [--trace 0|1] | --noise [--runs <n>] [--seconds <s>] | --smoke";

/// Command-line options; absent ones are `None`.
struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else { return Ok(None) };
        let raw = self.0.get(at + 1).ok_or(format!("{flag} needs a value"))?;
        raw.parse().map(Some).map_err(|_| format!("{flag}: cannot read `{raw}`"))
    }
}

/// Where and how a run was made; every report carries it.
fn environment() -> &'static str {
    static ENVIRONMENT: OnceLock<String> = OnceLock::new();
    ENVIRONMENT.get_or_init(describe_environment)
}

fn describe_environment() -> String {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    format!(
        "nproc={} rustc=\"{}\" commit={} fixture_seed={FIXTURE_SEED}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn trials(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", shown.join(", "))
}

fn report_timed(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    run: &TimedRun,
) -> Values {
    let mut values = Values::default();
    values.set("setup_s", median(&run.setup_s));
    values.set("throughput_ops_s", median(&run.throughput_ops_s));
    values.set("read_p50_us", median(&run.read_p50_us));
    values.set("peak_rss_mib", run.peak_rss_mib);
    values.set("exec_cost_ratio", run.check.exec_cost_ratio());

    println!("# {} — timed run, tracing off\n{}", workload.name(), workload.why());
    println!(
        "env: {} seed={seed} seconds={seconds} scale={} trials={} units_per_trial={} \
         setup_samples={} boots_per_sample={}",
        environment(),
        scale.name(),
        run.throughput_ops_s.len(),
        run.units_per_trial,
        run.setup_s.len(),
        run.setup_batch,
    );
    print_values(&values, &END_TO_END);
    println!("  throughput_ops_s per trial {}", trials(&run.throughput_ops_s));
    println!("  the clock's ops/s per trial {}", trials(&run.raw_throughput_ops_s));
    println!("  host slowdown per trial    {}", trials(&run.host_slowdown));
    println!("  read_p50_us per trial      {}", trials(&run.read_p50_us));
    if !run.write_p50_us.is_empty() {
        println!(
            "  write_p50_us per trial     {} (per-layer: service.write_p50_us)",
            trials(&run.write_p50_us)
        );
    }
    println!(
        "  checked {} answers against the unoptimized reference, {} wrong; cost {:.1} optimized / {:.1} original",
        run.check.checked, run.check.wrong, run.check.optimized_cost, run.check.original_cost
    );
    let s = &run.stats;
    println!(
        "  service: requests={} optimizations={} executions={} writes={} cache.hits={} cache.evictions={}",
        s.requests, s.optimizations, s.executions, s.writes, s.cache.hits, s.cache.evictions
    );
    values
}

fn report_traced(workload: Workload, scale: Scale, seed: u64, run: &TracedRun) {
    println!("# {} — traced run\n{}", workload.name(), workload.why());
    println!("env: {} seed={seed} scale={}", environment(), scale.name());
    print_values(&run.values, &PER_LAYER);
    println!("  spans written to {}", run.trace_path.display());
}

fn print_values(values: &Values, catalogue: &[MetricDef]) {
    for (def, value) in values.in_order(catalogue) {
        let moves =
            if def.moves.is_empty() { String::new() } else { format!("  -> {}", def.moves) };
        match value {
            Some(value) => println!("  {:<34} {:>16.4} {}{moves}", def.name, value, def.unit),
            None => println!("  {:<34} {:>16} {}{moves}", def.name, "not exercised", def.unit),
        }
    }
}

/// The contract's result line: one JSON object, last on standard output.
/// It carries every metric of `catalogue`: an end-to-end metric the run did
/// not measure is a bug, a per-layer metric of a layer the workload does not
/// exercise reads 0.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    catalogue: &[MetricDef],
) -> String {
    let metrics: Vec<String> = values
        .in_order(catalogue)
        .into_iter()
        .map(|(def, value)| {
            assert!(value.is_some() || def.bound.is_none(), "{} was not measured", def.name);
            let value = value.unwrap_or(0.0);
            assert!(value.is_finite(), "{} is not a number", def.name);
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// One run of one workload; prints the report and the result line. Returns
/// whether every op succeeded and every invariant held.
fn run_one(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    protocol: Protocol,
) -> bool {
    let prepared = Prepared::new(workload, scale, seed);
    let (attempted, failed, violations, values, catalogue): (_, _, _, _, &[MetricDef]) = if traced {
        let run = run_traced(prepared);
        report_traced(workload, scale, seed, &run);
        (run.attempted, run.failed, run.violations, run.values, &PER_LAYER)
    } else {
        let run = run_timed(prepared, seconds, protocol);
        let values = report_timed(workload, scale, seed, seconds, &run);
        (run.attempted, run.failed, run.violations, values, &END_TO_END)
    };
    for violation in &violations {
        println!("  VIOLATION: {violation}");
    }
    let correct = failed == 0 && violations.is_empty();
    println!("  ops_attempted={attempted} ops_failed={failed}");
    println!("{}", result_line(correct, attempted, failed, &values, catalogue));
    correct
}

fn real_main(args: &Args) -> Result<bool, String> {
    let seed = args.value("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.has("--smoke") {
        return Ok(Workload::ALL.into_iter().all(|w| {
            [false, true].into_iter().all(|traced| {
                run_one(w, Scale::Paper, seed, SMOKE_SECONDS, traced, Protocol::SMOKE)
            })
        }));
    }
    if args.has("--noise") {
        let runs = args.value("--runs")?.unwrap_or(noise::DEFAULT_RUNS);
        return noise::run(runs, seconds);
    }
    let trace: u8 = args.value("--trace")?.unwrap_or(0);
    if trace > 1 {
        return Err("--trace takes 0 or 1".into());
    }
    match args.value::<String>("--workload")? {
        Some(name) => {
            let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
            Ok(run_one(workload, workload.scale(), seed, seconds, trace == 1, Protocol::FULL))
        }
        // Every workload, timed then traced, each in a process of its own
        // so that one's memory does not count towards the next one's peak.
        None => {
            let mut ok = true;
            for workload in Workload::ALL {
                for traced in ["0", "1"] {
                    ok &= noise::child(workload, seed, seconds, traced)
                        .status()
                        .map_err(|e| format!("cannot start a run: {e}"))?
                        .success();
                }
            }
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    match real_main(&Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is this rendering of the catalogue, byte for byte.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let list = |entries: Vec<String>| entries.join(",\n    ");
        let workloads = Workload::ALL
            .into_iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
            .collect();
        let metric = |d: &MetricDef| {
            let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                d.name, d.unit, d.better
            )
        };
        let expected = format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--locked\", \
             \"--manifest-path\", \"benches/e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"benches/e2e\"],\n  \
             \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
             \"per_layer\": [\n    {}\n  ]\n}}\n",
            list(workloads),
            list(END_TO_END.iter().map(metric).collect()),
            list(PER_LAYER.iter().map(metric).collect()),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let actual = std::fs::read_to_string(path).unwrap_or_default();
        assert!(actual == expected, "BENCHMARK.json should read:\n{expected}");
    }

    #[test]
    fn result_line_is_what_noise_reads_back() {
        let mut values = Values::default();
        for (def, value) in END_TO_END.iter().zip([0.25, 1234.5, 17.0, 11.5, 0.91]) {
            values.set(def.name, value);
        }
        let line = result_line(true, 10, 0, &values, &END_TO_END);
        let parsed = noise::parse_result_line(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics[1], ("throughput_ops_s".to_string(), 1234.5));
        assert_eq!(parsed.metrics[4], ("exec_cost_ratio".to_string(), 0.91));

        // A layer the workload does not exercise reads 0 in the line.
        let mut layers = Values::default();
        layers.set("trace.clock_ns", 21.0);
        let parsed = noise::parse_result_line(&result_line(true, 1, 0, &layers, &PER_LAYER));
        let metrics = parsed.expect("parses").metrics;
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].1, 0.0);
        assert_eq!(metrics[PER_LAYER.len() - 1], ("trace.clock_ns".to_string(), 21.0));
    }
}
