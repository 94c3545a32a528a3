//! Machine-readable experiment headlines.
//!
//! `report --json <path>` writes one small JSON document per run (CI
//! uploads it as an artifact) so the numbers can be tracked across commits
//! without scraping the human-oriented text tables. The emitter is
//! hand-rolled — the workspace has no JSON dependency, and the payload is
//! just grouped `metric: number` pairs. Nothing reads the document back:
//! the machine-independent numbers are pinned by `tests/paper_numbers.rs`
//! and the timings are informational.

/// One headline number of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Experiment id (`"table42"`, `"e11"`, …).
    pub experiment: &'static str,
    /// Metric name within the experiment (`"db1_mean_ratio"`, …).
    pub metric: String,
    pub value: f64,
}

impl Headline {
    pub fn new(experiment: &'static str, metric: impl Into<String>, value: f64) -> Self {
        Self { experiment, metric: metric.into(), value }
    }
}

/// Renders the run's headlines as a JSON object:
///
/// ```json
/// { "seed": 42, "smoke": false, "nproc": 2,
///   "experiments": { "table41": { "class_cardinality_db1": 52 } } }
/// ```
///
/// `nproc` is the machine's hardware thread count — what the thread sweeps
/// were capped at, and what any timing in the document has to be read
/// against. Experiments and metrics keep their insertion order; non-finite
/// values become `null` (JSON has no NaN/inf).
pub fn render_json(seed: u64, smoke: bool, nproc: usize, headlines: &[Headline]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"nproc\": {nproc},\n"
    ));
    out.push_str("  \"experiments\": {");
    let mut experiments: Vec<&'static str> = Vec::new();
    for h in headlines {
        if !experiments.contains(&h.experiment) {
            experiments.push(h.experiment);
        }
    }
    for (ei, exp) in experiments.iter().enumerate() {
        if ei > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {{", escape(exp)));
        let metrics: Vec<&Headline> = headlines.iter().filter(|h| h.experiment == *exp).collect();
        for (mi, h) in metrics.iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n      {}: {}", escape(&h.metric), number(h.value)));
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // Round-trippable but compact: integers stay integral.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v}");
        debug_assert!(s.parse::<f64>().is_ok());
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_grouped_and_ordered() {
        let hs = vec![
            Headline::new("e11", "p99_us_w0_t1", 7.25),
            Headline::new("table41", "class_cardinality_db1", 52.0),
            Headline::new("e11", "qps_w0_t2", 120000.0),
        ];
        let json = render_json(42, true, 2, &hs);
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"nproc\": 2"));
        let e11 = json.find("\"e11\"").unwrap();
        let t41 = json.find("\"table41\"").unwrap();
        assert!(e11 < t41, "insertion order preserved:\n{json}");
        assert!(json.contains("\"p99_us_w0_t1\": 7.25"));
        assert!(json.contains("\"qps_w0_t2\": 120000"));
    }

    #[test]
    fn non_finite_becomes_null_and_strings_escape() {
        let hs = vec![Headline::new("x", "a\"b", f64::NAN)];
        let json = render_json(0, false, 1, &hs);
        assert!(json.contains("\"a\\\"b\": null"));
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(number(52.0), "52");
        assert_eq!(number(0.125), "0.125");
        assert_eq!(number(f64::INFINITY), "null");
        assert!(number(1.0e18).parse::<f64>().is_ok());
    }
}
