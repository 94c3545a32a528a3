//! The paper's evaluation (§4) and this repository's ablations, E2–E7: one
//! function per table or figure. Each returns its headline numbers (or the
//! rows they derive from) and a rendered report section. Everything here
//! except the transformation times (Figure 4.1) is a
//! machine-independent cost ratio or count that repeats to the bit at a
//! given seed; `tests/paper_numbers.rs` pins those exactly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_baseline::{
    ApplicationOrder, AssignmentPolicy, ConstraintGroups, StraightforwardOptimizer,
};
use sqo_constraints::{ConstraintStore, StoreOptions};
use sqo_core::{
    formulate, run_transformations, OptimizerConfig, SemanticOptimizer, StructuralOracle,
    TransformationTable,
};
use sqo_exec::{execute, plan_query, CostBasedOracle, CostModel};
use sqo_query::Query;
use sqo_workload::{
    bench_schema::bench_catalog, generate_constraints, paper_query_set, paper_scenario,
    ConstraintGenConfig, DbSize, PaperScenario, QueryGenConfig,
};

use crate::fmt::TextTable;
use crate::json::Headline;

// ---------------------------------------------------------------------------
// E2 — Table 4.1: the four database instances.
// ---------------------------------------------------------------------------

pub fn table41(seed: u64) -> (Vec<Headline>, String) {
    let mut t = TextTable::new(vec!["", "DB1", "DB2", "DB3", "DB4"]);
    let scenarios: Vec<PaperScenario> =
        DbSize::ALL.iter().map(|&s| paper_scenario(s, seed)).collect();
    t.row(vec!["# object class".to_string(), "5".into(), "5".into(), "5".into(), "5".into()]);
    let card: Vec<u64> = scenarios
        .iter()
        .map(|s| {
            let cargo = s.catalog.class_id("cargo").expect("cargo");
            s.db.cardinality(cargo) as u64
        })
        .collect();
    t.row(vec![
        "avg. class cardinality".to_string(),
        card[0].to_string(),
        card[1].to_string(),
        card[2].to_string(),
        card[3].to_string(),
    ]);
    t.row(vec!["# relationships".to_string(), "6".into(), "6".into(), "6".into(), "6".into()]);
    let rels: Vec<u64> = scenarios
        .iter()
        .map(|s| {
            let total: u64 =
                s.catalog.relationships().map(|(rid, _)| s.db.links(rid).link_count()).sum();
            total / s.catalog.relationship_count() as u64
        })
        .collect();
    t.row(vec![
        "avg. relationship cardinality".to_string(),
        rels[0].to_string(),
        rels[1].to_string(),
        rels[2].to_string(),
        rels[3].to_string(),
    ]);
    let mut headlines = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        let db = s.db_size.name().to_lowercase();
        headlines.push(Headline::new("table41", format!("class_cardinality_{db}"), card[i] as f64));
        headlines.push(Headline::new("table41", format!("rel_cardinality_{db}"), rels[i] as f64));
    }
    (
        headlines,
        format!("Table 4.1: Database Sizes (measured from generated instances)\n{}", t.render()),
    )
}

/// Headline numbers of Figure 4.1: per-series transformation time at the
/// largest query size (the paper's rightmost points).
pub fn fig41_headlines(points: &[Fig41Point]) -> Vec<Headline> {
    let mut out = Vec::new();
    for p in points {
        out.push(Headline::new(
            "fig41",
            format!("transform_us_c{}_q{}", p.constraints_per_class, p.query_classes),
            p.avg_transform.as_nanos() as f64 / 1000.0,
        ));
    }
    out
}

/// Headline numbers of Table 4.2: mean cost ratio and improved fraction
/// per database instance.
pub fn table42_headlines(rows: &[Table42Row]) -> Vec<Headline> {
    let mut out = Vec::new();
    for row in rows {
        let db = row.db.name().to_lowercase();
        let mean = row.ratios.iter().sum::<f64>() / row.ratios.len().max(1) as f64;
        let improved = row.ratios.iter().filter(|&&r| r < 0.999).count() as f64
            / row.ratios.len().max(1) as f64;
        out.push(Headline::new("table42", format!("{db}_mean_ratio"), mean));
        out.push(Headline::new("table42", format!("{db}_improved_fraction"), improved));
    }
    out
}

// ---------------------------------------------------------------------------
// E3 — Figure 4.1: query transformation time vs #classes, by #constraints.
// ---------------------------------------------------------------------------

/// One measurement point of Figure 4.1.
#[derive(Debug, Clone, Copy)]
pub struct Fig41Point {
    pub constraints_per_class: usize,
    pub query_classes: usize,
    pub avg_relevant: f64,
    pub avg_transform: Duration,
}

pub fn figure41(seed: u64, reps: usize) -> (Vec<Fig41Point>, String) {
    let catalog = Arc::new(bench_catalog().expect("schema"));
    let mut points = Vec::new();
    for per_class in [1usize, 5, 9] {
        let generated = generate_constraints(
            &catalog,
            ConstraintGenConfig { per_class, seed, ..Default::default() },
        )
        .expect("constraints");
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            generated.constraints,
            StoreOptions::paper_defaults(),
        )
        .expect("store");
        let config = OptimizerConfig::paper();
        let queries = paper_query_set(
            &catalog,
            &generated.forcings,
            40,
            &QueryGenConfig { seed: seed.wrapping_add(1), ..Default::default() },
        );
        for classes in 2..=5usize {
            let subset: Vec<&Query> =
                queries.iter().filter(|q| q.classes.len() == classes).collect();
            if subset.is_empty() {
                continue;
            }
            let mut total = Duration::ZERO;
            let mut relevant = 0usize;
            let mut n = 0usize;
            // The paper's "actual transformation" time: the table, the
            // fixpoint and formulation, with retrieval outside the clock.
            for q in &subset {
                let relevant_set = store.relevant_for(q);
                for _ in 0..reps {
                    let start = Instant::now();
                    let mut table = TransformationTable::build(
                        &catalog,
                        &store,
                        &relevant_set,
                        q,
                        config.match_policy,
                    );
                    run_transformations(&mut table, &config);
                    formulate(&catalog, q, &table, &config, &StructuralOracle);
                    total += start.elapsed();
                    relevant += relevant_set.len();
                    n += 1;
                }
            }
            points.push(Fig41Point {
                constraints_per_class: per_class,
                query_classes: classes,
                avg_relevant: relevant as f64 / n as f64,
                avg_transform: total / n as u32,
            });
        }
    }
    let mut t = TextTable::new(vec![
        "constraints/class",
        "classes in query",
        "avg relevant constraints",
        "avg transformation time (µs)",
    ]);
    for p in &points {
        t.row(vec![
            p.constraints_per_class.to_string(),
            p.query_classes.to_string(),
            format!("{:.1}", p.avg_relevant),
            format!("{:.1}", p.avg_transform.as_nanos() as f64 / 1000.0),
        ]);
    }
    (
        points,
        format!(
            "Figure 4.1: Query Transformation Time \
             (series = constraint population; paper's y-axis was seconds on a SUN-3/160)\n{}",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E4 — Table 4.2: optimized/original cost-ratio distribution per instance.
// ---------------------------------------------------------------------------

/// Ratio distribution for one database instance.
#[derive(Debug, Clone)]
pub struct Table42Row {
    pub db: DbSize,
    pub ratios: Vec<f64>,
    /// Histogram over 10%-wide buckets `[0,10) … [110,∞)` as percentages.
    pub buckets: Vec<f64>,
}

/// Transformation cost in the same simulated work units as execution.
///
/// The paper's transformation cost (0.1–0.4 s against 1–2 s DB1 queries on a
/// SUN-3/160) was dominated by constraint-group I/O plus table work; folding
/// our *2026 wall-clock* through a calibration constant would misstate those
/// 1991 proportions by orders of magnitude, so the harness charges the
/// deterministic equivalents instead: half a page per constraint-group fetch
/// (one group per query class, buffer-softened), a dash of CPU per relevant
/// constraint (the table row) and per applied transformation. Raw wall-clock
/// transformation time is what Figure 4.1 reports separately.
pub fn transformation_work_units(report: &sqo_core::OptimizationReport) -> f64 {
    // Calibrated against the paper's own proportions: on DB1 the regressed
    // queries lost *about 10%* to optimization overhead (their 0.1–0.4 s
    // against 1–2 s queries). A typical 4-class query here costs ~4 work
    // units, so the charge lands around 0.3 units.
    report.query_classes as f64 * 0.05
        + report.relevant_constraints as f64 * 0.015
        + report.transformations.applied.len() as f64 * 0.01
}

pub fn table42(seed: u64) -> (Vec<Table42Row>, String) {
    let model = CostModel::default();
    let mut rows = Vec::new();
    for &size in &DbSize::ALL {
        let scenario = paper_scenario(size, seed);
        let oracle = CostBasedOracle::new(&scenario.db);
        let optimizer = SemanticOptimizer::new(&scenario.store);
        let mut ratios = Vec::with_capacity(scenario.queries.len());
        for query in &scenario.queries {
            // Paper: "cost of optimized query (including query
            // transformation time)".
            let out = optimizer.optimize(query, &oracle).expect("optimize");
            let transform_units = transformation_work_units(&out.report);
            let (_, c_orig) =
                execute(&scenario.db, &plan_query(&scenario.db, query, &model).expect("plan"))
                    .expect("execute");
            // A provably-empty query is answered without touching the
            // database — only the transformation cost remains.
            let opt_exec = if out.report.provably_empty {
                0.0
            } else {
                let (_, c_opt) = execute(
                    &scenario.db,
                    &plan_query(&scenario.db, &out.query, &model).expect("plan"),
                )
                .expect("execute");
                model.measured(&c_opt)
            };
            let orig = model.measured(&c_orig).max(1e-9);
            ratios.push((opt_exec + transform_units) / orig);
        }
        let mut buckets = vec![0.0f64; 12];
        for &r in &ratios {
            let b = ((r * 10.0).floor() as usize).min(11);
            buckets[b] += 1.0;
        }
        for b in buckets.iter_mut() {
            *b = *b * 100.0 / ratios.len() as f64;
        }
        rows.push(Table42Row { db: size, ratios, buckets });
    }
    let mut t = TextTable::new(vec![
        "", "0%", "10%", "20%", "30%", "40%", "50%", "60%", "70%", "80%", "90%", "100%", ">110%",
    ]);
    for row in &rows {
        let mut cells = vec![row.db.name().to_string()];
        cells.extend(row.buckets.iter().map(|b| {
            if *b == 0.0 {
                "--".to_string()
            } else {
                format!("{b:.0}")
            }
        }));
        t.row(cells);
    }
    let mut summary = String::new();
    for row in &rows {
        let improved = row.ratios.iter().filter(|&&r| r < 0.999).count();
        let regressed = row.ratios.iter().filter(|&&r| r > 1.001).count();
        summary.push_str(&format!(
            "  {}: {}% faster after optimization, {}% regressed (worst ratio {:.2})\n",
            row.db.name(),
            improved * 100 / row.ratios.len(),
            regressed * 100 / row.ratios.len(),
            row.ratios.iter().cloned().fold(0.0, f64::max),
        ));
    }
    (
        rows,
        format!(
            "Table 4.2: Ratio of Optimized Cost (incl. transformation) to Original Cost\n\
             (cell = % of the 40 queries whose ratio falls in the bucket)\n{}\n{summary}",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E5 — baseline comparison (order dependence + dominance).
// ---------------------------------------------------------------------------

pub fn baseline_comparison(seed: u64) -> (Vec<Headline>, String) {
    let scenario = paper_scenario(DbSize::Db3, seed);
    let model = CostModel::default();
    let oracle = CostBasedOracle::new(&scenario.db);
    let optimizer = SemanticOptimizer::new(&scenario.store);
    let orders = [
        ApplicationOrder::AsRetrieved,
        ApplicationOrder::IntroductionsFirst,
        ApplicationOrder::EliminationsFirst,
        ApplicationOrder::Seeded(17),
    ];
    let mut core_total = 0.0;
    let mut sf_total = vec![0.0f64; orders.len()];
    let mut divergent = 0usize;
    for query in &scenario.queries {
        let core_q = optimizer.optimize(query, &oracle).expect("optimize").query;
        let (_, c) =
            execute(&scenario.db, &plan_query(&scenario.db, &core_q, &model).expect("plan"))
                .expect("execute");
        core_total += model.measured(&c);
        let mut outcomes = Vec::new();
        for (oi, order) in orders.iter().enumerate() {
            let sf = StraightforwardOptimizer::new(&scenario.store, *order);
            let q = sf.optimize(query, &oracle).query;
            let (_, c) =
                execute(&scenario.db, &plan_query(&scenario.db, &q, &model).expect("plan"))
                    .expect("execute");
            sf_total[oi] += model.measured(&c);
            outcomes.push(q.normalized());
        }
        if outcomes.windows(2).any(|w| w[0] != w[1]) {
            divergent += 1;
        }
    }
    let mut t = TextTable::new(vec!["optimizer", "total measured cost (40 queries)"]);
    t.row(vec!["tentative (this paper)".to_string(), format!("{core_total:.1}")]);
    for (oi, order) in orders.iter().enumerate() {
        t.row(vec![format!("straight-forward {order:?}"), format!("{:.1}", sf_total[oi])]);
    }
    let best_sf = sf_total.iter().cloned().fold(f64::INFINITY, f64::min);
    let headlines = vec![
        Headline::new("e5", "tentative_total_cost", core_total),
        Headline::new("e5", "straightforward_best_total_cost", best_sf),
        Headline::new("e5", "order_dependent_queries", divergent as f64),
    ];
    (
        headlines,
        format!(
            "E5: Tentative vs straight-forward application (DB3)\n{}\n\
             order-dependent outcomes on {divergent}/40 queries\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E6 — grouping-scheme effectiveness by assignment policy.
// ---------------------------------------------------------------------------

pub fn grouping(seed: u64) -> (Vec<Headline>, String) {
    let catalog = Arc::new(bench_catalog().expect("schema"));
    let generated = generate_constraints(
        &catalog,
        ConstraintGenConfig { seed, per_class: 4, ..Default::default() },
    )
    .expect("constraints");
    let queries = paper_query_set(
        &catalog,
        &generated.forcings,
        40,
        &QueryGenConfig { seed: seed.wrapping_add(1), ..Default::default() },
    );
    let store = ConstraintStore::build(
        Arc::clone(&catalog),
        generated.constraints,
        StoreOptions::paper_defaults(),
    )
    .expect("store");
    // What a scan of every constraint would touch.
    let scanned = store.len() * queries.len();
    let mut t = TextTable::new(vec!["policy", "retrieved", "relevant", "waste %", "scan baseline"]);
    let mut headlines = Vec::new();
    for policy in [
        AssignmentPolicy::Arbitrary,
        AssignmentPolicy::LeastFrequentlyAccessed,
        AssignmentPolicy::Balanced,
    ] {
        let mut groups = ConstraintGroups::new(&store, policy);
        for q in &queries {
            let _ = groups.relevant_for(q);
        }
        t.row(vec![
            format!("{policy:?}"),
            groups.retrieved().to_string(),
            groups.relevant().to_string(),
            format!("{:.1}", groups.waste_ratio() * 100.0),
            scanned.to_string(),
        ]);
        headlines.push(Headline::new(
            "e6",
            format!("waste_pct_{policy:?}").to_lowercase(),
            groups.waste_ratio() * 100.0,
        ));
    }
    (
        headlines,
        format!("E6: Constraint grouping (40 queries; lower waste = better)\n{}", t.render()),
    )
}

// ---------------------------------------------------------------------------
// E7 — the §4 priority-queue budget extension.
// ---------------------------------------------------------------------------

pub fn budget_sweep(seed: u64) -> (Vec<Headline>, String) {
    let scenario = paper_scenario(DbSize::Db3, seed);
    let model = CostModel::default();
    let oracle = CostBasedOracle::new(&scenario.db);
    let budgets: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(4), Some(8), None];
    let mut t =
        TextTable::new(vec!["budget", "mean cost ratio vs unoptimized", "transformations applied"]);
    let mut headlines = Vec::new();
    for budget in budgets {
        let config = match budget {
            Some(b) => OptimizerConfig::budgeted(b),
            None => OptimizerConfig::paper(),
        };
        let optimizer = SemanticOptimizer::with_config(&scenario.store, config);
        let mut ratio_sum = 0.0;
        let mut applied = 0usize;
        for query in &scenario.queries {
            let out = optimizer.optimize(query, &oracle).expect("optimize");
            applied += out.report.transformations.applied.len();
            let (_, c_orig) =
                execute(&scenario.db, &plan_query(&scenario.db, query, &model).expect("plan"))
                    .expect("execute");
            let (_, c_opt) =
                execute(&scenario.db, &plan_query(&scenario.db, &out.query, &model).expect("plan"))
                    .expect("execute");
            ratio_sum += model.measured(&c_opt) / model.measured(&c_orig).max(1e-9);
        }
        let label = budget.map(|b| b.to_string()).unwrap_or_else(|| "unlimited".into());
        t.row(vec![
            label.clone(),
            format!("{:.3}", ratio_sum / scenario.queries.len() as f64),
            applied.to_string(),
        ]);
        headlines.push(Headline::new(
            "e7",
            format!("ratio_budget_{label}"),
            ratio_sum / scenario.queries.len() as f64,
        ));
    }
    (headlines, format!("E7: Priority queue under a transformation budget (DB3)\n{}", t.render()))
}
