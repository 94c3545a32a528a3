//! Experiment drivers: one function per table/figure of the paper plus the
//! DESIGN.md ablations (E5–E8). Each returns structured data *and* renders a
//! report section, so both the `report` binary and the Criterion benches can
//! reuse them.

use std::time::{Duration, Instant};

use sqo_baseline::{ApplicationOrder, StraightforwardOptimizer};
use sqo_constraints::{AssignmentPolicy, ConstraintStore, StoreOptions};
use sqo_core::{OptimizerConfig, OptimizerScratch, SemanticOptimizer, StructuralOracle};
use sqo_exec::{
    execute, execute_with, plan_query, plan_query_shared, CostBasedOracle, CostModel, ExecScratch,
    ResultSet,
};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_storage::Database;
use sqo_workload::{
    bench_schema::bench_catalog, generate_constraints, generate_database, paper_query_set,
    paper_scenario, service_workload, ConstraintGenConfig, DataGenConfig, DbSize, PaperScenario,
    QueryGenConfig, ServiceWorkloadConfig,
};
use std::sync::Arc;

use crate::fmt::TextTable;
use crate::json::Headline;

/// Measured work units per second of wall time, used to fold transformation
/// time into Table 4.2's cost ratios the way the paper folds its
/// transformation seconds into DBMS cost.
pub fn calibrate_units_per_second(scenario: &PaperScenario) -> f64 {
    let model = CostModel::default();
    let query = &scenario.queries[0];
    let plan = plan_query(&scenario.db, query, &model).expect("plan");
    // Warm up, then measure a batch.
    let _ = execute(&scenario.db, &plan).expect("execute");
    let mut units = 0.0;
    let start = Instant::now();
    let reps = 50;
    for _ in 0..reps {
        let (_, counters) = execute(&scenario.db, &plan).expect("execute");
        units += model.measured(&counters);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    units / secs
}

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
        let optimizer = SemanticOptimizer::new(&store);
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
            for q in &subset {
                for _ in 0..reps {
                    let out = optimizer.optimize(q, &StructuralOracle).expect("optimize");
                    total += out.report.timings.excluding_retrieval();
                    relevant += out.report.relevant_constraints;
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
    let mut t = TextTable::new(vec!["policy", "retrieved", "relevant", "waste %", "scan baseline"]);
    let mut headlines = Vec::new();
    for policy in [
        AssignmentPolicy::Arbitrary,
        AssignmentPolicy::LeastFrequentlyAccessed,
        AssignmentPolicy::Balanced,
    ] {
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            generated.constraints.clone(),
            StoreOptions { policy, ..StoreOptions::paper_defaults() },
        )
        .expect("store");
        let mut scanned = 0usize;
        for q in &queries {
            let _ = store.relevant_for(q);
            scanned += store.len(); // what the ungrouped baseline would touch
        }
        let m = store.metrics();
        // ordering: post-run metric reads; the single-threaded driver
        // already synchronized with the store via `relevant_for` returns.
        let retrieved = m.retrieved.load(std::sync::atomic::Ordering::Relaxed);
        let relevant = m.relevant.load(std::sync::atomic::Ordering::Relaxed); // ordering: see above
        t.row(vec![
            format!("{policy:?}"),
            retrieved.to_string(),
            relevant.to_string(),
            format!("{:.1}", m.waste_ratio() * 100.0),
            scanned.to_string(),
        ]);
        headlines.push(Headline::new(
            "e6",
            format!("waste_pct_{policy:?}").to_lowercase(),
            m.waste_ratio() * 100.0,
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

// ---------------------------------------------------------------------------
// E8 — transitive-closure materialization.
// ---------------------------------------------------------------------------

pub fn closure_ablation(seed: u64) -> (Vec<Headline>, String) {
    let catalog = Arc::new(bench_catalog().expect("schema"));
    let generated = generate_constraints(
        &catalog,
        ConstraintGenConfig { seed, chain_fraction: 0.5, ..Default::default() },
    )
    .expect("constraints");
    let db =
        generate_database(Arc::clone(&catalog), &DbSize::Db2.config(seed), &generated.forcings)
            .expect("database");
    let queries = paper_query_set(
        &catalog,
        &generated.forcings,
        40,
        &QueryGenConfig { seed: seed.wrapping_add(1), ..Default::default() },
    );
    let model = CostModel::default();
    let mut t = TextTable::new(vec![
        "closure",
        "stored constraints",
        "transformations",
        "mean cost ratio",
        "mean transform µs",
    ]);
    let mut headlines = Vec::new();
    for materialize in [false, true] {
        let t0 = Instant::now();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            generated.constraints.clone(),
            StoreOptions { materialize_closure: materialize, ..StoreOptions::paper_defaults() },
        )
        .expect("store");
        let _build = t0.elapsed();
        let oracle = CostBasedOracle::new(&db);
        let optimizer = SemanticOptimizer::new(&store);
        let mut applied = 0usize;
        let mut ratio_sum = 0.0;
        let mut micros = 0.0;
        for query in &queries {
            let out = optimizer.optimize(query, &oracle).expect("optimize");
            applied += out.report.transformations.applied.len();
            micros += out.report.timings.total().as_secs_f64() * 1e6;
            let (_, c_orig) =
                execute(&db, &plan_query(&db, query, &model).expect("plan")).expect("execute");
            let (_, c_opt) =
                execute(&db, &plan_query(&db, &out.query, &model).expect("plan")).expect("execute");
            ratio_sum += model.measured(&c_opt) / model.measured(&c_orig).max(1e-9);
        }
        let label = if materialize { "materialized" } else { "off" };
        t.row(vec![
            label.to_string(),
            store.len().to_string(),
            applied.to_string(),
            format!("{:.3}", ratio_sum / queries.len() as f64),
            format!("{:.1}", micros / queries.len() as f64),
        ]);
        headlines.push(Headline::new(
            "e8",
            format!("ratio_{label}"),
            ratio_sum / queries.len() as f64,
        ));
        headlines.push(Headline::new(
            "e8",
            format!("transform_us_{label}"),
            micros / queries.len() as f64,
        ));
    }
    (
        headlines,
        format!(
            "E8: Transitive-closure materialization (chain-heavy constraints, DB2)\n{}",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E9 — serving-layer throughput: cold vs. warm plan cache, 1/2/4/8 threads.
// ---------------------------------------------------------------------------

/// One thread-count measurement of the E9 throughput experiment.
#[derive(Debug, Clone, Copy)]
pub struct E9Row {
    pub threads: usize,
    pub requests: usize,
    /// Requests/s of the uncached library pipeline (every request
    /// re-optimizes, re-plans and re-executes).
    pub cold_qps: f64,
    /// Requests/s with a pre-warmed sharded plan/result cache.
    pub warm_qps: f64,
    /// `warm_qps / cold_qps`.
    pub speedup: f64,
    /// Cache hit rate over the measured warm batch (warm-up excluded).
    pub warm_hit_rate: f64,
}

/// E9: closed-loop throughput of [`QueryService`] on a Zipf-skewed
/// repeated-query stream (shuffled spellings), cold path vs. warm cache.
///
/// The cold column runs the full ICDE'91 library pipeline per request
/// (`cold_pipeline`, no service); the warm service answers from the
/// `(fingerprint, epoch)`-keyed cache. Result equality between the two
/// paths is asserted per request at one thread.
pub fn service_throughput(seed: u64, smoke: bool) -> (Vec<E9Row>, String) {
    let scenario = paper_scenario(DbSize::Db1, seed);
    let store = Arc::new(scenario.store);
    let db = Arc::new(scenario.db);
    let workload = service_workload(
        &scenario.queries,
        &ServiceWorkloadConfig {
            seed: seed.wrapping_add(90),
            requests: if smoke { 96 } else { 1536 },
            ..Default::default()
        },
    );
    let mut rows = Vec::new();
    let mut cold_fingerprints: Vec<u64> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let cold_results = cold_pipeline(&store, &db, &workload.requests, threads);
        let cold_secs = t0.elapsed().as_secs_f64().max(1e-9);

        let warm = QueryService::new(Arc::clone(&store), Arc::clone(&db));
        for q in &workload.distinct {
            warm.run(q).expect("warm-up");
        }
        let before = warm.stats().cache;
        let t1 = Instant::now();
        let warm_responses = warm.run_batch(&workload.requests, threads);
        let warm_secs = t1.elapsed().as_secs_f64().max(1e-9);
        let after = warm.stats().cache;
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        let batch_hit_rate =
            if lookups == 0 { 0.0 } else { (after.hits - before.hits) as f64 / lookups as f64 };

        if threads == 1 {
            // Correctness cross-check: the cached path answers exactly like
            // the uncached one, request by request.
            cold_fingerprints = cold_results.iter().map(ResultSet::fingerprint).collect();
        }
        for (i, r) in warm_responses.iter().enumerate() {
            let fp = r.as_ref().expect("warm request answered").results.fingerprint();
            assert_eq!(fp, cold_fingerprints[i], "warm answer diverged on request {i}");
        }

        let n = workload.requests.len();
        rows.push(E9Row {
            threads,
            requests: n,
            cold_qps: n as f64 / cold_secs,
            warm_qps: n as f64 / warm_secs,
            speedup: cold_secs / warm_secs,
            warm_hit_rate: batch_hit_rate,
        });
    }
    let mut t = TextTable::new(vec![
        "threads",
        "cold qps (no cache)",
        "warm qps (cached)",
        "speedup",
        "warm hit rate",
    ]);
    for r in &rows {
        t.row(vec![
            r.threads.to_string(),
            format!("{:.0}", r.cold_qps),
            format!("{:.0}", r.warm_qps),
            format!("{:.1}x", r.speedup),
            format!("{:.1}%", r.warm_hit_rate * 100.0),
        ]);
    }
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    (
        rows.clone(),
        format!(
            "E9: Serving-layer throughput ({} Zipf-skewed requests over {} distinct queries,\n\
             shuffled spellings; warm answers verified identical to the cold path)\n{}\n\
             minimum warm/cold speedup across thread counts: {min_speedup:.1}x\n",
            rows[0].requests,
            workload.distinct.len(),
            t.render()
        ),
    )
}

/// The harness's closed-loop pool: `threads` scoped workers claim the job
/// indexes `0..jobs` one at a time, each against its own `worker_state()`.
/// Returns every `(index, answer)`, grouped by worker.
fn closed_loop<S, R: Send>(
    jobs: usize,
    threads: usize,
    worker_state: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<(usize, R)> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = worker_state();
                    let mut out = Vec::with_capacity(jobs / threads + 1);
                    loop {
                        // ordering: work-stealing ticket; each index is claimed
                        // exactly once by RMW atomicity, no payload to publish.
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= jobs {
                            break out;
                        }
                        out.push((i, job(&mut state, i)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker")).collect()
    })
}

/// What a service pays on every miss, without the service: each request
/// canonicalized, semantically optimized, planned and executed from
/// scratch on `threads` closed-loop harness threads (per-thread scratch,
/// like the service's workers). Answers come back in request order.
fn cold_pipeline(
    store: &Arc<ConstraintStore>,
    db: &Database,
    requests: &[Query],
    threads: usize,
) -> Vec<ResultSet> {
    let model = CostModel::default();
    let optimizer = SemanticOptimizer::shared(Arc::clone(store));
    let mut answered = closed_loop(
        requests.len(),
        threads,
        // The oracle memoizes behind a `RefCell`: one per worker.
        || (CostBasedOracle::with_model(db, model), OptimizerScratch::new(), ExecScratch::new()),
        |(oracle, opt, exec), i| {
            let rewritten =
                optimizer.optimize_with(&requests[i].canonical(), oracle, opt).expect("optimize");
            if rewritten.report.provably_empty {
                let columns = rewritten.query.projections.iter().map(|p| p.attr);
                return ResultSet::new(columns.collect());
            }
            plan_query_shared(db, &rewritten.query, &model)
                .and_then(|plan| execute_with(db, &plan, exec))
                .expect("the rewritten query plans and executes")
                .0
        },
    );
    answered.sort_unstable_by_key(|(i, _)| *i);
    answered.into_iter().map(|(_, results)| results).collect()
}

/// The paper's contract as a cross-check oracle: the **original** query,
/// canonicalized for column order only, planned and executed unoptimized
/// on `db` — no `sqo-core`, no cache.
fn unoptimized_reference(db: &Database, query: &Query) -> ResultSet {
    plan_query(db, &query.canonical(), &CostModel::default())
        .and_then(|plan| execute(db, &plan))
        .expect("the original query plans and executes")
        .0
}

// ---------------------------------------------------------------------------
// E10 — cold-path latency: optimize+plan wall clock, p50/p99.
// ---------------------------------------------------------------------------

/// Latency distribution of the cold path (the work a [`QueryService`] does
/// on every cache miss and after every epoch bump): semantic optimization
/// plus conventional planning, excluding execution.
#[derive(Debug, Clone, Copy)]
pub struct E10Row {
    /// Samples behind the percentiles.
    pub samples: usize,
    pub optimize_plan_p50_us: f64,
    pub optimize_plan_p99_us: f64,
    pub optimize_plan_mean_us: f64,
    /// Mean share of the optimize+plan time spent in each optimizer phase
    /// (constraint retrieval / table init / transformation / formulation),
    /// the remainder being the conventional planner.
    pub retrieval_us: f64,
    pub init_us: f64,
    pub transform_us: f64,
    pub formulate_us: f64,
    pub plan_us: f64,
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_nanos() as f64 / 1000.0
}

/// E10: cold-path optimize+plan latency over the E9 distinct-query set.
///
/// Every sample runs the full miss pipeline — grouped-index constraint
/// retrieval, transformation-table fixpoint, formulation with the
/// cost-based oracle, then conventional planning — against the DB1
/// scenario, exactly what `QueryService` pays per cache miss.
pub fn cold_path_latency(seed: u64, smoke: bool) -> (E10Row, String) {
    let scenario = paper_scenario(DbSize::Db1, seed);
    let store = Arc::new(scenario.store);
    let db = Arc::new(scenario.db);
    let workload = service_workload(
        &scenario.queries,
        &ServiceWorkloadConfig { seed: seed.wrapping_add(90), requests: 16, ..Default::default() },
    );
    let optimizer = SemanticOptimizer::shared(Arc::clone(&store));
    let oracle = CostBasedOracle::new(&db);
    let model = CostModel::default();
    let mut scratch = OptimizerScratch::new();

    let reps = if smoke { 8 } else { 400 };
    // Warm-up: fault in per-query state once, outside the measurement.
    for q in &workload.distinct {
        let out = optimizer.optimize_with(q, &oracle, &mut scratch).expect("optimize");
        let _ = plan_query(&db, &out.query, &model);
    }
    let mut lat: Vec<Duration> = Vec::with_capacity(reps * workload.distinct.len());
    let (mut retr, mut init, mut tran, mut form, mut plan_t) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for _ in 0..reps {
        for q in &workload.distinct {
            let t0 = Instant::now();
            let out = optimizer.optimize_with(q, &oracle, &mut scratch).expect("optimize");
            let t1 = Instant::now();
            let plan_elapsed = if out.report.provably_empty {
                Duration::ZERO
            } else {
                std::hint::black_box(plan_query(&db, &out.query, &model).expect("plan"));
                t1.elapsed()
            };
            lat.push(t0.elapsed());
            let t = &out.report.timings;
            retr += t.retrieval.as_nanos() as f64 / 1000.0;
            init += t.initialization.as_nanos() as f64 / 1000.0;
            tran += t.transformation.as_nanos() as f64 / 1000.0;
            form += t.formulation.as_nanos() as f64 / 1000.0;
            plan_t += plan_elapsed.as_nanos() as f64 / 1000.0;
        }
    }
    lat.sort_unstable();
    let n = lat.len() as f64;
    let row = E10Row {
        samples: lat.len(),
        optimize_plan_p50_us: percentile_us(&lat, 0.50),
        optimize_plan_p99_us: percentile_us(&lat, 0.99),
        optimize_plan_mean_us: lat.iter().map(|d| d.as_nanos() as f64 / 1000.0).sum::<f64>() / n,
        retrieval_us: retr / n,
        init_us: init / n,
        transform_us: tran / n,
        formulate_us: form / n,
        plan_us: plan_t / n,
    };
    let mut t = TextTable::new(vec!["metric", "µs"]);
    t.row(vec!["optimize+plan p50".into(), format!("{:.2}", row.optimize_plan_p50_us)]);
    t.row(vec!["optimize+plan p99".into(), format!("{:.2}", row.optimize_plan_p99_us)]);
    t.row(vec!["optimize+plan mean".into(), format!("{:.2}", row.optimize_plan_mean_us)]);
    t.row(vec!["  constraint retrieval (mean)".into(), format!("{:.2}", row.retrieval_us)]);
    t.row(vec!["  table initialization (mean)".into(), format!("{:.2}", row.init_us)]);
    t.row(vec!["  transformation (mean)".into(), format!("{:.2}", row.transform_us)]);
    t.row(vec!["  formulation (mean)".into(), format!("{:.2}", row.formulate_us)]);
    t.row(vec!["  conventional planning (mean)".into(), format!("{:.2}", row.plan_us)]);
    (
        row,
        format!(
            "E10: Cold-path optimize+plan latency ({} samples over {} distinct DB1 queries)\n{}",
            row.samples,
            workload.distinct.len(),
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E11 — mutable-data serving: throughput/p99 under mixed read/write traffic.
// ---------------------------------------------------------------------------

/// One `(write ratio, thread count)` cell of the E11 experiment.
#[derive(Debug, Clone, Copy)]
pub struct E11Row {
    /// Write percentage of the request stream (1, 5 or 20).
    pub write_pct: usize,
    pub threads: usize,
    pub requests: usize,
    /// Requests/s over the whole mixed stream (reads + writes).
    pub qps: f64,
    /// p99 per-request latency (reads and writes alike), µs.
    pub p99_us: f64,
    /// Plan-cache hit rate over the measured batch — stays high under pure
    /// data writes because plans are never invalidated by them.
    pub plan_hit_rate: f64,
    /// Committed write batches.
    pub writes: u64,
    /// Final data epoch (== writes: one epoch per batch).
    pub data_epoch: u64,
}

/// E11: warm-cache throughput and tail latency of [`QueryService`] on a
/// Zipf-skewed mixed read/write stream at 1/5/20% writes and 1–8 threads.
///
/// Writes are constraint- and integrity-preserving duplicate inserts and
/// LIFO deletes ([`sqo_workload::mixed_workload`]), applied through the
/// service's versioned write path with integrity enforcement on. Before the
/// timed cells, every write ratio runs one **cross-check pass**: a
/// single-threaded replay where, after every write, each cached answer is
/// compared request-by-request against the unoptimized original query
/// executed on the same evolving database (`unoptimized_reference`) — and
/// the plan cache must keep hitting (plans survive data writes; memoized
/// results do not).
pub fn mutable_serving(seed: u64, smoke: bool) -> (Vec<E11Row>, String) {
    use std::sync::Mutex;

    use sqo_storage::{IntegrityOptions, VersionedDatabase};
    use sqo_workload::{mixed_workload, MixedApplier, MixedOp, MixedWorkloadConfig};

    let scenario = paper_scenario(DbSize::Db1, seed);
    let store = Arc::new(scenario.store);
    let db = Arc::new(scenario.db);
    let requests = if smoke { 96 } else { 1024 };
    let mut rows = Vec::new();
    for write_pct in [1usize, 5, 20] {
        let workload = mixed_workload(
            &scenario.queries,
            &scenario.catalog,
            &MixedWorkloadConfig {
                seed: seed.wrapping_add(91),
                requests,
                write_ratio: write_pct as f64 / 100.0,
                ..Default::default()
            },
        );

        // Cross-check pass (unmeasured): cached and unoptimized answers
        // must agree after every write.
        {
            let handle = Arc::new(VersionedDatabase::with_integrity(
                Arc::clone(&db),
                IntegrityOptions::default(),
            ));
            let warm = QueryService::with_versioned_db(
                Arc::clone(&store),
                Arc::clone(&handle),
                ServiceConfig::default(),
            );
            let mut applier = MixedApplier::new(&warm.db());
            for op in &workload.ops {
                match op {
                    MixedOp::Write(kind) => {
                        let snapshot = warm.db();
                        let (class, victim, batch) = applier.resolve(&snapshot, kind);
                        let outcome = warm.write(&batch).expect("safe write rejected");
                        applier.confirm(class, victim, &outcome.receipt);
                    }
                    MixedOp::Read { query, .. } => {
                        let a = warm.run(query).expect("warm");
                        let b = unoptimized_reference(&warm.db(), query);
                        assert_eq!(
                            a.results.fingerprint(),
                            b.fingerprint(),
                            "cached answer diverged from the unoptimized reference \
                             at {write_pct}% writes, data epoch {}",
                            a.data_epoch
                        );
                    }
                }
            }
            let stats = warm.stats();
            assert!(
                workload.writes == 0 || stats.cache.hit_rate() > 0.0,
                "plans must survive data writes: {stats:?}"
            );
        }

        // Timed cells.
        for threads in [1usize, 2, 4, 8] {
            let handle = Arc::new(VersionedDatabase::with_integrity(
                Arc::clone(&db),
                IntegrityOptions::default(),
            ));
            let service = QueryService::with_versioned_db(
                Arc::clone(&store),
                Arc::clone(&handle),
                ServiceConfig::default(),
            );
            for q in &workload.distinct {
                service.run(q).expect("warm-up");
            }
            let before = service.stats().cache;
            let applier = Mutex::new(MixedApplier::new(&service.db()));
            let t0 = Instant::now();
            let timed = closed_loop(
                workload.ops.len(),
                threads,
                || (),
                |(), i| {
                    let t = Instant::now();
                    match &workload.ops[i] {
                        MixedOp::Read { query, .. } => {
                            service.run(query).expect("run");
                        }
                        MixedOp::Write(kind) => {
                            let mut applier = applier.lock().expect("applier poisoned");
                            let snapshot = service.db();
                            let (class, victim, batch) = applier.resolve(&snapshot, kind);
                            let outcome = service.write(&batch).expect("safe write rejected");
                            applier.confirm(class, victim, &outcome.receipt);
                        }
                    }
                    t.elapsed()
                },
            );
            let mut latencies: Vec<Duration> = timed.into_iter().map(|(_, lat)| lat).collect();
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            latencies.sort_unstable();
            let after = service.stats();
            let lookups = (after.cache.hits + after.cache.misses) - (before.hits + before.misses);
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                (after.cache.hits - before.hits) as f64 / lookups as f64
            };
            rows.push(E11Row {
                write_pct,
                threads,
                requests: workload.ops.len(),
                qps: workload.ops.len() as f64 / secs,
                p99_us: percentile_us(&latencies, 0.99),
                plan_hit_rate: hit_rate,
                writes: after.writes,
                data_epoch: after.data_epoch,
            });
        }
    }
    let mut t = TextTable::new(vec![
        "writes %",
        "threads",
        "qps (mixed)",
        "p99 (µs)",
        "plan hit rate",
        "data epochs",
    ]);
    for r in &rows {
        t.row(vec![
            r.write_pct.to_string(),
            r.threads.to_string(),
            format!("{:.0}", r.qps),
            format!("{:.1}", r.p99_us),
            format!("{:.1}%", r.plan_hit_rate * 100.0),
            r.data_epoch.to_string(),
        ]);
    }
    let min_hit = rows.iter().map(|r| r.plan_hit_rate).fold(f64::INFINITY, f64::min);
    (
        rows.clone(),
        format!(
            "E11: Mutable-data serving ({requests} Zipf-skewed requests over 16 distinct \
             queries;\nwrites = integrity-preserving duplicate inserts/deletes; every ratio \
             cross-checked\nrequest-by-request against the unoptimized original after every \
             write)\n{}\nminimum plan-cache hit rate across cells: {:.1}% — plans survive \
             data writes,\nmemoized results are recomputed per data epoch\n",
            t.render(),
            min_hit * 100.0
        ),
    )
}

// ---------------------------------------------------------------------------
// E12 — write-batch latency: what a batch touches, not the class or database.
// ---------------------------------------------------------------------------

/// The benchmark schema at 20,000 objects per class and 30,000 links per
/// relationship — the `scaled` fixture of `benches/e2e`, where one class no
/// longer fits the caches and per-class work in a write shows.
pub fn scaled_database(seed: u64) -> Database {
    // invariant: the benchmark schema is a constant and its generated
    // constraints and data are built to hold on it.
    let catalog = Arc::new(bench_catalog().expect("benchmark schema builds"));
    let generated =
        generate_constraints(&catalog, ConstraintGenConfig { seed, ..Default::default() })
            .expect("constraint generation succeeds"); // invariant: see above
    generate_database(catalog, &DataGenConfig::new(20_000, 30_000, seed), &generated.forcings)
        .expect("database generation succeeds") // invariant: see above
}

/// E12: isolates the cost of [`sqo_storage::Database::with_writes`]
/// (incremental: paged copy-on-write shards, statistics by delta) against
/// [`sqo_storage::Database::with_writes_full`] (the from-scratch rebuild
/// oracle) along four axes:
///
/// 1. **batch size** (DB4, one touched class): both paths grow with the
///    batch, the incremental path from a far smaller base;
/// 2. **touched-class count** (DB4, fixed 60-write batch spread round-robin
///    over 1/2/5 classes): incremental latency grows with the classes
///    touched while the full rebuild stays flat — it always pays for all 5;
/// 3. **database size** (one-write batch, DB1→DB4): the full rebuild grows
///    with the database, the incremental path does not;
/// 4. **class size** (one-write batch at 20,000 objects per class): what is
///    left of the incremental path is the touched class's index banks, next
///    to the full rebuild and to a from-scratch statistics scan of the five
///    classes — a fifth of which every write to a class used to pay.
///
/// Writes are the constraint-preserving duplicate inserts of the E11
/// workload, so every measured batch is a realistic serving-path batch.
/// Every database is measured as a service holds it after its first write:
/// the batch has been applied once, so the touched classes' value counts
/// exist and the incremental path patches them instead of building them.
pub fn write_path_scaling(seed: u64, smoke: bool) -> (Vec<Headline>, String) {
    use sqo_storage::DataWrite;
    use sqo_workload::{copyable_rels, dup_insert, dup_safe_classes};

    /// A `size`-write batch spread round-robin over the first `classes`
    /// dup-safe classes of `db`.
    fn batch(db: &Database, classes: usize, size: usize) -> Vec<DataWrite> {
        let safe = dup_safe_classes(db.catalog());
        (0..size)
            .map(|i| {
                let class = safe[i % classes.min(safe.len())];
                dup_insert(db, class, i as u32, &copyable_rels(db.catalog(), class))
            })
            .collect()
    }

    fn apply(db: &Database, writes: &[DataWrite], full: bool) -> Database {
        let out =
            if full { db.with_writes_full(writes, None) } else { db.with_writes(writes, None) };
        out.expect("write batch applies").0
    }

    fn median_of(reps: usize, mut run: impl FnMut()) -> f64 {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            run();
            samples.push(t0.elapsed());
        }
        samples.sort_unstable();
        samples[samples.len() / 2].as_nanos() as f64 / 1000.0
    }

    /// Median µs of `writes` on `db` after its first application, by the
    /// incremental path and by the full rebuild.
    fn inc_and_full(db: &Database, writes: &[DataWrite], reps: usize) -> (f64, f64) {
        let db = apply(db, writes, false);
        [false, true]
            .map(|full| median_of(reps, || drop(std::hint::black_box(apply(&db, writes, full)))))
            .into()
    }

    let reps = if smoke { 5 } else { 60 };
    let mut headlines = Vec::new();
    let mut out = String::from(
        "E12: Write-batch latency — incremental clone-and-patch vs full rebuild\n\
         (µs per batch, median; writes are E11-style duplicate inserts)\n\n",
    );

    let db4 = paper_scenario(DbSize::Db4, seed).db;
    let mut t = TextTable::new(vec!["batch size (DB4, 1 class)", "incremental µs", "full µs", "x"]);
    for size in [1usize, 4, 16, 64] {
        let (inc, full) = inc_and_full(&db4, &batch(&db4, 1, size), reps);
        t.row(vec![
            size.to_string(),
            format!("{inc:.1}"),
            format!("{full:.1}"),
            format!("{:.1}x", full / inc.max(1e-9)),
        ]);
        headlines.push(Headline::new("e12", format!("inc_us_b{size}"), inc));
        headlines.push(Headline::new("e12", format!("full_us_b{size}"), full));
    }
    out.push_str(&t.render());

    let mut t =
        TextTable::new(vec!["classes touched (DB4, 60 writes)", "incremental µs", "full µs", "x"]);
    for classes in [1usize, 2, 5] {
        let (inc, full) = inc_and_full(&db4, &batch(&db4, classes, 60), reps);
        t.row(vec![
            classes.to_string(),
            format!("{inc:.1}"),
            format!("{full:.1}"),
            format!("{:.1}x", full / inc.max(1e-9)),
        ]);
        headlines.push(Headline::new("e12", format!("inc_us_c{classes}"), inc));
        headlines.push(Headline::new("e12", format!("full_us_c{classes}"), full));
    }
    out.push('\n');
    out.push_str(&t.render());

    let mut t = TextTable::new(vec!["database (1-write batch)", "incremental µs", "full µs", "x"]);
    for size in DbSize::ALL {
        let db = paper_scenario(size, seed).db;
        let (inc, full) = inc_and_full(&db, &batch(&db, 1, 1), reps);
        let name = size.name().to_lowercase();
        t.row(vec![
            size.name().to_string(),
            format!("{inc:.1}"),
            format!("{full:.1}"),
            format!("{:.1}x", full / inc.max(1e-9)),
        ]);
        headlines.push(Headline::new("e12", format!("inc_us_{name}"), inc));
        headlines.push(Headline::new("e12", format!("full_us_{name}"), full));
        headlines.push(Headline::new("e12", format!("speedup_{name}"), full / inc.max(1e-9)));
    }
    out.push('\n');
    out.push_str(&t.render());

    let scaled = scaled_database(seed);
    let scaled_reps = if smoke { 3 } else { 15 };
    let (inc, full) = inc_and_full(&scaled, &batch(&scaled, 1, 1), scaled_reps);
    let rescan = median_of(scaled_reps, || drop(std::hint::black_box(scaled.rebuild_statistics())));
    let mut t = TextTable::new(vec![
        "20,000 objects/class (1-write batch)",
        "incremental µs",
        "full µs",
        "x",
        "statistics rescan µs (5 classes)",
    ]);
    t.row(vec![
        "scaled".to_string(),
        format!("{inc:.1}"),
        format!("{full:.1}"),
        format!("{:.1}x", full / inc.max(1e-9)),
        format!("{rescan:.1}"),
    ]);
    headlines.push(Headline::new("e12", "inc_us_scaled", inc));
    headlines.push(Headline::new("e12", "full_us_scaled", full));
    headlines.push(Headline::new("e12", "stats_rescan_us_scaled", rescan));
    out.push('\n');
    out.push_str(&t.render());
    out.push_str(
        "\nreading: the full rebuild's cost tracks the database; the incremental path copies\n\
         the pages and count sub-maps a batch touches plus the touched classes' index banks —\n\
         at 20,000 objects per class the banks are what is left of it; the last column is the\n\
         from-scratch statistics scan, a fifth of which each write to a class used to run.\n",
    );
    (headlines, out)
}

// ---------------------------------------------------------------------------
// E13 — warm start: validated snapshot load vs cold boot.
// ---------------------------------------------------------------------------

/// E13: what the persistent `.sqos` snapshot (docs/FORMAT.md) buys at boot.
///
/// Both paths are timed to the *same serving state*: database assembled,
/// constraint store compiled, and the plan cache holding the first 16
/// distinct paper queries. The **cold** path pays for all of it — populate
/// the database (the stand-in for loading from the source of record),
/// assemble extents/links/indexes, fold statistics, materialize the
/// constraint closure, compile the store, then push the 16 queries through
/// the full optimize+plan pipeline. The **warm** path reads the snapshot
/// the cold service saved and validates it at Standard — the persisted
/// plan seeds restore the warmed cache directly, so it is ready the moment
/// the load returns. Every warm answer is asserted to be a plan-cache hit
/// and cross-checked against the cold service's answer.
///
/// Wall times are medians over repeated boots (the cold generator and the
/// warm loader both re-run from scratch each round). The Strict and Audit
/// load times quantify the validation ladder of docs/VALIDATION.md on the
/// same fixture.
pub fn warm_start_boot(seed: u64, smoke: bool) -> (Vec<Headline>, String) {
    use sqo_snapshot::ValidationLevel;

    fn med(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    // Smoke keeps both sizes (the committed baseline's metric set must be a
    // subset of every smoke run's, or benchdiff reports removals) and trims
    // rounds instead.
    let sizes: &[DbSize] = &[DbSize::Db1, DbSize::Db4];
    let rounds = if smoke { 2 } else { 7 };
    let first_n = 16usize;
    let mut headlines = Vec::new();
    let mut t = TextTable::new(vec![
        "",
        "cold to ready ms",
        "warm boot ms",
        "boot x",
        "cold 1st-16 p50 µs",
        "warm 1st-16 p50 µs",
        "strict ms",
        "audit ms",
        "snapshot KiB",
    ]);
    for &size in sizes {
        let name = size.name().to_lowercase();
        let path = std::env::temp_dir().join(format!("sqo_e13_{name}_{seed}.sqos"));

        // One untimed round on each side first: the very first boot of
        // either kind pays one-off process costs (lazy allocator growth,
        // page faults, branch training) that are not the cold/warm
        // difference under measurement.
        let warmup = {
            let s = paper_scenario(size, seed);
            let cold = QueryService::new(Arc::new(s.store), Arc::new(s.db));
            for q in s.queries.iter().take(first_n) {
                cold.run(q).expect("cold request answers");
            }
            cold.save_snapshot(&path).expect("snapshot writes");
            QueryService::warm_start(&path, ValidationLevel::Standard, ServiceConfig::default())
                .expect("warm start succeeds")
        };
        std::hint::black_box(&warmup);
        drop(warmup);

        // Cold boots: generate + assemble + closure + compile + wire up,
        // then warm the plan cache the hard way (16 optimize+plan runs).
        let mut cold_ready = Vec::with_capacity(rounds);
        let mut cold_lat: Vec<Duration> = Vec::with_capacity(rounds * first_n);
        let mut queries: Vec<Query> = Vec::new();
        let mut cold_answers = Vec::new();
        let mut bytes = Vec::new();
        for round in 0..rounds {
            let t0 = Instant::now();
            let s = paper_scenario(size, seed);
            let cold = QueryService::new(Arc::new(s.store), Arc::new(s.db));
            let mut lat = Vec::with_capacity(first_n);
            let mut answers = Vec::with_capacity(first_n);
            for q in s.queries.iter().take(first_n) {
                let tq = Instant::now();
                let r = cold.run(q).expect("cold request answers");
                lat.push(tq.elapsed());
                answers.push(r.results);
            }
            cold_ready.push(t0.elapsed().as_secs_f64() * 1e3);
            cold_lat.extend(&lat);
            if round == 0 {
                cold.save_snapshot(&path).expect("snapshot writes");
                bytes = std::fs::read(&path).expect("snapshot reads back");
                queries = s.queries.iter().take(first_n).cloned().collect();
                cold_answers = answers;
            }
        }

        // Warm boots: read + parse + Standard validation + store rebuild +
        // cache seed — the serving state arrives with the load.
        let mut warm_boot = Vec::with_capacity(rounds);
        let mut warm_lat: Vec<Duration> = Vec::with_capacity(rounds * first_n);
        for _ in 0..rounds {
            let t0 = Instant::now();
            let warm = QueryService::warm_start(
                &path,
                ValidationLevel::Standard,
                ServiceConfig::default(),
            )
            .expect("warm start succeeds");
            warm_boot.push(t0.elapsed().as_secs_f64() * 1e3);
            for (q, want) in queries.iter().zip(&cold_answers) {
                let tq = Instant::now();
                let r = warm.run(q).expect("warm request answers");
                warm_lat.push(tq.elapsed());
                assert!(r.cache_hit, "warm start must seed the plan cache");
                assert!(r.results.same_multiset(want), "warm answer matches cold");
            }
            assert_eq!(warm.stats().optimizations, 0, "no re-optimization after warm start");
        }

        let load_ms = |level: ValidationLevel| {
            let samples = (0..rounds)
                .map(|_| {
                    let t0 = Instant::now();
                    let svc =
                        QueryService::from_snapshot_bytes(&bytes, level, ServiceConfig::default())
                            .expect("validated load succeeds");
                    std::hint::black_box(&svc);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            med(samples)
        };
        let strict_ms = load_ms(ValidationLevel::Strict);
        let audit_ms = load_ms(ValidationLevel::Audit);
        let _ = std::fs::remove_file(&path);

        cold_lat.sort_unstable();
        warm_lat.sort_unstable();
        let cold_p50 = percentile_us(&cold_lat, 0.50);
        let warm_p50 = percentile_us(&warm_lat, 0.50);
        let cold_ready_ms = med(cold_ready);
        let warm_boot_ms = med(warm_boot);
        let speedup = cold_ready_ms / warm_boot_ms.max(1e-9);
        let kib = bytes.len() as f64 / 1024.0;
        t.row(vec![
            size.name().to_string(),
            format!("{cold_ready_ms:.2}"),
            format!("{warm_boot_ms:.2}"),
            format!("{speedup:.1}x"),
            format!("{cold_p50:.1}"),
            format!("{warm_p50:.1}"),
            format!("{strict_ms:.2}"),
            format!("{audit_ms:.2}"),
            format!("{kib:.1}"),
        ]);
        headlines.push(Headline::new("e13", format!("cold_boot_ms_{name}"), cold_ready_ms));
        headlines.push(Headline::new("e13", format!("warm_boot_ms_{name}"), warm_boot_ms));
        headlines.push(Headline::new("e13", format!("boot_speedup_{name}"), speedup));
        headlines.push(Headline::new("e13", format!("cold_first_p50_us_{name}"), cold_p50));
        headlines.push(Headline::new("e13", format!("warm_first_p50_us_{name}"), warm_p50));
        headlines.push(Headline::new("e13", format!("load_strict_ms_{name}"), strict_ms));
        headlines.push(Headline::new("e13", format!("load_audit_ms_{name}"), audit_ms));
        headlines.push(Headline::new("e13", format!("snapshot_kib_{name}"), kib));
    }
    let out = format!(
        "E13: Warm start — cold boot vs validated `.sqos` snapshot load\n\
         (both sides timed to the same serving state: database + compiled store + the\n\
         first 16 distinct paper queries resident in the plan cache; cold pays the\n\
         generator, assembly, closure and 16 optimize+plan runs, warm pays one\n\
         Standard-validated load; medians over repeated boots; the strict/audit\n\
         columns price the deeper levels of docs/VALIDATION.md on the same file)\n\n{}\n\
         reading: the warm path skips data generation, index/link assembly, statistics\n\
         folding and closure materialization, and arrives with the plan cache already\n\
         seeded — its first queries never touch the optimizer (asserted, and every\n\
         answer is cross-checked against the cold service's).\n",
        t.render()
    );
    (headlines, out)
}

// ---------------------------------------------------------------------------
// E14: open-loop frontend — singleflight dedup, admission, load shedding.
// ---------------------------------------------------------------------------

/// E14: offered concurrency in the thousands through the `sqo-frontend`
/// worker pool.
///
/// **Part A — cold-burst dedup.** A Zipf-skewed open-loop burst of
/// thousands of logical clients hits a *cold* service at once: every
/// distinct query's first arrivals all miss together, and singleflight
/// must collapse each stampede onto one optimization. Reported as
/// `dedup_hit_rate` = 1 − optimizations/completed (> 0.9 means the burst
/// shared optimizations instead of paying one each).
///
/// **Part B — overload shedding.** The same traffic shape against a small
/// admission queue, offered well beyond it: the frontend must shed the
/// marginal arrivals with a typed `Overload` and keep the accepted tail
/// bounded (work-in-queue is capped by the depth) instead of collapsing
/// every client together.
///
/// Every accepted response in both parts is cross-checked against the
/// unoptimized original query on the service's own snapshot
/// (`unoptimized_reference`), at the epochs the response recorded.
pub fn frontend_open_loop(seed: u64, smoke: bool) -> (Vec<Headline>, String) {
    use sqo_frontend::{Frontend, FrontendConfig, Overload};
    use sqo_workload::{open_loop_schedule, OpenLoopConfig};

    let workers = std::thread::available_parallelism().map_or(2, |n| n.get()).min(8);
    let distinct = 16usize;
    let mut headlines = Vec::new();

    // Shared cross-check harness: replay each accepted response against
    // the unoptimized reference at the epochs it recorded (no writes in
    // E14, so one reference answer per distinct query covers every
    // response).
    let cross_check = |service: &Arc<QueryService>,
                       schedule: &sqo_workload::OpenLoopSchedule,
                       accepted: &[(usize, sqo_service::ServiceResponse)]| {
        let db = service.db();
        let wanted: Vec<_> =
            schedule.distinct.iter().map(|q| unoptimized_reference(&db, q)).collect();
        for (index, response) in accepted {
            assert_eq!(response.epoch, service.epoch(), "responses recorded the serving epoch");
            assert_eq!(response.data_epoch, db.data_version(), "and the serving data epoch");
            assert!(
                response.results.same_multiset(&wanted[*index]),
                "accepted answer must match the unoptimized reference at its epochs"
            );
        }
    };

    // -- Part A: cold burst, queue sized to admit everything. --
    // Same sweep points in smoke and full mode: the committed baseline is
    // a full run and benchdiff treats baseline metrics absent from the
    // smoke run as removals, so the metric name sets must coincide (the
    // warm-start experiment documents the same constraint).
    let offered_list: &[usize] = &[1024, 4096];
    let mut ta = TextTable::new(vec![
        "offered",
        "goodput qps",
        "p50 µs",
        "p99 µs",
        "optimizations",
        "dedup hit rate",
        "sf leaders",
        "sf followers",
    ]);
    for &offered in offered_list {
        let s = paper_scenario(DbSize::Db1, seed);
        let pool = s.queries.clone();
        let service = Arc::new(QueryService::new(Arc::new(s.store), Arc::new(s.db)));
        let frontend = Frontend::new(
            Arc::clone(&service),
            FrontendConfig { workers, queue_depth: offered, p99_bound_us: None },
        );
        let schedule = open_loop_schedule(
            &pool,
            &OpenLoopConfig {
                seed,
                arrivals: offered,
                distinct,
                zipf_s: 1.2,
                ..OpenLoopConfig::default()
            },
        );
        let t0 = Instant::now();
        let handles: Vec<_> = schedule
            .arrivals
            .iter()
            .map(|a| (a.distinct_index, frontend.submit(&a.query).expect("queue admits the burst")))
            .collect();
        let mut latencies: Vec<Duration> = Vec::with_capacity(handles.len());
        let mut accepted = Vec::with_capacity(handles.len());
        for (index, handle) in handles {
            let done = handle.wait();
            latencies.push(Duration::from_micros(done.latency_us));
            accepted.push((index, done.result.expect("burst requests answer")));
        }
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        frontend.shutdown();
        cross_check(&service, &schedule, &accepted);

        let svc = service.stats();
        let completed = accepted.len() as f64;
        let goodput = completed / wall;
        let dedup = 1.0 - svc.optimizations as f64 / completed;
        latencies.sort_unstable();
        let p50 = percentile_us(&latencies, 0.50);
        let p99 = percentile_us(&latencies, 0.99);
        ta.row(vec![
            offered.to_string(),
            format!("{goodput:.0}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            svc.optimizations.to_string(),
            format!("{dedup:.4}"),
            svc.singleflight_leaders.to_string(),
            svc.singleflight_followers.to_string(),
        ]);
        headlines.push(Headline::new("e14", format!("dedup_hit_rate_o{offered}"), dedup));
        headlines.push(Headline::new("e14", format!("goodput_qps_o{offered}"), goodput));
        headlines.push(Headline::new("e14", format!("burst_p50_us_o{offered}"), p50));
        headlines.push(Headline::new("e14", format!("burst_p99_us_o{offered}"), p99));
        assert!(
            dedup > 0.9,
            "a {offered}-client cold burst over {distinct} distinct queries must share \
             optimizations (got {dedup:.4} from {} optimizations)",
            svc.optimizations
        );
    }

    // -- Part B: offered load far beyond a small admission queue. --
    let depth = if smoke { 64 } else { 256 };
    let offered = depth * 4;
    let s = paper_scenario(DbSize::Db1, seed);
    let pool = s.queries.clone();
    let service = Arc::new(QueryService::new(Arc::new(s.store), Arc::new(s.db)));
    let schedule = open_loop_schedule(
        &pool,
        &OpenLoopConfig {
            seed: seed ^ 0x5eed,
            arrivals: offered,
            distinct,
            zipf_s: 1.2,
            ..OpenLoopConfig::default()
        },
    );
    // Warm the distinct set first: Part B measures steady-state admission
    // behavior, not cold-miss cost.
    for q in &schedule.distinct {
        service.run(q).expect("warmup answers");
    }
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers, queue_depth: depth, p99_bound_us: None },
    );
    let t0 = Instant::now();
    let mut shed = 0u64;
    let mut handles = Vec::new();
    for a in &schedule.arrivals {
        match frontend.submit(&a.query) {
            Ok(handle) => handles.push((a.distinct_index, handle)),
            Err(Overload::QueueFull) => shed += 1,
            Err(other) => panic!("unexpected shed reason {other:?}"),
        }
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(handles.len());
    let mut accepted = Vec::with_capacity(handles.len());
    for (index, handle) in handles {
        let done = handle.wait();
        latencies.push(Duration::from_micros(done.latency_us));
        accepted.push((index, done.result.expect("admitted requests answer")));
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let stats = frontend.shutdown();
    cross_check(&service, &schedule, &accepted);
    assert_eq!(stats.completed, stats.admitted, "admitted requests are never abandoned");

    let shed_rate = shed as f64 / offered as f64;
    let goodput = accepted.len() as f64 / wall;
    latencies.sort_unstable();
    let p50 = percentile_us(&latencies, 0.50);
    let p99 = percentile_us(&latencies, 0.99);
    let mut tb = TextTable::new(vec![
        "offered",
        "queue depth",
        "accepted",
        "shed",
        "shed rate",
        "goodput qps",
        "accepted p50 µs",
        "accepted p99 µs",
    ]);
    tb.row(vec![
        offered.to_string(),
        depth.to_string(),
        accepted.len().to_string(),
        shed.to_string(),
        format!("{shed_rate:.3}"),
        format!("{goodput:.0}"),
        format!("{p50:.1}"),
        format!("{p99:.1}"),
    ]);
    headlines.push(Headline::new("e14", "overload_shed_rate", shed_rate));
    headlines.push(Headline::new("e14", "overload_goodput_qps", goodput));
    headlines.push(Headline::new("e14", "overload_p99_us", p99));

    let out = format!(
        "E14: Open-loop frontend — singleflight dedup, admission control, load shedding\n\
         ({workers} workers; Zipf(s=1.2) traffic over {distinct} distinct queries,\n\
         shuffled spellings; every accepted response cross-checked against the unoptimized\n\
         original at its recorded epochs)\n\n\
         Part A — cold burst, everything admitted (dedup hit rate = 1 − optimizations/completed;\n\
         how the dedup splits between singleflight flights and post-publication cache hits\n\
         is scheduling-dependent, the shared-optimization count is not):\n{}\n\
         Part B — offered load {offered} against an admission queue of {depth} (reject-newest;\n\
         accepted work is bounded by the queue depth, so the accepted tail stays bounded\n\
         while the marginal arrivals shed with a typed Overload):\n{}",
        ta.render(),
        tb.render()
    );
    (headlines, out)
}

/// Headline numbers of E11.
pub fn e11_headlines(rows: &[E11Row]) -> Vec<Headline> {
    let mut out = Vec::new();
    for r in rows {
        out.push(Headline::new("e11", format!("qps_w{}_t{}", r.write_pct, r.threads), r.qps));
        out.push(Headline::new("e11", format!("p99_us_w{}_t{}", r.write_pct, r.threads), r.p99_us));
    }
    // Hit rate is machine-independent only at one thread (no stampedes):
    // emit the deterministic cell per ratio.
    for r in rows.iter().filter(|r| r.threads == 1) {
        out.push(Headline::new("e11", format!("plan_hit_rate_w{}", r.write_pct), r.plan_hit_rate));
    }
    out
}

/// Headline numbers of E10.
pub fn e10_headlines(row: &E10Row) -> Vec<Headline> {
    vec![
        Headline::new("e10", "optimize_plan_p50_us", row.optimize_plan_p50_us),
        Headline::new("e10", "optimize_plan_p99_us", row.optimize_plan_p99_us),
        Headline::new("e10", "optimize_plan_mean_us", row.optimize_plan_mean_us),
    ]
}

/// Headline numbers of E9.
pub fn e9_headlines(rows: &[E9Row]) -> Vec<Headline> {
    let mut out = Vec::new();
    for r in rows {
        out.push(Headline::new("e9", format!("cold_qps_t{}", r.threads), r.cold_qps));
        out.push(Headline::new("e9", format!("warm_qps_t{}", r.threads), r.warm_qps));
        out.push(Headline::new("e9", format!("speedup_t{}", r.threads), r.speedup));
    }
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    out.push(Headline::new("e9", "min_speedup", min_speedup));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn e9_smoke_shows_substantial_warm_speedup() {
        let (rows, rendered) = service_throughput(42, true);
        assert_eq!(rows.len(), 4, "{rendered}");
        assert_eq!(rows.iter().map(|r| r.threads).collect::<Vec<_>>(), vec![1, 2, 4, 8]);
        for r in &rows {
            // Deterministic structural claims only: the warm batch is fully
            // cache-served (warm-up covers every distinct query). The
            // *magnitude* of the speedup is wall-clock and belongs to the
            // release-mode report run, not a debug-mode unit test on a
            // possibly loaded CI machine — here we only require the warm
            // path not to lose.
            assert!(r.warm_hit_rate > 0.99, "warm batch must be fully cache-served: {r:?}");
            assert!(
                r.speedup > 1.0,
                "the cached path should never be slower than re-optimizing: {r:?}\n{rendered}"
            );
        }
        let headlines = e9_headlines(&rows);
        assert!(headlines.iter().any(|h| h.metric == "min_speedup"));
    }

    #[test]
    fn e12_smoke_measures_both_write_paths() {
        let (headlines, rendered) = write_path_scaling(42, true);
        for metric in ["inc_us_b1", "full_us_b64", "inc_us_c5", "inc_us_db1", "speedup_db4"] {
            assert!(
                headlines.iter().any(|h| h.experiment == "e12" && h.metric == metric),
                "missing {metric}\n{rendered}"
            );
        }
        // Structural claim only (magnitudes belong to the release report
        // run): on the largest instance a one-class batch must be cheaper
        // to apply incrementally than by rebuilding the whole database.
        let speedup = headlines.iter().find(|h| h.metric == "speedup_db4").unwrap().value;
        assert!(speedup > 1.0, "incremental write path lost to the full rebuild\n{rendered}");
    }

    #[test]
    fn e11_smoke_serves_correctly_under_writes() {
        // The driver itself cross-checks every cached answer against the
        // unoptimized original after every write; this test additionally pins
        // the structural claims the acceptance criteria name.
        let (rows, rendered) = mutable_serving(42, true);
        assert_eq!(rows.len(), 12, "3 write ratios × 4 thread counts\n{rendered}");
        for r in &rows {
            assert!(
                r.plan_hit_rate > 0.0,
                "plans must survive data writes (hit rate > 0): {r:?}\n{rendered}"
            );
            assert!(r.writes > 0, "every ratio commits writes: {r:?}");
            assert_eq!(r.data_epoch, r.writes, "one data epoch per committed batch");
        }
        let headlines = e11_headlines(&rows);
        assert_eq!(headlines.len(), 12 * 2 + 3);
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
