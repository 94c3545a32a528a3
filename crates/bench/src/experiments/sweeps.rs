//! The sweeps only this harness runs: E11 (mixed read/write serving across
//! write ratios and thread counts) and E14 (the open-loop frontend). Both
//! drive the real multi-threaded service with every cross-check assertion
//! on. Their timings are printed and written to `--json`, never compared:
//! single-client timing claims go through `benches/e2e` (`BENCHMARK.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_exec::{execute, plan_query, CostModel, ResultSet};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_storage::Database;
use sqo_workload::{paper_scenario, DbSize};

use crate::fmt::TextTable;
use crate::json::Headline;

/// Hardware threads of this machine — what E11 caps its thread list at and
/// E14 sizes its worker pool from. More threads than cores measures the
/// scheduler, not the service.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// E11's thread counts: those of `[1, 2, 4, 8]` this machine has cores for.
pub(super) fn thread_counts() -> Vec<usize> {
    [1, 2, 4, 8].into_iter().filter(|&t| t <= nproc()).collect()
}

/// The harness's closed-loop pool: `threads` scoped workers claim the job
/// indexes `0..jobs` one at a time. Returns every answer, grouped by worker.
fn closed_loop<R: Send>(jobs: usize, threads: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::with_capacity(jobs / threads + 1);
                    loop {
                        // ordering: work-stealing ticket; each index is claimed
                        // exactly once by RMW atomicity, no payload to publish.
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= jobs {
                            break out;
                        }
                        out.push(job(i));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker")).collect()
    })
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

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_nanos() as f64 / 1000.0
}

// ---------------------------------------------------------------------------
// E11 — mutable-data serving: throughput/p99 under mixed read/write traffic.
// ---------------------------------------------------------------------------

/// One `(write ratio, thread count)` cell of the E11 experiment.
#[derive(Debug, Clone, Copy)]
pub struct E11Row {
    /// Write percentage of the request stream (0, 1, 5 or 20).
    pub write_pct: usize,
    pub threads: usize,
    pub requests: usize,
    /// Requests/s over the whole mixed stream (reads + writes).
    pub qps: f64,
    /// p99 per-request latency (reads and writes alike), µs.
    pub p99_us: f64,
    /// Plan-cache hit rate over the measured batch — stays high under pure
    /// data writes because plans are never invalidated by them, and is
    /// exactly 1.0 at 0 % writes (the warm-up covers every distinct query).
    pub plan_hit_rate: f64,
    /// Plan executions per read of the measured batch: the share of reads
    /// whose result memo a write had expired. `0` at 0 % writes; below 1
    /// otherwise, and lower the fewer memos a write expires (only those of
    /// plans that bind a class it changed). Exact at one thread; with more
    /// it moves with the schedule (where a write lands among the reads, and
    /// readers racing one expired memo each execute).
    pub executions_per_read: f64,
    /// Committed write batches.
    pub writes: u64,
    /// Final data epoch (== writes: one epoch per batch).
    pub data_epoch: u64,
}

/// E11: warm-cache throughput and tail latency of [`QueryService`] on a
/// Zipf-skewed mixed read/write stream at 0/1/5/20% writes, at the thread
/// counts of `[1, 2, 4, 8]` that do not exceed [`nproc`]. The 0 % row is
/// the pure warm-hit sweep — the baseline thread scaling is read against.
///
/// Writes are constraint- and integrity-preserving duplicate inserts and
/// LIFO deletes ([`sqo_workload::mixed_workload`]), applied through the
/// service's versioned write path, which checks every batch's integrity
/// declarations. Before the
/// timed cells, every write ratio runs one **cross-check pass**: a
/// single-threaded replay where, after every write, each cached answer is
/// compared request-by-request against the unoptimized original query
/// executed on the same evolving database (`unoptimized_reference`) — and
/// the plan cache must keep hitting (plans survive data writes; a memoized
/// result survives those that cannot reach it: `sqo-service`'s `cache.rs`,
/// *Irrelevant writes*).
///
/// Every pass and cell runs on a database generated afresh: services forked
/// from one snapshot share its per-class write epochs and write log, and
/// an earlier cell's writes would expire a later cell's memos
/// (`sqo_storage::WriteEpochs`).
pub fn mutable_serving(seed: u64, smoke: bool) -> (Vec<E11Row>, String) {
    use std::sync::Mutex;

    use sqo_storage::VersionedDatabase;
    use sqo_workload::{mixed_workload, MixedApplier, MixedOp, MixedWorkloadConfig};

    let scenario = paper_scenario(DbSize::Db1, seed);
    let store = Arc::new(scenario.store);
    let fresh_handle = || {
        let db = Arc::new(paper_scenario(DbSize::Db1, seed).db);
        Arc::new(VersionedDatabase::new(db))
    };
    let requests = if smoke { 96 } else { 1024 };
    let mut rows = Vec::new();
    for write_pct in [0usize, 1, 5, 20] {
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
            let warm = QueryService::with_versioned_db(
                Arc::clone(&store),
                fresh_handle(),
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
        for threads in thread_counts() {
            let service = QueryService::with_versioned_db(
                Arc::clone(&store),
                fresh_handle(),
                ServiceConfig::default(),
            );
            for q in &workload.distinct {
                service.run(q).expect("warm-up");
            }
            let warm = service.stats();
            let before = warm.cache;
            let applier = Mutex::new(MixedApplier::new(&service.db()));
            let t0 = Instant::now();
            let mut latencies: Vec<Duration> = closed_loop(workload.ops.len(), threads, |i| {
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
            });
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
                executions_per_read: (after.executions - warm.executions) as f64
                    / workload.reads.max(1) as f64,
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
        "executions/read",
        "data epochs",
    ]);
    for r in &rows {
        t.row(vec![
            r.write_pct.to_string(),
            r.threads.to_string(),
            format!("{:.0}", r.qps),
            format!("{:.1}", r.p99_us),
            format!("{:.1}%", r.plan_hit_rate * 100.0),
            format!("{:.3}", r.executions_per_read),
            r.data_epoch.to_string(),
        ]);
    }
    let min_hit = rows.iter().map(|r| r.plan_hit_rate).fold(f64::INFINITY, f64::min);
    let rendered = format!(
        "E11: Mutable-data serving ({requests} Zipf-skewed requests over 16 distinct \
         queries;\nwrites = integrity-preserving duplicate inserts/deletes; every ratio \
         cross-checked\nrequest-by-request against the unoptimized original after every \
         write)\nthread counts of 1/2/4/8 capped at this machine's {} hardware \
         thread(s)\n{}\nminimum plan-cache hit rate across cells: {:.1}% — plans survive \
         data writes,\na memoized result is recomputed after a write that reaches a class \
         its plan binds (executions/read)\n",
        nproc(),
        t.render(),
        min_hit * 100.0
    );
    (rows, rendered)
}

/// Headline numbers of E11.
pub fn e11_headlines(rows: &[E11Row]) -> Vec<Headline> {
    let mut out = Vec::new();
    for r in rows {
        out.push(Headline::new("e11", format!("qps_w{}_t{}", r.write_pct, r.threads), r.qps));
        out.push(Headline::new("e11", format!("p99_us_w{}_t{}", r.write_pct, r.threads), r.p99_us));
        out.push(Headline::new(
            "e11",
            format!("executions_per_read_w{}_t{}", r.write_pct, r.threads),
            r.executions_per_read,
        ));
    }
    // Hit rate is machine-independent only at one thread (no stampedes):
    // emit the deterministic cell per ratio.
    for r in rows.iter().filter(|r| r.threads == 1) {
        out.push(Headline::new("e11", format!("plan_hit_rate_w{}", r.write_pct), r.plan_hit_rate));
    }
    out
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

    let workers = nproc().min(8);
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
    // Same sweep points in smoke and full mode, so every uploaded headline
    // document carries the same metric names.
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
