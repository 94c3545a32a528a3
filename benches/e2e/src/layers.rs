//! The traced run of one workload: a fixed slice of its stream through the
//! service and the shadow pipeline side by side, boots and writes included,
//! reduced to the per-layer metrics.
//!
//! The slice is sized by count, not by time, so that every count metric is
//! a function of the seed alone.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_exec::{execute_batch_with, BatchExecScratch, ProbeBinding, ResultSet};
use sqo_frontend::{Frontend, FrontendConfig};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceError, ServiceResponse};
use sqo_snapshot::{SnapshotFile, ValidationLevel};
use sqo_storage::decode_database_from;
use sqo_workload::{MixedApplier, MixedOp};

use crate::alloc::counted;
use crate::fixture::warm_boot;
use crate::metrics::Values;
use crate::stats::percentile_us;
use crate::trace::{Shadow, Stage, Tracer};
use crate::workloads::{Prepared, Stream, Workload};

const BOOT_REPS: usize = 3;
/// Plans the batch-executor comparison runs at most.
const BATCH_PLANS: usize = 64;
/// Length of each informational burst.
const BURST: Duration = Duration::from_millis(300);
const FRONTEND_WINDOW: usize = 64;

/// `(warm-up ops, traced ops)`: a pass of `cold_paper`, a pass of
/// `cold_scaled` after a quarter of one, a pass of `warm_zipf`, 75 blocks
/// of `mixed_rw`.
fn slice_of(workload: Workload, stream: &Stream) -> (usize, usize) {
    match workload {
        Workload::ColdPaper | Workload::WarmZipf => (stream.unit_len(), stream.unit_len()),
        Workload::ColdScaled => (64, 256),
        Workload::MixedRw => (10 * stream.unit_len(), 75 * stream.unit_len()),
    }
}

#[derive(Debug)]
pub struct TracedRun {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub values: Values,
    pub trace_path: PathBuf,
}

pub fn run_traced(mut prepared: Prepared) -> TracedRun {
    let workload = prepared.workload;
    let mut tracer = Tracer::new();
    let mut values = Values::default();

    let service = Arc::new(traced_boots(&prepared, &mut tracer, &mut values));

    let (warm, traced) = slice_of(workload, &prepared.stream);
    let units = (warm + traced).div_ceil(prepared.stream.unit_len());
    let (ops, _) = prepared.stream.next_units(units);
    let mut ops = ops.iter().cycle();

    let mut side_by_side = SideBySide {
        service: &service,
        shadow: Shadow::new(workload.service_config()),
        applier: MixedApplier::new(&service.db()),
        verified: HashMap::new(),
        keep_verified: !workload.is_cold(),
        failed: 0,
        allocs: 0,
        alloc_bytes: 0,
        write_alloc_bytes: 0,
    };
    let mut warmup_tracer = Tracer::new();
    for (request, op) in ops.by_ref().take(warm).enumerate() {
        side_by_side.apply(&mut warmup_tracer, op, request as u32);
    }
    drop(warmup_tracer);
    side_by_side.shadow.counts = Default::default();
    (side_by_side.allocs, side_by_side.alloc_bytes, side_by_side.write_alloc_bytes) = (0, 0, 0);
    let before = service.stats();
    let (mut reads, mut writes) = (0u64, 0u64);
    for (request, op) in ops.take(traced).enumerate() {
        match op {
            MixedOp::Read { .. } => reads += 1,
            MixedOp::Write(_) => writes += 1,
        }
        side_by_side.apply(&mut tracer, op, request as u32);
    }
    let after = service.stats();
    let SideBySide { shadow, failed, allocs, alloc_bytes, write_alloc_bytes, .. } = side_by_side;

    let per_read = |total: f64| total / reads as f64;
    for (stage, name) in [
        (Stage::Canonicalize, "query.canonicalize_ns_per_op"),
        (Stage::Fingerprint, "query.fingerprint_ns_per_op"),
        (Stage::CacheGet, "service.cache_get_ns_per_op"),
        (Stage::Validate, "query.validate_ns_per_op"),
        (Stage::Retrieve, "constraints.retrieve_ns_per_op"),
        (Stage::TableBuild, "core.table_build_ns_per_op"),
        (Stage::Transform, "core.transform_ns_per_op"),
        (Stage::Formulate, "core.formulate_ns_per_op"),
        (Stage::Plan, "exec.plan_ns_per_op"),
        (Stage::CacheInsert, "service.cache_insert_ns_per_op"),
        (Stage::MemoGet, "service.memo_get_ns_per_op"),
        (Stage::Execute, "exec.execute_ns_per_op"),
        (Stage::MemoPublish, "service.memo_publish_ns_per_op"),
        (Stage::ServiceRun, "service.run_ns_per_op"),
    ] {
        values.set(name, per_read(tracer.total_ns(stage)));
    }
    let counts = shadow.counts;
    let per_optimization = |n: u64| n as f64 / counts.optimizations.max(1) as f64;
    values.set("constraints.relevant_per_query", per_optimization(counts.relevant_constraints));
    values.set("core.transformations_per_query", per_optimization(counts.transformations));
    values.set("core.provably_empty_share", per_optimization(counts.provably_empty));
    values.set("exec.work_units_per_op", per_read(counts.work_units));
    values.set("exec.rows_out_per_op", per_read(counts.rows_out as f64));

    let lookups = after.cache.lookups - before.cache.lookups;
    let optimizations = after.optimizations - before.optimizations;
    let executions = after.executions - before.executions;
    values.set("service.hit_share", (after.cache.hits - before.cache.hits) as f64 / lookups as f64);
    values.set("service.optimizations_per_op", per_read(optimizations as f64));
    values.set("service.executions_per_op", per_read(executions as f64));
    values.set("service.allocs_per_op", per_read(allocs as f64));
    values.set("service.alloc_bytes_per_op", per_read(alloc_bytes as f64));
    let mut run_ns = tracer.service_run_ns();
    if run_ns.len() >= 1000 {
        values.set("service.run_p99_us", percentile_us(&mut run_ns, 99.0));
    }

    if writes > 0 {
        let per_write = |total: f64| total / writes as f64;
        values.set(
            "storage.with_writes_us_per_write",
            per_write(tracer.total_ns(Stage::WithWrites)) / 1e3,
        );
        values.set("storage.alloc_bytes_per_write", per_write(write_alloc_bytes as f64));
        values.set(
            "service.write_us_per_write",
            per_write(tracer.total_ns(Stage::ServiceWrite)) / 1e3,
        );
        values.set("service.write_p50_us", tracer.median_ms(Stage::ServiceWrite) * 1e3);
    }

    let run_total = tracer.total_ns(Stage::ServiceRun);
    let stage_total: f64 = Stage::READ_PIPELINE.iter().map(|&s| tracer.total_ns(s)).sum();
    values.set("trace.coverage", stage_total / run_total);
    values.set("trace.overhead_share", (tracer.total_ns(Stage::Request) - run_total) / run_total);
    values.set("trace.clock_ns", tracer.clock_ns as f64);

    let mut violations = Vec::new();
    if (counts.optimizations, counts.executions) != (optimizations, executions) {
        violations.push(format!(
            "shadow ran {} optimizations and {} executions, the service {optimizations} and {executions}",
            counts.optimizations, counts.executions
        ));
    }

    batch_executor(&service, &shadow, &mut values);
    if workload == Workload::WarmZipf {
        let Stream::Cyclic(pass) = &prepared.stream else { unreachable!("warm_zipf is cyclic") };
        let queries: Vec<&Query> = pass
            .iter()
            .map(|op| match op {
                MixedOp::Read { query, .. } => query,
                MixedOp::Write(_) => unreachable!("warm_zipf has no writes"),
            })
            .collect();
        informational(&service, &queries, &mut values);
    }

    let trace_path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace_{}.json", workload.name()));
    tracer.write_json(&trace_path).expect("the trace file is writable");
    TracedRun { attempted: reads + writes, failed, violations, values, trace_path }
}

/// Boots the workload's way `BOOT_REPS` times, one span per step, and
/// returns the last service.
fn traced_boots(prepared: &Prepared, tracer: &mut Tracer, values: &mut Values) -> QueryService {
    let mut service = None;
    for _ in 0..BOOT_REPS {
        drop(service.take());
        service = Some(match &prepared.snapshot {
            None => {
                let (population, constraints) = prepared.fixture.boot_inputs();
                let db = tracer.span(Stage::StorageLoad, None, 0, || {
                    prepared.fixture.load_database(population)
                });
                let store = tracer
                    .span(Stage::StoreBuild, None, 0, || prepared.fixture.build_store(constraints));
                QueryService::with_config(
                    Arc::new(store),
                    Arc::new(db),
                    prepared.workload.service_config(),
                )
            }
            Some(bytes) => {
                let file = tracer
                    .span(Stage::SnapshotParse, None, 0, || SnapshotFile::parse(bytes))
                    .expect("fixture snapshot parses");
                let db = tracer.span(Stage::StorageDecode, None, 0, || {
                    decode_database_from(&file, ValidationLevel::Standard)
                });
                drop(db.expect("fixture snapshot decodes"));
                let service = tracer.span(Stage::SnapshotLoad, None, 0, || warm_boot(bytes));
                let encoded =
                    tracer.span(Stage::SnapshotEncode, None, 0, || service.snapshot_bytes());
                assert_eq!(
                    encoded.len(),
                    bytes.len(),
                    "a warm-started service re-encodes its snapshot"
                );
                service
            }
        });
    }
    if let Some(bytes) = &prepared.snapshot {
        values.set("snapshot.bytes", bytes.len() as f64);
    }
    for (stage, name) in [
        (Stage::StorageLoad, "storage.load_ms"),
        (Stage::StoreBuild, "constraints.store_build_ms"),
        (Stage::SnapshotLoad, "snapshot.load_ms"),
        (Stage::SnapshotParse, "snapshot.parse_ms"),
        (Stage::StorageDecode, "storage.decode_ms"),
        (Stage::SnapshotEncode, "snapshot.encode_ms"),
    ] {
        values.set(name, tracer.median_ms(stage));
    }
    service.expect("BOOT_REPS > 0")
}

/// Applies each op to the service and to the shadow and compares.
struct SideBySide<'s> {
    service: &'s QueryService,
    shadow: Shadow,
    applier: MixedApplier,
    /// Per distinct query, the last pair of answers compared equal: a
    /// memoized hit returns the same two `Arc`s again and is not
    /// re-compared row by row.
    verified: HashMap<usize, (Arc<ResultSet>, Arc<ResultSet>)>,
    /// Cold streams never repeat an answer, and theirs are large.
    keep_verified: bool,
    failed: u64,
    allocs: u64,
    alloc_bytes: u64,
    write_alloc_bytes: u64,
}

impl SideBySide<'_> {
    /// `QueryService::run` as one span, its allocations counted.
    fn run_service(
        &mut self,
        tracer: &mut Tracer,
        query: &Query,
        request: u32,
    ) -> Result<ServiceResponse, ServiceError> {
        let (response, allocs, bytes) =
            tracer.span(Stage::ServiceRun, None, request, || counted(|| self.service.run(query)));
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        response
    }

    fn apply(&mut self, tracer: &mut Tracer, op: &MixedOp, request: u32) {
        match op {
            MixedOp::Read { index, query } => {
                // Whoever runs second finds the query's data in the CPU
                // caches, so the two take turns going first.
                let service_first = request % 2 == 0;
                let mut response = service_first.then(|| self.run_service(tracer, query, request));
                let shadowed = self.shadow.run(tracer, self.service, query, request);
                let response =
                    response.take().unwrap_or_else(|| self.run_service(tracer, query, request));
                let (Ok(response), Ok(shadowed)) = (response, shadowed) else {
                    self.failed += 1;
                    return;
                };
                let known = self.verified.get(index).is_some_and(|(a, b)| {
                    Arc::ptr_eq(a, &response.results) && Arc::ptr_eq(b, &shadowed)
                });
                if !known {
                    if *response.results != *shadowed {
                        self.failed += 1;
                    } else if self.keep_verified {
                        self.verified.insert(*index, (response.results, shadowed));
                    }
                }
            }
            MixedOp::Write(kind) => {
                let db = self.service.db();
                let (class, victim, batch) = self.applier.resolve(&db, kind);
                let (shadowed, _, bytes) = tracer.span(Stage::WithWrites, None, request, || {
                    counted(|| db.with_writes(&batch, None))
                });
                self.write_alloc_bytes += bytes;
                let shadowed =
                    shadowed.map(|(next, _)| (next.data_version(), next.cardinality(class)));
                // The service must hold the only reference to its snapshot,
                // as it does in the timed run: freeing the shards a write
                // replaces is part of `QueryService::write`.
                drop(db);
                let outcome =
                    tracer.span(Stage::ServiceWrite, None, request, || self.service.write(&batch));
                let (Ok(shadowed), Ok(outcome)) = (shadowed, outcome) else {
                    self.failed += 1;
                    return;
                };
                if shadowed != (outcome.epoch, outcome.snapshot.cardinality(class)) {
                    self.failed += 1;
                }
                self.applier.confirm(class, victim, &outcome.receipt);
            }
        }
    }
}

/// `execute_batch_with` at width 1 and width 8 over the plans the slice
/// cached, on the current snapshot: what deciding between the two
/// executors needs, next to `exec.execute_ns_per_op`.
fn batch_executor(service: &QueryService, shadow: &Shadow, values: &mut Values) {
    let db = service.db();
    let plans: Vec<_> = shadow
        .cache
        .entries()
        .into_iter()
        .filter_map(|(_, _, e)| e.plan.clone())
        .take(BATCH_PLANS)
        .collect();
    if plans.is_empty() {
        return;
    }
    let mut scratch = BatchExecScratch::new();
    let mut per_probe = |width: usize| {
        let probes = vec![ProbeBinding::AsPlanned; width];
        let start = Instant::now();
        for plan in &plans {
            let out =
                execute_batch_with(&db, plan, &probes, &mut scratch).expect("cached plans execute");
            drop(std::hint::black_box(out));
        }
        start.elapsed().as_nanos() as f64 / (plans.len() * width) as f64
    };
    values.set("exec.batch_w1_ns_per_op", per_probe(1));
    values.set("exec.batch_w8_ns_per_probe", per_probe(8));
}

/// Warm hits from two threads and through the reactor frontend. Timed
/// bursts of more than one thread do not repeat within a tenth on a shared
/// 2-core box, which is why none of these has an end-to-end counterpart.
fn informational(service: &Arc<QueryService>, queries: &[&Query], values: &mut Values) {
    let burst = |offset: usize| {
        let start = Instant::now();
        let mut done = 0u64;
        for query in queries.iter().cycle().skip(offset) {
            service.run(query).expect("warm request answers");
            done += 1;
            if done % 256 == 0 && start.elapsed() >= BURST {
                break;
            }
        }
        done as f64 / start.elapsed().as_secs_f64()
    };
    let one_thread = burst(0);
    let two_threads: f64 = std::thread::scope(|scope| {
        let handles = [0, queries.len() / 2].map(|offset| scope.spawn(move || burst(offset)));
        handles.into_iter().map(|h| h.join().expect("burst thread finishes")).sum()
    });
    values.set("service.scaling_2t", two_threads / one_thread);

    let frontend = Frontend::new(
        Arc::clone(service),
        FrontendConfig { workers: 1, queue_depth: 1024, p99_bound_us: None },
    );
    let mut roundtrip_ns: Vec<u32> = queries
        .iter()
        .take(2000)
        .map(|query| {
            let t0 = Instant::now();
            let done = frontend.submit(query).expect("window 1 is admitted").wait();
            done.result.expect("warm request answers");
            t0.elapsed().as_nanos() as u32
        })
        .collect();
    values.set("frontend.roundtrip_p50_us", percentile_us(&mut roundtrip_ns, 50.0));

    let start = Instant::now();
    let (mut submitted, mut submit_ns) = (0u64, 0u128);
    let mut handles = Vec::with_capacity(FRONTEND_WINDOW);
    for window in queries.chunks(FRONTEND_WINDOW).cycle() {
        for query in window {
            let t0 = Instant::now();
            let handle = frontend.submit(query);
            submit_ns += t0.elapsed().as_nanos();
            handles.push(handle.expect("window 64 is admitted"));
        }
        submitted += window.len() as u64;
        for handle in handles.drain(..) {
            handle.wait().result.expect("warm request answers");
        }
        if start.elapsed() >= BURST {
            break;
        }
    }
    values.set("frontend.pipelined_ops_s", submitted as f64 / start.elapsed().as_secs_f64());
    values.set("frontend.submit_ns_per_op", submit_ns as f64 / submitted as f64);
    frontend.shutdown();
}
