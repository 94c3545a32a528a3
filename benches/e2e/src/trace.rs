//! The traced run: an outside-in layer trace.
//!
//! The program has no spans of its own yet, so the trace is recorded from
//! here, around calls into each crate's public functions. A shadow pipeline
//! replays every request stage by stage, in `QueryService`'s order and
//! against the service's own store and snapshot, next to the real
//! `QueryService::run` call; each shadow answer must equal the service's.
//! Spans are held in memory and written out when the run ends.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use sqo_constraints::{ConstraintId, RetrievalScratch};
use sqo_core::{
    formulate_with, run_transformations_with, FormulationScratch, OptimizerConfig, TableBuffers,
    TransformScratch, TransformationTable,
};
use sqo_exec::{
    execute_with, plan_query_shared, CostBasedOracle, CostModel, ExecScratch, ResultSet,
};
use sqo_query::Query;
use sqo_service::{CacheEntry, QueryService, ServiceConfig, ServiceError, ShardedCache};

use crate::stats::median;

/// A traced call. The name's prefix is the layer (crate) the time belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One request through the shadow pipeline; parent of its stages.
    Request,
    /// The same request through `QueryService::run`, untraced inside.
    ServiceRun,
    Canonicalize,
    Fingerprint,
    CacheGet,
    Validate,
    Retrieve,
    TableBuild,
    Transform,
    Formulate,
    Plan,
    CacheInsert,
    MemoGet,
    Execute,
    MemoPublish,
    WithWrites,
    ServiceWrite,
    StorageLoad,
    StoreBuild,
    SnapshotEncode,
    SnapshotParse,
    StorageDecode,
    SnapshotLoad,
}

impl Stage {
    /// The stages of one read, in pipeline order: their sum is what
    /// `trace.coverage` compares with `QueryService::run`.
    pub const READ_PIPELINE: [Stage; 13] = [
        Stage::Canonicalize,
        Stage::Fingerprint,
        Stage::CacheGet,
        Stage::Validate,
        Stage::Retrieve,
        Stage::TableBuild,
        Stage::Transform,
        Stage::Formulate,
        Stage::Plan,
        Stage::CacheInsert,
        Stage::MemoGet,
        Stage::Execute,
        Stage::MemoPublish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "shadow.request",
            Stage::ServiceRun => "service.run",
            Stage::Canonicalize => "query.canonicalize",
            Stage::Fingerprint => "query.fingerprint",
            Stage::CacheGet => "service.cache_get",
            Stage::Validate => "query.validate",
            Stage::Retrieve => "constraints.retrieve",
            Stage::TableBuild => "core.table_build",
            Stage::Transform => "core.transform",
            Stage::Formulate => "core.formulate",
            Stage::Plan => "exec.plan",
            Stage::CacheInsert => "service.cache_insert",
            Stage::MemoGet => "service.memo_get",
            Stage::Execute => "exec.execute",
            Stage::MemoPublish => "service.memo_publish",
            Stage::WithWrites => "storage.with_writes",
            Stage::ServiceWrite => "service.write",
            Stage::StorageLoad => "storage.load",
            Stage::StoreBuild => "constraints.store_build",
            Stage::SnapshotEncode => "snapshot.encode",
            Stage::SnapshotParse => "snapshot.parse",
            Stage::StorageDecode => "storage.decode",
            Stage::SnapshotLoad => "snapshot.load",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    stage: Stage,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    parent: u32,
    /// Spans of one request share this id.
    request: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// What an empty span measures: the cost of one clock pair, subtracted
    /// from every span's duration.
    pub clock_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let origin = Instant::now();
        let mut pairs: Vec<f64> = (0..2001)
            .map(|_| {
                let a = origin.elapsed();
                (origin.elapsed() - a).as_nanos() as f64
            })
            .collect();
        pairs.remove(0);
        Self { origin, spans: Vec::new(), clock_ns: median(&pairs) as u64 }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(
        &mut self,
        stage: Stage,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let parent = parent.unwrap_or(NO_PARENT);
        self.spans.push(Span { stage, start_ns, end_ns, parent, request });
        out
    }

    /// Opens a span that will have children; returns its id.
    pub fn open(&mut self, stage: Stage, request: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { stage, start_ns, end_ns: start_ns, parent: NO_PARENT, request });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    fn durations(&self, stage: Stage) -> impl Iterator<Item = u64> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.stage == stage)
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(self.clock_ns))
    }

    /// Σ duration of `stage`'s spans, in nanoseconds.
    pub fn total_ns(&self, stage: Stage) -> f64 {
        self.durations(stage).sum::<u64>() as f64
    }

    /// Median duration of `stage`'s spans, in milliseconds; 0 without any.
    pub fn median_ms(&self, stage: Stage) -> f64 {
        let all: Vec<f64> = self.durations(stage).map(|ns| ns as f64 / 1e6).collect();
        if all.is_empty() {
            0.0
        } else {
            median(&all)
        }
    }

    /// Per-span `ServiceRun` durations in nanoseconds.
    pub fn service_run_ns(&self) -> Vec<u32> {
        self.durations(Stage::ServiceRun).map(|ns| u32::try_from(ns).unwrap_or(u32::MAX)).collect()
    }

    /// Writes `{"clock_ns", "spans": [[name, start_ns, end_ns, parent,
    /// request], ...]}`; `parent` is an index into `spans` or -1.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"clock_ns\": {}, \"spans\": [", self.clock_ns)?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            write!(
                w,
                "{sep}[\"{}\", {}, {}, {parent}, {}]",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Work counted at the shadow's stage boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub optimizations: u64,
    pub relevant_constraints: u64,
    pub transformations: u64,
    pub provably_empty: u64,
    pub executions: u64,
    pub work_units: f64,
    pub rows_out: u64,
}

/// The stage-by-stage replica of `QueryService::run`, with a plan cache and
/// scratch buffers of its own.
#[derive(Debug)]
pub struct Shadow {
    pub cache: ShardedCache,
    model: CostModel,
    config: OptimizerConfig,
    memoize: bool,
    retrieval: RetrievalScratch,
    relevant: Vec<ConstraintId>,
    table: TableBuffers,
    transform: TransformScratch,
    formulation: FormulationScratch,
    exec: ExecScratch,
    pub counts: Counts,
}

impl Shadow {
    /// A replica of a service running with `config`.
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            cache: ShardedCache::new(config.shards, config.cache_capacity),
            model: CostModel::default(),
            config: config.optimizer,
            memoize: config.cache_results,
            retrieval: RetrievalScratch::new(),
            relevant: Vec::new(),
            table: TableBuffers::default(),
            transform: TransformScratch::new(),
            formulation: FormulationScratch::new(),
            exec: ExecScratch::new(),
            counts: Counts::default(),
        }
    }

    /// One request, one span per stage, all children of a `Request` span.
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        service: &QueryService,
        query: &Query,
        request: u32,
    ) -> Result<Arc<ResultSet>, ServiceError> {
        let root = tracer.open(Stage::Request, request);
        let out = self.run_stages(tracer, service, query, root, request);
        tracer.close(root);
        out
    }

    fn run_stages(
        &mut self,
        tracer: &mut Tracer,
        service: &QueryService,
        query: &Query,
        root: u32,
        request: u32,
    ) -> Result<Arc<ResultSet>, ServiceError> {
        let parent = Some(root);
        let canonical = tracer.span(Stage::Canonicalize, parent, request, || query.canonical());
        let store = service.store();
        let version = store.version();
        let fingerprint =
            tracer.span(Stage::Fingerprint, parent, request, || canonical.fingerprint_canonical());
        let hit = tracer.span(Stage::CacheGet, parent, request, || {
            self.cache.get(fingerprint, &canonical, version)
        });
        let entry = match hit {
            Some(entry) => entry,
            None => {
                let catalog = Arc::clone(store.catalog());
                tracer.span(Stage::Validate, parent, request, || canonical.validate(&catalog))?;
                let db = service.db();
                let oracle = CostBasedOracle::with_model(&db, self.model);
                tracer.span(Stage::Retrieve, parent, request, || {
                    store.relevant_into(&canonical, &mut self.retrieval, &mut self.relevant)
                });
                let mut table = tracer.span(Stage::TableBuild, parent, request, || {
                    TransformationTable::build_with(
                        &catalog,
                        &store,
                        &self.relevant,
                        &canonical,
                        self.config.match_policy,
                        &mut self.table,
                    )
                });
                let log = tracer.span(Stage::Transform, parent, request, || {
                    run_transformations_with(&mut table, &self.config, &mut self.transform)
                });
                let formulated = tracer.span(Stage::Formulate, parent, request, || {
                    formulate_with(
                        &catalog,
                        &canonical,
                        &table,
                        &self.config,
                        &oracle,
                        &mut self.formulation,
                    )
                });
                table.recycle(&mut self.table);
                self.counts.optimizations += 1;
                self.counts.relevant_constraints += self.relevant.len() as u64;
                self.counts.transformations += log.applied.len() as u64;
                self.counts.provably_empty += u64::from(formulated.provably_empty);
                let (plan, columns) = if formulated.provably_empty {
                    (None, formulated.query.projections.iter().map(|p| p.attr).collect())
                } else {
                    let plan = tracer.span(Stage::Plan, parent, request, || {
                        plan_query_shared(&db, &formulated.query, &self.model)
                    })?;
                    let columns = plan.projections.iter().map(|p| p.attr).collect();
                    (Some(plan), columns)
                };
                let entry = Arc::new(CacheEntry::new(
                    canonical,
                    formulated.query,
                    plan,
                    formulated.provably_empty,
                    columns,
                ));
                tracer.span(Stage::CacheInsert, parent, request, || {
                    self.cache.insert(fingerprint, version, Arc::clone(&entry))
                });
                entry
            }
        };
        let (db, data_epoch, memo) = tracer.span(Stage::MemoGet, parent, request, || {
            let db = service.db();
            let data_epoch = db.data_version();
            let memo = if self.memoize { entry.memoized_results(data_epoch) } else { None };
            (db, data_epoch, memo)
        });
        if let Some(cached) = memo {
            return Ok(cached);
        }
        let results = match &entry.plan {
            None => Arc::new(ResultSet::new(entry.columns.clone())),
            Some(plan) => {
                let (results, counters) = tracer.span(Stage::Execute, parent, request, || {
                    execute_with(&db, plan, &mut self.exec)
                })?;
                self.counts.executions += 1;
                self.counts.work_units += self.model.measured(&counters);
                self.counts.rows_out += results.len() as u64;
                Arc::new(results)
            }
        };
        if self.memoize {
            tracer.span(Stage::MemoPublish, parent, request, || {
                entry.publish_results(data_epoch, &results)
            });
        }
        Ok(results)
    }
}
