//! The concurrent query service: shared state, prepared queries, and the
//! one request pipeline (`resolve → entry_for → answer`) behind every entry
//! point. The service spawns no thread; the worker pool is `sqo-frontend`'s.

use std::cell::RefCell;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use sqo_constraints::{ConstraintError, ConstraintStore, HornConstraint, StoreVersion};
use sqo_core::{OptimizerConfig, OptimizerScratch, SemanticOptimizer};
use sqo_exec::{
    execute_with, CostBasedOracle, CostModel, ExecError, ExecScratch, PhysicalPlan, ResultSet,
};
use sqo_query::sync::{Counter, Mutex, RwLock, Unlocked, SERVICE_STORE, SERVICE_WRITER};
use sqo_query::{Query, QueryError, QueryFingerprint};
use sqo_snapshot::{
    write_snapshot_file, LoadError, SnapshotBuilder, SnapshotFile, ValidationLevel,
    SEC_CONSTRAINTS, SEC_QUERIES,
};
use sqo_storage::{DataWrite, Database, StorageError, VersionedDatabase, WriteOutcome};

use crate::cache::{CacheEntry, CacheStats, ShardedCache};
use crate::persist;
use crate::singleflight::{FlightError, FlightKey, MissGuard, MissWaiter, Registered};

thread_local! {
    /// Per-worker reusable optimizer + executor buffers: the cold path of
    /// every service thread runs allocation-free once warmed up, without
    /// any cross-thread coordination.
    static WORKER_SCRATCH: RefCell<(OptimizerScratch, ExecScratch)> =
        RefCell::new((OptimizerScratch::new(), ExecScratch::new()));
}

/// Anything that can go wrong answering a query or applying a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The query failed validation or semantic optimization.
    Query(QueryError),
    /// Planning or execution failed.
    Exec(ExecError),
    /// A write batch failed validation or integrity enforcement.
    Storage(StorageError),
    /// A constraint was refused by the store (it names a class, a
    /// relationship or an attribute outside the store's catalog, or a
    /// literal of the wrong type).
    Constraint(ConstraintError),
    /// The `sqo-frontend` worker answering this request panicked in it.
    /// Exactly the poisoned request surfaces as this error: the worker
    /// lives on, and no caller is aborted or left waiting. (The service
    /// itself spawns no thread; a panic under [`QueryService::run`] unwinds
    /// into its caller.)
    WorkerPanicked,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Query(e) => write!(f, "query error: {e}"),
            ServiceError::Exec(e) => write!(f, "execution error: {e}"),
            ServiceError::Storage(e) => write!(f, "write error: {e}"),
            ServiceError::Constraint(e) => write!(f, "constraint error: {e}"),
            ServiceError::WorkerPanicked => write!(f, "worker panicked mid-request"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Query(e) => Some(e),
            ServiceError::Exec(e) => Some(e),
            ServiceError::Storage(e) => Some(e),
            ServiceError::Constraint(e) => Some(e),
            ServiceError::WorkerPanicked => None,
        }
    }
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Query(e)
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Storage(e)
    }
}

impl From<ConstraintError> for ServiceError {
    fn from(e: ConstraintError) -> Self {
        ServiceError::Constraint(e)
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Cache shard count (rounded up to a power of two).
    pub shards: usize,
    /// Total cached entries across all shards.
    pub cache_capacity: usize,
    /// Also memoize result sets, not just rewrites and plans. Sound under
    /// writes: plans survive every data write, and a memoized result is
    /// recomputed on the first request after a write to a class its plan
    /// binds (the argument is in `cache.rs`'s module docs). Turn off to
    /// re-execute on every request.
    pub cache_results: bool,
    /// Semantic-optimizer configuration used for every miss.
    pub optimizer: OptimizerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            cache_capacity: 1024,
            cache_results: true,
            optimizer: OptimizerConfig::paper(),
        }
    }
}

/// A query prepared for (repeated) execution: the cached optimization
/// artifacts pinned at one constraint-store epoch.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    entry: Arc<CacheEntry>,
    /// Constraint-store epoch the rewrite was derived under.
    pub epoch: u64,
    /// Whether preparation was answered from the cache.
    pub cache_hit: bool,
}

impl PreparedQuery {
    /// The canonical form of the prepared query (the cache identity).
    pub fn canonical(&self) -> &Query {
        &self.entry.canonical
    }

    /// The semantically optimized query.
    pub fn optimized(&self) -> &Query {
        &self.entry.optimized
    }

    /// The shared physical plan; `None` iff the answer is provably empty.
    pub fn plan(&self) -> Option<&Arc<PhysicalPlan>> {
        self.entry.plan.as_ref()
    }

    /// The optimizer proved the answer empty without touching the database.
    pub fn provably_empty(&self) -> bool {
        self.entry.provably_empty
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The rows, in the canonical query's column order.
    pub results: Arc<ResultSet>,
    /// Whether the optimization/plan came from the cache.
    pub cache_hit: bool,
    /// Constraint-store epoch the rewrite was derived under.
    pub epoch: u64,
    /// Data epoch of the snapshot the request was answered at: the rows are
    /// what the query returns on exactly that snapshot, whether they were
    /// computed on it or on an earlier one that no write since has made
    /// differ for this plan — one linearized epoch per answer.
    pub data_epoch: u64,
}

/// How a [`QueryService::try_run`] call landed — the non-blocking
/// counterpart of [`QueryService::run`]'s `ServiceResponse`.
#[derive(Debug)]
pub enum TryRun {
    /// Answered synchronously: a plan-cache hit (always — the flight table
    /// carries misses only) or a fingerprint-collision fallback.
    Done(ServiceResponse),
    /// First miss on these coordinates: the caller must run
    /// [`QueryService::complete_miss`] with the guard (dropping it instead
    /// aborts the flight and hands leadership to a retrying follower).
    Leader(MissGuard),
    /// Duplicate of an in-flight miss: leave a continuation with the
    /// waiter, or block on it, for the leader's published answer.
    Follower(MissWaiter),
}

/// Point-in-time service counters for the bench harness.
///
/// Snapshots taken mid-flight are **self-consistent**: `accepted ==
/// cache.hits + cache.misses` holds in every snapshot (the cache derives
/// both sides from one pair of ordered atomics, see
/// [`CacheStats`](crate::CacheStats)), and every counter is monotone
/// across successive snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests received, one per `run` and per `try_run` call (a
    /// follower's retry after an aborted flight is a new call).
    pub requests: u64,
    /// Requests that completed a plan-cache lookup. Exactly
    /// `cache.hits + cache.misses` in every snapshot; trails `requests`
    /// only by the requests currently between admission and their lookup.
    pub accepted: u64,
    /// Full semantic-optimization passes actually executed for requests
    /// (request-path misses; boot derivations are not counted).
    pub optimizations: u64,
    /// Physical plan executions (not answered from a memoized result).
    pub executions: u64,
    /// Write batches committed through [`QueryService::write`].
    pub writes: u64,
    /// Misses that registered as singleflight leaders (each ran one
    /// optimization on behalf of every concurrent duplicate).
    pub singleflight_leaders: u64,
    /// Misses that joined an already-in-flight optimization instead of
    /// running their own.
    pub singleflight_followers: u64,
    /// Current constraint-store epoch.
    pub epoch: u64,
    /// Current data epoch of the backing database.
    pub data_epoch: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

/// A long-lived, thread-shared query-answering engine.
///
/// Owns the database (behind a [`VersionedDatabase`] write path) and the
/// constraint store behind `Arc`s, so any number of client threads can call
/// [`QueryService::run`] concurrently (`&self` throughout). Repeated
/// queries — under *any* spelling that canonicalizes identically — are
/// answered from an N-way sharded CLOCK cache keyed by the canonical
/// fingerprint and validated against the store's
/// [`StoreVersion`](sqo_constraints::StoreVersion).
///
/// Invalidation is two-level:
///
/// * **Constraint inserts** purge only cache entries whose class set
///   overlaps the inserted constraint's; disjoint entries are revalidated
///   in place. Statistics changes purge everything (every cost-based
///   decision may shift).
/// * **Data writes** ([`QueryService::write`]) never touch the plan cache —
///   plans depend only on constraints and statistics — and expire only the
///   memoized result sets of plans that bind a class the batch changed:
///   the first request for such a query re-executes its (still cached)
///   plan, every other memo keeps serving
///   ([`CacheEntry::memoized_results`]).
///
/// Answers are always produced in the **canonical** query's column order
/// (projections sorted), so every spelling of a query receives an
/// identically-shaped result.
///
/// ```
/// use std::sync::Arc;
/// use sqo_service::QueryService;
/// use sqo_workload::{paper_scenario, DbSize};
///
/// let s = paper_scenario(DbSize::Db1, 42);
/// let service = QueryService::new(Arc::new(s.store), Arc::new(s.db));
/// let cold = service.run(&s.queries[0]).unwrap();
/// let warm = service.run(&s.queries[0]).unwrap();
/// assert!(!cold.cache_hit && warm.cache_hit);
/// assert_eq!(cold.results, warm.results);
/// ```
#[derive(Debug)]
pub struct QueryService {
    db: Arc<VersionedDatabase>,
    /// Swapped wholesale on constraint changes (copy-on-write): in-flight
    /// queries drain against the store they started with.
    store: RwLock<SERVICE_STORE, Arc<ConstraintStore>>,
    /// Serializes store writers so successor stores are built *outside*
    /// `store`'s write lock — readers only ever wait for the brief swap.
    writer: Mutex<SERVICE_WRITER, ()>,
    cache: ShardedCache,
    model: CostModel,
    config: ServiceConfig,
    requests: Counter,
    optimizations: Counter,
    executions: Counter,
    writes: Counter,
    sf_leaders: Counter,
    sf_followers: Counter,
}

impl QueryService {
    pub fn new(store: Arc<ConstraintStore>, db: Arc<Database>) -> Self {
        Self::with_config(store, db, ServiceConfig::default())
    }

    pub fn with_config(
        store: Arc<ConstraintStore>,
        db: Arc<Database>,
        config: ServiceConfig,
    ) -> Self {
        Self::with_versioned_db(store, Arc::new(VersionedDatabase::new(db)), config)
    }

    /// A service over an externally owned write path — used when writers or
    /// a second service must share the same evolving database.
    pub fn with_versioned_db(
        store: Arc<ConstraintStore>,
        db: Arc<VersionedDatabase>,
        config: ServiceConfig,
    ) -> Self {
        Self {
            db,
            store: RwLock::new(store),
            writer: Mutex::default(),
            cache: ShardedCache::new(config.shards, config.cache_capacity),
            model: CostModel::default(),
            config,
            requests: Counter::default(),
            optimizations: Counter::default(),
            executions: Counter::default(),
            writes: Counter::default(),
            sf_leaders: Counter::default(),
            sf_followers: Counter::default(),
        }
    }

    /// The current database snapshot (immutable; answers computed from it
    /// are consistent with its [`Database::data_version`]).
    pub fn db(&self) -> Arc<Database> {
        self.db.snapshot()
    }

    /// The versioned write path shared by every reader and writer.
    pub fn versioned_db(&self) -> &Arc<VersionedDatabase> {
        &self.db
    }

    /// The current data epoch (see [`VersionedDatabase::data_epoch`]).
    pub fn data_epoch(&self) -> u64 {
        self.db.data_epoch()
    }

    /// A snapshot handle to the current constraint store.
    pub fn store(&self) -> Arc<ConstraintStore> {
        Arc::clone(&self.store.read(&mut Unlocked::new()))
    }

    /// The current semantic epoch (see [`ConstraintStore::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.store.read(&mut Unlocked::new()).epoch()
    }

    /// The current unambiguous store identity.
    pub fn store_version(&self) -> StoreVersion {
        self.store.read(&mut Unlocked::new()).version()
    }

    /// Applies one atomic batch of data writes, advancing the data epoch;
    /// returns the batch's [`WriteOutcome`]. Plans stay cached (they depend
    /// only on constraints + statistics tier). Nothing is walked here: the
    /// write path raises the per-class write epochs of the classes the
    /// batch changed ([`VersionedDatabase::write`], which also covers
    /// writers that go to a shared handle directly), and each memoized
    /// result set whose plan binds one of them is recomputed lazily, by its
    /// next request.
    pub fn write(&self, writes: &[DataWrite]) -> Result<WriteOutcome, ServiceError> {
        let outcome = self.db.write(writes)?;
        self.writes.add(1);
        Ok(outcome)
    }

    /// Adds a constraint by building a successor store (copy-on-write) and
    /// swapping it in; returns the new epoch. Invalidation is
    /// **class-overlap precise**: only cache entries whose canonical query
    /// mentions one of the constraint's classes (reported by the store's
    /// by-class index postings) are purged; every other entry is revalidated
    /// under the new store version and keeps serving. A constraint the store
    /// refuses changes nothing: same store, same epoch, same cache.
    ///
    /// The O(#constraints) rebuild happens outside the store lock (writers
    /// are serialized by a dedicated mutex), so concurrent readers keep
    /// serving off the old store and only ever block on the pointer swap.
    pub fn add_constraint(&self, constraint: HornConstraint) -> Result<u64, ServiceError> {
        let mut held = Unlocked::new();
        let mut writing = self.writer.lock(&mut held);
        let held = writing.split().1;
        let base = Arc::clone(&self.store.read(held));
        let prev = base.version();
        let (next, id) = base.with_constraint(constraint)?;
        let next = Arc::new(next);
        let version = next.version();
        *self.store.write(held) = Arc::clone(&next);
        self.cache.invalidate_classes(held, prev, version, next.touched_classes(id));
        Ok(version.epoch())
    }

    /// Records an external statistics change (bumping the epoch so cached
    /// cost-based rewrites are re-derived); returns the new epoch. Every
    /// entry is purged — any cost-based decision may shift under new
    /// statistics, so there is no sound subset to keep.
    pub fn note_statistics_change(&self) -> u64 {
        let mut held = Unlocked::new();
        let mut writing = self.writer.lock(&mut held);
        let held = writing.split().1;
        let store = Arc::clone(&self.store.read(held));
        let epoch = store.note_statistics_change();
        self.cache.purge_stale(held, store.version());
        epoch
    }

    /// Swaps in an externally rebuilt constraint store, raising its epoch past the old store's so
    /// epoch sequences stay monotone across the swap, and purges every cache
    /// entry — the new generation can never hit the old one's entries.
    /// Returns the store's post-swap epoch.
    pub fn replace_store(&self, next: Arc<ConstraintStore>) -> u64 {
        let mut held = Unlocked::new();
        let mut writing = self.writer.lock(&mut held);
        let held = writing.split().1;
        let old = Arc::clone(&self.store.read(held));
        next.raise_epoch_to(old.epoch().saturating_add(1));
        let version = next.version();
        *self.store.write(held) = next;
        self.cache.purge_stale(held, version);
        version.epoch()
    }

    /// Resolves `query` to its optimization artifacts — from the cache when
    /// possible, by running the full semantic-optimization + planning
    /// pipeline on a miss.
    pub fn prepare(&self, query: &Query) -> Result<PreparedQuery, ServiceError> {
        match self.resolve(query) {
            Lookup::Hit(prepared) => Ok(prepared),
            Lookup::Miss(canonical, at) => self.entry_for(canonical, at),
        }
    }

    /// Step 1 of every request: the request's one plan-cache lookup, on the
    /// query as spelled (its fingerprint and the slot check need no
    /// canonical form). A hit reads the store version and pins nothing. A
    /// miss pins the store it will be derived under and canonicalizes the
    /// query, the only place a request does.
    fn resolve(&self, query: &Query) -> Lookup {
        let version = self.store_version();
        let fingerprint = query.fingerprint();
        if let Some(entry) = self.cache.get(fingerprint, query, version) {
            return Lookup::Hit(PreparedQuery { entry, epoch: version.epoch(), cache_hit: true });
        }
        let store = self.store();
        let at = Coordinate { version: store.version(), store, fingerprint };
        Lookup::Miss(query.canonical(), at)
    }

    /// Step 2, on a miss: the entry derived under exactly `at`'s store and
    /// published to the plan cache **stamped with that same version** (a
    /// store swapped mid-request can never receive an entry derived under
    /// its predecessor — lookups at the successor version miss and
    /// re-derive).
    fn entry_for(&self, canonical: Query, at: Coordinate) -> Result<PreparedQuery, ServiceError> {
        let entry = Arc::new(self.build_entry(canonical, &at.store)?);
        self.optimizations.add(1);
        self.cache.insert(at.fingerprint, at.version, Arc::clone(&entry));
        Ok(PreparedQuery { entry, epoch: at.version.epoch(), cache_hit: false })
    }

    /// The miss path, and a warm boot's: semantic optimization, then
    /// planning (skipped when the optimizer proves the answer empty). Both
    /// run against one database snapshot, so cost estimates are internally
    /// consistent.
    fn build_entry(
        &self,
        canonical: Query,
        store: &Arc<ConstraintStore>,
    ) -> Result<CacheEntry, ServiceError> {
        let db = self.db.snapshot();
        let optimizer = SemanticOptimizer::with_config(store, self.config.optimizer);
        let oracle = CostBasedOracle::with_model(&db, self.model);
        let out = WORKER_SCRATCH
            .with(|s| optimizer.optimize_with(&canonical, &oracle, &mut s.borrow_mut().0))?;
        let provably_empty = out.report.provably_empty;
        let (plan, columns) = if provably_empty {
            (None, out.query.projections.iter().map(|p| p.attr).collect())
        } else {
            // Planned from what the oracle carried: `plan_query`'s plan,
            // without loading or ordering the query again.
            let plan = Arc::new(oracle.plan_formulated(&out.query)?);
            let columns = plan.projections.iter().map(|p| p.attr).collect();
            (Some(plan), columns)
        };
        Ok(CacheEntry::new(canonical, out.query, plan, provably_empty, columns))
    }

    /// Executes a prepared query, sharing memoized results while they
    /// answer the current data epoch.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<Arc<ResultSet>, ServiceError> {
        self.answer(prepared).map(|response| response.results)
    }

    /// Step 3, the execution core: serves the result memo when it answers
    /// the current data epoch (computed at it, or earlier with no class of
    /// the plan written since); otherwise pins the current snapshot,
    /// re-executes on it and republishes the memo. Either way the response
    /// names the data epoch its rows are consistent with.
    fn answer(&self, prepared: &PreparedQuery) -> Result<ServiceResponse, ServiceError> {
        let entry = &prepared.entry;
        let respond = |results, data_epoch| ServiceResponse {
            results,
            cache_hit: prepared.cache_hit,
            epoch: prepared.epoch,
            data_epoch,
        };
        let memoize = self.config.cache_results;
        if memoize {
            // `data_epoch()` is an Acquire read of the epoch the write path
            // publishes after raising the classes its batch wrote and
            // swapping the snapshot in (raise before swap, `cache.rs`). A
            // reader that reads epoch E' sees every raise of every epoch
            // <= E', so a memo served at E' is what the plan returns on
            // E''s snapshot, and checking it pins no snapshot. The epoch is
            // published under the swap's lock, so E' is never behind a
            // snapshot another request already answered at.
            let data_epoch = self.db.data_epoch();
            if let Some(results) = entry.memoized_results(data_epoch) {
                return Ok(respond(results, data_epoch));
            }
        }
        let db = self.db.snapshot();
        let data_epoch = db.data_version();
        let results = if entry.provably_empty {
            Arc::new(ResultSet::empty(&entry.columns))
        } else {
            let plan = entry
                .plan
                .as_ref()
                .ok_or(ExecError::MalformedPlan("an entry not proven empty carries no plan"))?;
            let (res, _counters) =
                WORKER_SCRATCH.with(|s| execute_with(&db, plan, &mut s.borrow_mut().1))?;
            self.executions.add(1);
            Arc::new(res)
        };
        if memoize {
            entry.publish_results(data_epoch, &results);
        }
        Ok(respond(results, data_epoch))
    }

    /// Prepare + execute in one call — the per-request entry point.
    pub fn run(&self, query: &Query) -> Result<ServiceResponse, ServiceError> {
        self.requests.add(1);
        self.answer(&self.prepare(query)?)
    }

    /// The **non-blocking** per-request entry point for callers that
    /// multiplex many requests over few threads (the `sqo-frontend`
    /// crate): like [`QueryService::run`], but a cache miss never waits
    /// behind another request's optimization.
    ///
    /// * A plan-cache hit is answered synchronously as [`TryRun::Done`] —
    ///   execution is the caller's CPU work either way, and a hit never
    ///   touches the flight table.
    /// * The **first** miss on a `(fingerprint, store version, data
    ///   epoch)` coordinate becomes [`TryRun::Leader`]: the caller owes
    ///   the service one [`QueryService::complete_miss`] call, which runs
    ///   the full optimize+plan+execute pipeline and publishes the answer
    ///   to every concurrent duplicate.
    /// * Every further miss on the same coordinates becomes
    ///   [`TryRun::Follower`] with a [`MissWaiter`]: leave it a
    ///   continuation ([`MissWaiter::on_resolved`], no thread parked) or
    ///   [`MissWaiter::wait`] for it. An
    ///   [`FlightError::Aborted`](crate::FlightError::Aborted) outcome
    ///   means the leader dropped its guard without completing — call
    ///   `try_run` again; the retry re-checks the cache and may lead.
    pub fn try_run(&self, query: &Query) -> Result<TryRun, ServiceError> {
        self.requests.add(1);
        let (canonical, at) = match self.resolve(query) {
            Lookup::Hit(prepared) => return self.answer(&prepared).map(TryRun::Done),
            Lookup::Miss(canonical, at) => (canonical, at),
        };
        let key = FlightKey {
            fingerprint: at.fingerprint,
            version: at.version,
            data_epoch: self.db.data_epoch(),
        };
        match self.cache.flights().register(key, &canonical) {
            Registered::Leader(flight) => {
                self.sf_leaders.add(1);
                let table = Arc::clone(self.cache.flights());
                Ok(TryRun::Leader(MissGuard::new(key, canonical, at.store, table, flight)))
            }
            Registered::Follower(flight) => {
                self.sf_followers.add(1);
                Ok(TryRun::Follower(MissWaiter::new(flight)))
            }
            // A 64-bit fingerprint collision with the in-flight query:
            // sharing would serve the wrong answer, so this request runs
            // the undeduplicated pipeline on its own.
            Registered::Collision => self.answer(&self.entry_for(canonical, at)?).map(TryRun::Done),
        }
    }

    /// Runs the miss pipeline a [`TryRun::Leader`] owes: semantic
    /// optimization and planning against the store version captured at
    /// registration, cache publication stamped with that same version,
    /// then execution. The outcome resolves the flight (the only call of
    /// `guard.finish`; a dropped guard aborts instead), so every follower
    /// receives the identical `Arc`-shared answer, or the identical error
    /// (re-running the same pipeline would fail the same way).
    ///
    /// The leader first looks in the plan cache again, without counting the
    /// look: a request whose lookup missed just before an earlier leader
    /// published can register after that flight retired, and it then
    /// executes the published entry (answering `cache_hit`) instead of
    /// optimizing the query a second time.
    pub fn complete_miss(&self, guard: MissGuard) -> Result<ServiceResponse, ServiceError> {
        let key = guard.key();
        let published = self.cache.peek(key.fingerprint, guard.canonical(), key.version);
        let prepared = match published {
            Some(entry) => Ok(PreparedQuery { entry, epoch: key.version.epoch(), cache_hit: true }),
            None => {
                let at = Coordinate {
                    store: Arc::clone(guard.store()),
                    version: key.version,
                    fingerprint: key.fingerprint,
                };
                self.entry_for(guard.canonical().clone(), at)
            }
        };
        let outcome = prepared.and_then(|prepared| self.answer(&prepared));
        guard.finish(outcome.clone().map_err(FlightError::Failed));
        outcome
    }

    /// Serializes the full service state into a `.sqos` snapshot: the
    /// current database image (catalog, extents, links, indexes,
    /// statistics), the compiled constraint store, and the canonical query
    /// of every live plan-cache entry. The byte layout is specified in
    /// `docs/FORMAT.md`.
    ///
    /// The snapshot is a point-in-time cut: the database image and the
    /// constraint store are each internally consistent snapshots, and only
    /// cache entries valid at the captured store version are persisted.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let db = self.db.snapshot();
        let store = self.store();
        let mut builder = SnapshotBuilder::new();
        for (id, payload) in sqo_storage::database_sections(&db) {
            builder.section(id, payload);
        }
        builder.section(SEC_CONSTRAINTS, persist::encode_constraints(&store));
        builder
            .section(SEC_QUERIES, persist::encode_queries(&self.cache.entries(), store.version()));
        builder.finish()
    }

    /// Writes [`QueryService::snapshot_bytes`] to `path`, crash-safely
    /// ([`write_snapshot_file`]): at every instant `path` holds either the
    /// previous snapshot or the complete new one.
    ///
    /// # Errors
    /// [`LoadError::Io`] if the file cannot be written; whatever `path`
    /// held before is untouched.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), LoadError> {
        write_snapshot_file(path.as_ref(), &self.snapshot_bytes())
    }

    /// Reconstructs a service from snapshot bytes, validating at `level`
    /// (see `docs/VALIDATION.md` for what each level buys and costs).
    ///
    /// The constraint store is built again from the constraints the file
    /// states ([`crate::decode_constraints`]); it keeps the saved semantic
    /// epoch (raised monotonically) but gets a **fresh
    /// generation** — generations are process-local. Before the service is
    /// returned, every persisted query is canonicalized and derived through
    /// the miss pipeline against the loaded store and database, and cached
    /// at the new store's version: nothing derived is read from the file,
    /// so no file can make the service answer another query. Boot
    /// derivations do not count in [`ServiceStats::optimizations`].
    ///
    /// # Errors
    /// Any [`LoadError`]: damage, dangling ids, ordering violations, an
    /// index that is not its extent's grouping, and a persisted query the
    /// optimizer or planner refuses.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        level: ValidationLevel,
        config: ServiceConfig,
    ) -> Result<Self, LoadError> {
        let file = SnapshotFile::parse(bytes)?;
        let db = sqo_storage::decode_database_from(&file, level)?;
        let constraints =
            file.section(SEC_CONSTRAINTS).ok_or(LoadError::MissingSection("CONSTRAINTS"))?;
        let store = persist::decode_constraints(constraints, Arc::clone(db.catalog()))?;
        let queries = match file.section(SEC_QUERIES) {
            Some(payload) => persist::decode_queries(payload)?,
            None => Vec::new(),
        };
        let store = Arc::new(store);
        let service = Self::with_config(Arc::clone(&store), Arc::new(db), config);
        for query in queries {
            let entry = service.build_entry(query.canonical(), &store);
            let entry = Arc::new(entry.map_err(persist::refused_query)?);
            service.cache.insert(query.fingerprint(), store.version(), entry);
        }
        Ok(service)
    }

    /// Boots a service from a `.sqos` file written by
    /// [`QueryService::save_snapshot`] — the warm-start path: no index
    /// builds and no statistics folding; the store files the stated
    /// constraints, and the plan cache starts hot with every persisted query
    /// derived afresh.
    ///
    /// # Errors
    /// [`LoadError::Io`] if the file cannot be read, otherwise as
    /// [`QueryService::from_snapshot_bytes`].
    pub fn warm_start(
        path: impl AsRef<Path>,
        level: ValidationLevel,
        config: ServiceConfig,
    ) -> Result<Self, LoadError> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes, level, config)
    }

    /// Counter snapshot for monitoring and the bench harness. Safe to call
    /// mid-flight: see [`ServiceStats`] for the consistency guarantees.
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        ServiceStats {
            // `accepted == hits + misses` rides on the cache's lookups/hits
            // pair, read in `cache` above.
            requests: self.requests.get(),
            accepted: cache.lookups,
            optimizations: self.optimizations.get(),
            executions: self.executions.get(),
            writes: self.writes.get(),
            singleflight_leaders: self.sf_leaders.get(),
            singleflight_followers: self.sf_followers.get(),
            epoch: self.epoch(),
            data_epoch: self.data_epoch(),
            cache,
        }
    }
}

/// What a request's one plan-cache lookup found.
#[derive(Debug)]
enum Lookup {
    Hit(PreparedQuery),
    /// The request's canonical form, and where to derive it.
    Miss(Query, Coordinate),
}

/// Where a missed request sits in the service's version space: the store
/// handle its rewrite is derived under, and the cache identity
/// `(fingerprint, version)` of its canonical query at that store.
#[derive(Debug)]
struct Coordinate {
    store: Arc<ConstraintStore>,
    version: StoreVersion,
    fingerprint: QueryFingerprint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_workload::{paper_scenario, DbSize};

    fn service() -> (QueryService, Vec<Query>) {
        let s = paper_scenario(DbSize::Db1, 42);
        (QueryService::new(Arc::new(s.store), Arc::new(s.db)), s.queries)
    }

    #[test]
    fn service_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<QueryService>();
        check::<PreparedQuery>();
        check::<ServiceResponse>();
    }

    #[test]
    fn repeated_query_hits_the_cache_and_matches() {
        let (service, queries) = service();
        let cold = service.run(&queries[0]).unwrap();
        let warm = service.run(&queries[0]).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(cold.results.same_multiset(&warm.results));
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.optimizations, 1);
        assert_eq!(stats.executions, 1, "second request must reuse the memoized results");
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn zero_projection_query_counts_the_extent() {
        let s = paper_scenario(DbSize::Db1, 42);
        let catalog = Arc::clone(s.db.catalog());
        let (class, def) = catalog.classes().next().unwrap();
        let q = sqo_query::QueryBuilder::new(&catalog).access(&def.name).build().unwrap();
        let want = s.db.cardinality(class);
        assert!(want > 0);
        let service = QueryService::new(Arc::new(s.store), Arc::new(s.db));
        let response = service.run(&q).unwrap();
        assert_eq!(response.results.len(), want);
        assert_eq!(response.results.columns().len(), 0);
    }

    #[test]
    fn spelling_variants_share_one_entry() {
        let (service, queries) = service();
        let mut shuffled = queries[0].clone();
        shuffled.selective_predicates.reverse();
        shuffled.projections.reverse();
        shuffled.classes.reverse();
        let a = service.run(&queries[0]).unwrap();
        let b = service.run(&shuffled).unwrap();
        assert!(b.cache_hit, "a reordered spelling must hit the same entry");
        assert!(a.results.same_multiset(&b.results));
    }

    /// `x > 0.0` and `x > -0.0` are one query (`-0.0 == 0.0`): the second
    /// spelling hits the entry the first one derived.
    #[test]
    fn signed_zero_spellings_share_one_entry() {
        use sqo_catalog::{AttributeDef, Catalog, DataType, Value};
        let mut b = Catalog::builder();
        let reading = b.class("reading", vec![AttributeDef::new("x", DataType::Float)]).unwrap();
        let catalog = Arc::new(b.build().unwrap());
        let mut db = Database::builder(Arc::clone(&catalog));
        for x in [-1.5, 0.0, 2.5] {
            db.insert(reading, vec![Value::float(x).unwrap()]).unwrap();
        }
        let db = db.finalize(sqo_storage::IntegrityOptions).unwrap();
        let options = sqo_constraints::StoreOptions::paper_defaults();
        let store = ConstraintStore::build(Arc::clone(&catalog), vec![], options).unwrap();
        let service = QueryService::new(Arc::new(store), Arc::new(db));
        let above = |zero: f64| {
            sqo_query::QueryBuilder::new(&catalog)
                .select("reading.x")
                .filter("reading.x", sqo_query::CompOp::Gt, Value::float(zero).unwrap())
                .build()
                .unwrap()
        };
        let positive = service.run(&above(0.0)).unwrap();
        let negative = service.run(&above(-0.0)).unwrap();
        assert!(!positive.cache_hit);
        assert!(negative.cache_hit, "a -0.0 spelling must hit the 0.0 entry");
        assert_eq!(negative.results.len(), 1);
        assert_eq!(service.stats().optimizations, 1);
    }

    #[test]
    fn prepared_queries_reuse_one_plan() {
        let (service, queries) = service();
        let prepared = service.prepare(&queries[1]).unwrap();
        let again = service.prepare(&queries[1]).unwrap();
        if let (Some(p), Some(q)) = (prepared.plan(), again.plan()) {
            assert!(Arc::ptr_eq(p, q), "both handles must share the physical plan");
        }
        let r1 = service.execute_prepared(&prepared).unwrap();
        let r2 = service.execute_prepared(&again).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2), "memoized results are shared");
    }

    /// Some constraint of `service`'s store whose class set overlaps
    /// `query`'s (duplicating it is semantics-preserving, so answers must
    /// not move while the rewrite is re-derived).
    fn overlapping_dup(service: &QueryService, query: &Query) -> sqo_constraints::HornConstraint {
        let store = service.store();
        let found = store
            .constraints()
            .find(|(_, c)| c.classes.iter().any(|cl| query.classes.contains(cl)))
            .map(|(_, c)| c.clone());
        found.expect("some constraint touches the query's classes")
    }

    #[test]
    fn epoch_bump_invalidates_but_answers_stay_equal() {
        let (service, queries) = service();
        let before = service.run(&queries[2]).unwrap();
        let e0 = service.epoch();
        let dup = overlapping_dup(&service, &queries[2]);
        let e1 = service.add_constraint(dup).unwrap();
        assert!(e1 > e0);
        assert_eq!(service.epoch(), e1);
        let after = service.run(&queries[2]).unwrap();
        assert!(!after.cache_hit, "an overlapping constraint must invalidate the cached rewrite");
        assert_eq!(after.epoch, e1);
        assert!(before.results.same_multiset(&after.results));
        assert!(service.stats().cache.invalidations >= 1);
    }

    #[test]
    fn non_overlapping_constraint_insert_preserves_entries() {
        let (service, queries) = service();
        let cached = service.run(&queries[0]).unwrap();
        // A constraint scoped on a class the query never mentions: build it
        // on any class outside the query's class set.
        let catalog = Arc::clone(service.store().catalog());
        let outside = catalog
            .classes()
            .map(|(cid, _)| cid)
            .find(|cid| !queries[0].canonical().classes.contains(cid))
            .expect("five classes, queries span fewer");
        let name = catalog.class_name(outside).to_string();
        let constraint = sqo_constraints::ConstraintBuilder::new(&catalog, "outside")
            .when(&format!("{name}.a2"), sqo_query::CompOp::Eq, -1_000_000i64)
            .then(&format!("{name}.b2"), sqo_query::CompOp::Eq, 0i64)
            .build()
            .unwrap();
        let e1 = service.add_constraint(constraint).unwrap();
        let again = service.run(&queries[0]).unwrap();
        assert!(
            again.cache_hit,
            "a disjoint constraint must not orphan the entry: {:?}",
            service.stats()
        );
        assert_eq!(again.epoch, e1, "revalidated entries serve under the new epoch");
        assert!(again.results.same_multiset(&cached.results));
        let stats = service.stats();
        assert!(stats.cache.revalidations >= 1, "{stats:?}");
        assert_eq!(stats.cache.invalidations, 0, "{stats:?}");
        assert_eq!(stats.optimizations, 1, "no re-optimization happened");
    }

    #[test]
    fn foreign_catalog_constraint_is_a_typed_error() {
        let (service, queries) = service();
        service.run(&queries[2]).unwrap();
        let (store, version) = (service.store(), service.store_version());
        // A constraint as a larger catalog would have validated it: one
        // class past this store's.
        let far = sqo_catalog::ClassId(store.catalog().class_count() as u32);
        let mut foreign = overlapping_dup(&service, &queries[2]);
        foreign.classes.push(far);
        let err = service.add_constraint(foreign).unwrap_err();
        let unknown = sqo_catalog::CatalogError::UnknownClassId(far);
        assert_eq!(err, ServiceError::Constraint(ConstraintError::Catalog(unknown)));
        // Same store, same epoch, and the cached rewrite still serves.
        assert!(Arc::ptr_eq(&store, &service.store()));
        assert_eq!(service.store_version(), version);
        assert!(service.run(&queries[2]).unwrap().cache_hit);
        assert_eq!(service.stats().cache.invalidations, 0);
        // The writer lock was released: the next add goes through.
        let dup = overlapping_dup(&service, &queries[2]);
        assert!(service.add_constraint(dup).unwrap() > version.epoch());
    }

    /// `⊤ → cargo.key >= 0` holds of DB1, but stated over `{vehicle}` alone
    /// it would be retrieved for vehicle-only queries and add a `cargo`
    /// predicate the formulated query cannot validate. The store build and
    /// `add_constraint` both refuse its class set, and a vehicle-only query
    /// answers.
    #[test]
    fn a_class_set_that_omits_a_named_class_is_refused() {
        let (service, _) = service();
        let (store, version) = (service.store(), service.store_version());
        let catalog = Arc::clone(store.catalog());
        let cargo = catalog.class_id("cargo").unwrap();
        let bad = sqo_constraints::HornConstraint {
            name: "unlisted".into(),
            antecedents: vec![],
            relationships: vec![],
            consequent: sqo_query::Predicate::sel(
                catalog.attr_ref("cargo", "key").unwrap(),
                sqo_query::CompOp::Ge,
                0i64,
            ),
            classes: vec![catalog.class_id("vehicle").unwrap()],
        };
        let want = ConstraintError::ClassSet(cargo);
        let mut stated: Vec<_> = store.constraints().map(|(_, c)| c.clone()).collect();
        stated.push(bad.clone());
        let options = sqo_constraints::StoreOptions::paper_defaults();
        let built = ConstraintStore::build(Arc::clone(&catalog), stated, options);
        assert_eq!(built.unwrap_err(), want);
        assert_eq!(service.add_constraint(bad).unwrap_err(), ServiceError::Constraint(want));
        assert_eq!(service.store_version(), version);
        let vehicle_only = sqo_query::QueryBuilder::new(&catalog)
            .select("vehicle.a2")
            .filter("vehicle.a3", sqo_query::CompOp::Ge, 0i64)
            .build()
            .unwrap();
        service.run(&vehicle_only).unwrap();
    }

    /// A constraint whose consequent names an attribute the class does not
    /// declare is refused like a foreign class, and the service's store,
    /// epoch and snapshot stay loadable: saving it used to write a file the
    /// loader refuses.
    #[test]
    fn unknown_attribute_constraint_is_a_typed_error() {
        let (service, queries) = service();
        service.run(&queries[2]).unwrap();
        let (store, version) = (service.store(), service.store_version());
        let mut foreign = overlapping_dup(&service, &queries[2]);
        let class = sqo_catalog::ClassId(1);
        let attr = sqo_catalog::AttrRef::new(class, sqo_catalog::AttrId(99));
        foreign.consequent = sqo_query::Predicate::sel(attr, sqo_query::CompOp::Eq, 0i64);
        let err = service.add_constraint(foreign).unwrap_err();
        assert!(matches!(err, ServiceError::Constraint(ConstraintError::Catalog(_))), "{err:?}");
        assert!(Arc::ptr_eq(&store, &service.store()));
        assert_eq!(service.store_version(), version);
        assert_eq!(service.epoch(), version.epoch());
        assert!(service.run(&queries[2]).unwrap().cache_hit);
        let bytes = service.snapshot_bytes();
        QueryService::from_snapshot_bytes(
            &bytes,
            ValidationLevel::Standard,
            ServiceConfig::default(),
        )
        .expect("the snapshot of a service that refused the constraint loads");
    }

    #[test]
    fn data_writes_keep_plans_but_expire_result_memos() {
        let (service, queries) = service();
        let before = service.run(&queries[0]).unwrap();
        assert_eq!(before.data_epoch, 0);
        let stats0 = service.stats();
        assert_eq!((stats0.executions, stats0.writes), (1, 0));

        // Duplicate a cargo instance with its links (constraint- and
        // integrity-preserving); the recomputed answer is cross-checked
        // against the unoptimized original query below.
        let db = service.db();
        let catalog = db.catalog();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        let src = sqo_storage::ObjectId(0);
        let outcome = service
            .write(&[DataWrite::Insert {
                class: cargo,
                tuple: db.tuple(cargo, src).unwrap(),
                links: vec![
                    (supplies, db.traverse(supplies, cargo, src).unwrap()[0]),
                    (collects, db.traverse(collects, cargo, src).unwrap()[0]),
                ],
            }])
            .unwrap();
        assert_eq!(outcome.epoch, 1);

        let after = service.run(&queries[0]).unwrap();
        assert!(after.cache_hit, "plans survive pure data writes");
        assert_eq!(after.data_epoch, 1);
        let stats1 = service.stats();
        assert_eq!(stats1.writes, 1);
        assert_eq!(stats1.data_epoch, 1);
        assert_eq!(stats1.optimizations, 1, "no re-optimization after a data write");
        assert_eq!(stats1.executions, 2, "the memoized result must be recomputed");

        // The recomputed answer matches the original query, planned and
        // executed unoptimized on the post-write snapshot.
        let db = service.db();
        let plan = sqo_exec::plan_query(&db, &queries[0].canonical(), &service.model).unwrap();
        let (fresh, _) = sqo_exec::execute(&db, &plan).unwrap();
        assert!(after.results.same_multiset(&fresh));

        // Re-running without further writes serves the (re)memoized copy.
        let warm = service.run(&queries[0]).unwrap();
        assert_eq!(service.stats().executions, 2, "memo re-armed at the new epoch");
        assert!(warm.results.same_multiset(&after.results));
    }

    #[test]
    fn try_run_leads_hits_and_follows() {
        let (service, queries) = service();
        // Cold: the first try_run is a leader that owes a completion.
        let TryRun::Leader(guard) = service.try_run(&queries[0]).unwrap() else {
            panic!("cold try_run must lead")
        };
        // While the flight is open, a duplicate becomes a follower.
        let TryRun::Follower(waiter) = service.try_run(&queries[0]).unwrap() else {
            panic!("duplicate of an open flight must follow")
        };
        let led = service.complete_miss(guard).unwrap();
        let followed = waiter.wait().unwrap();
        assert!(led.results.same_multiset(&followed.results));
        assert_eq!(followed.data_epoch, led.data_epoch);
        // Published: the next try_run is a plain cache hit.
        let TryRun::Done(hit) = service.try_run(&queries[0]).unwrap() else {
            panic!("published entry must hit")
        };
        assert!(hit.cache_hit);
        let stats = service.stats();
        assert_eq!(stats.optimizations, 1, "one optimization serves leader + follower + hit");
        assert_eq!(stats.singleflight_leaders, 1);
        assert_eq!(stats.singleflight_followers, 1);
        assert_eq!(stats.accepted, stats.cache.hits + stats.cache.misses);
    }

    #[test]
    fn dropped_leader_aborts_and_a_retry_recovers() {
        let (service, queries) = service();
        let TryRun::Leader(guard) = service.try_run(&queries[0]).unwrap() else { panic!() };
        let TryRun::Follower(waiter) = service.try_run(&queries[0]).unwrap() else { panic!() };
        drop(guard);
        assert!(matches!(waiter.wait(), Err(FlightError::Aborted)));
        // The retry finds the key free and leads; completion publishes.
        let TryRun::Leader(guard) = service.try_run(&queries[0]).unwrap() else {
            panic!("retry after abort must lead")
        };
        let response = service.complete_miss(guard).unwrap();
        assert!(!response.cache_hit);
        assert!(matches!(service.try_run(&queries[0]).unwrap(), TryRun::Done(r) if r.cache_hit));
    }

    #[test]
    fn a_warm_hit_never_joins_a_flight() {
        let (service, queries) = service();
        let query = &queries[0];
        let _ = service.run(query).unwrap(); // warm the plan cache
        let canonical = query.canonical();
        let key = FlightKey {
            fingerprint: canonical.fingerprint_canonical(),
            version: service.store().version(),
            data_epoch: service.versioned_db().data_epoch(),
        };
        // A flight pinned open on the hit's own coordinates: only a miss
        // may register on it, so the warm duplicate answers inline.
        let Registered::Leader(_pinned) = service.cache.flights().register(key, &canonical) else {
            panic!("manual registration must lead")
        };
        let TryRun::Done(hit) = service.try_run(query).unwrap() else {
            panic!("a hit is always answered inline")
        };
        assert!(hit.cache_hit);
        let stats = service.stats();
        assert_eq!((stats.singleflight_leaders, stats.singleflight_followers), (0, 0), "{stats:?}");
    }

    #[test]
    fn statistics_change_invalidates() {
        let (service, queries) = service();
        let _ = service.run(&queries[0]).unwrap();
        service.note_statistics_change();
        assert_eq!(service.stats().cache.entries, 0, "purged eagerly");
        let r = service.run(&queries[0]).unwrap();
        assert!(!r.cache_hit);
    }
}
