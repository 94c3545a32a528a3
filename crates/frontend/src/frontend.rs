//! The request frontend: admission control, load shedding, and the worker
//! pool that drives [`QueryService::try_run`]'s singleflight seam.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use sqo_query::sync::{
    Condvar, CountPair, Counter, Gauge, Held, Mutex, Unlocked, FRONTEND_QUEUE, FRONTEND_SLOT,
    FRONTEND_WINDOW,
};
use sqo_query::Query;
use sqo_service::{FlightError, MissWaiter, QueryService, ServiceError, ServiceResponse, TryRun};

/// Frontend tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Worker threads answering requests (the CPU budget; logical
    /// clients are unbounded by this).
    pub workers: usize,
    /// Maximum admitted-but-unfinished logical clients. A concurrent
    /// submission beyond this depth is shed with
    /// [`Overload::QueueFull`] — reject-newest, the oldest work already
    /// admitted always finishes.
    pub queue_depth: usize,
    /// Shed new arrivals while the windowed p99 completion-latency
    /// estimate exceeds this bound (microseconds). `None` disables
    /// latency-based shedding; the queue bound still applies.
    pub p99_bound_us: Option<u64>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_depth: 1024,
            p99_bound_us: None,
        }
    }
}

/// Why a submission was rejected instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overload {
    /// The admission queue is at its configured depth.
    QueueFull,
    /// The p99 completion-latency estimate exceeds its configured bound.
    LatencyBound,
}

impl std::fmt::Display for Overload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overload::QueueFull => write!(f, "admission queue full"),
            Overload::LatencyBound => write!(f, "p99 latency estimate over bound"),
        }
    }
}

/// A completed request as observed by the client.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The service's answer (or typed error).
    pub result: Result<ServiceResponse, ServiceError>,
    /// Microseconds from a worker first picking the request up to its
    /// completion — time parked behind a leader included, time queued
    /// before that first pick-up not.
    pub latency_us: u64,
}

#[derive(Debug, Default)]
struct Slot {
    completion: Mutex<FRONTEND_SLOT, Option<Completion>>,
    done: Condvar,
}

/// The client's handle on one admitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl ResponseHandle {
    /// The completion if the request has finished, without blocking.
    pub fn try_take(&self) -> Option<Completion> {
        self.slot.completion.lock(&mut Unlocked::new()).take()
    }

    /// Blocks the calling thread until the request completes.
    pub fn wait(self) -> Completion {
        let mut held = Unlocked::new();
        let mut completion = self.slot.completion.lock(&mut held);
        loop {
            if let Some(done) = completion.take() {
                return done;
            }
            completion = self.slot.done.wait(completion);
        }
    }
}

/// Windowed completion-latency reservoir: the last `WINDOW` latencies in
/// a ring, percentiles computed on demand. Coarse by design — shedding
/// needs a stable trend signal, not a precise histogram.
#[derive(Debug)]
struct LatencyEstimator {
    window: Mutex<FRONTEND_WINDOW, LatencyWindow>,
}

#[derive(Debug)]
struct LatencyWindow {
    ring: Vec<u64>,
    next: usize,
    filled: usize,
}

const WINDOW: usize = 256;
/// No latency shedding until the window holds this many samples — a cold
/// frontend must not shed on its first (slow, cache-cold) completions.
const MIN_SAMPLES: usize = 64;

impl LatencyEstimator {
    fn new() -> Self {
        Self { window: Mutex::new(LatencyWindow { ring: vec![0; WINDOW], next: 0, filled: 0 }) }
    }

    fn record(&self, held: &mut Unlocked, latency_us: u64) {
        let mut w = self.window.lock(held);
        let next = w.next;
        w.ring[next] = latency_us;
        w.next = (next + 1) % WINDOW;
        w.filled = (w.filled + 1).min(WINDOW);
    }

    /// The windowed p99 estimate, once enough samples exist.
    fn p99_us(&self) -> Option<u64> {
        let mut held = Unlocked::new();
        let w = self.window.lock(&mut held);
        if w.filled < MIN_SAMPLES {
            return None;
        }
        let mut sorted: Vec<u64> = w.ring[..w.filled].to_vec();
        drop(w);
        sorted.sort_unstable();
        let rank = (sorted.len() * 99).div_ceil(100).saturating_sub(1);
        Some(sorted[rank])
    }
}

/// Point-in-time frontend counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    /// Submissions admitted past the shed checks.
    pub admitted: u64,
    /// Admitted requests that ran to completion.
    pub completed: u64,
    /// Submissions shed because the admission queue was full.
    pub shed_queue_full: u64,
    /// Submissions shed by the p99-latency bound.
    pub shed_latency: u64,
    /// Admitted and not yet completed right now.
    pub in_flight: usize,
}

/// One admitted request on its way to an answer: what a worker pops, and
/// what a follower leaves in its flight as a continuation.
#[derive(Debug)]
struct Job {
    query: Query,
    slot: Arc<Slot>,
    /// When a worker first popped the job; a retry after an aborted flight
    /// keeps its first reading.
    started_at: Option<Instant>,
}

#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set once by the drain; from then on an idle worker exits as soon as
    /// nothing is in flight.
    draining: bool,
}

/// Where a worker asks for a job's answer: [`QueryService::try_run`], or a
/// test's stand-in that panics.
type TryRunFn = fn(&QueryService, &Query) -> Result<TryRun, ServiceError>;

/// How one pass over a job landed.
enum Landed {
    Answered(Result<ServiceResponse, ServiceError>),
    Following(MissWaiter),
}

#[derive(Debug)]
struct Shared {
    service: Arc<QueryService>,
    try_run: TryRunFn,
    queue: Mutex<FRONTEND_QUEUE, Queue>,
    /// Signalled on a pushed job, on drain, and when the last in-flight
    /// request of a drain completes.
    ready: Condvar,
    in_flight: Gauge,
    /// `(admitted, completed)`: a job is admitted before the queue hands
    /// it to the worker that completes it.
    admissions: CountPair,
    shed_queue_full: Counter,
    shed_latency: Counter,
    /// Present only under a configured [`FrontendConfig::p99_bound_us`]:
    /// nothing else reads the window, so nothing else pays for its lock.
    latency: Option<LatencyEstimator>,
}

impl Shared {
    fn push(&self, held: &mut Unlocked, job: Job) {
        self.queue.lock(held).jobs.push_back(job);
        self.ready.notify_one();
    }

    /// The next job, or `None` once draining and nothing is in flight —
    /// a parked follower is in flight, so the pool outlives its wait.
    fn next_job(&self, held: &mut Unlocked) -> Option<Job> {
        let mut queue = self.queue.lock(held);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            // Reading 0 observes every completion that gave a slot back.
            if queue.draining && self.in_flight.get() == 0 {
                return None;
            }
            queue = self.ready.wait(queue);
        }
    }

    /// Gives back one admission slot. The last one out during a drain
    /// wakes the workers parked in [`Shared::next_job`]; the flag is read
    /// under the queue lock they re-check it under, so the wake cannot
    /// fall between their check and their wait. `held` is the caller's
    /// token: [`Shared::finish`] gives back the slot under the client's
    /// response slot lock, which ranks below the queue.
    fn release<const H: u8>(&self, held: &mut Held<H>) {
        if self.in_flight.release() == 1 && self.queue.lock(held).draining {
            self.ready.notify_all();
        }
    }

    /// One pass over a job: hits answer, a leader runs the optimization
    /// inline (that *is* the deduplicated work), a follower hands back its
    /// waiter.
    fn step(&self, query: &Query) -> Landed {
        match (self.try_run)(&self.service, query) {
            Ok(TryRun::Done(response)) => Landed::Answered(Ok(response)),
            Ok(TryRun::Leader(guard)) => Landed::Answered(self.service.complete_miss(guard)),
            Ok(TryRun::Follower(waiter)) => Landed::Following(waiter),
            Err(e) => Landed::Answered(Err(e)),
        }
    }

    /// One worker. The job stays outside the unwind boundary, so a pass
    /// that panics still completes its client — with
    /// [`ServiceError::WorkerPanicked`] — and the worker carries on. A
    /// follower's job moves into its flight as a continuation: no thread
    /// waits with it, and whoever resolves the flight finishes it (or, the
    /// flight having no answer for it, queues it again — the retry
    /// re-checks the cache and may lead).
    fn work(self: &Arc<Self>) {
        let mut held = Unlocked::new();
        while let Some(mut job) = self.next_job(&mut held) {
            job.started_at.get_or_insert_with(Instant::now);
            let landed = catch_unwind(AssertUnwindSafe(|| self.step(&job.query)))
                .unwrap_or(Landed::Answered(Err(ServiceError::WorkerPanicked)));
            match landed {
                Landed::Answered(result) => self.finish(&mut held, job, result),
                Landed::Following(waiter) => {
                    let shared = Arc::clone(self);
                    waiter.on_resolved(move |held, outcome| match outcome {
                        Ok(response) => shared.finish(held, job, Ok(response)),
                        Err(FlightError::Failed(e)) => shared.finish(held, job, Err(e)),
                        Err(FlightError::Aborted) => shared.push(held, job),
                    });
                }
            }
        }
    }

    /// The one way a request ends, on whatever thread it ends: latency
    /// sample (when a bound reads them), completion, counters, wake-up. The
    /// counters move under the slot's lock, so a client that has seen its
    /// completion also sees its admission slot free, and a drain that has
    /// seen nothing in flight also finds every slot written.
    fn finish(&self, held: &mut Unlocked, job: Job, result: Result<ServiceResponse, ServiceError>) {
        let latency_us = job.started_at.map_or(0, |at| at.elapsed().as_micros() as u64);
        if let Some(latency) = &self.latency {
            latency.record(held, latency_us);
        }
        let mut completion = job.slot.completion.lock(held);
        let (done, held) = completion.split();
        *done = Some(Completion { result, latency_us });
        self.admissions.add_inner();
        self.release(held);
        drop(completion);
        job.slot.done.notify_all();
    }
}

/// The non-blocking request frontend: multiplexes any number of logical
/// clients over a fixed worker pool driving one [`QueryService`].
///
/// [`Frontend::submit`] is the admission point — it costs the caller a
/// bounded-queue check (and optionally a p99 estimate read), never an
/// optimization. Admitted requests become queued jobs: a cache hit
/// completes on the worker that pops it; the first miss on a coordinate
/// runs the optimization once (singleflight leader); every concurrent
/// duplicate parks in the leader's flight and shares the published answer
/// without holding a thread.
///
/// Dropping the frontend drains it, exactly like [`Frontend::shutdown`].
#[derive(Debug)]
pub struct Frontend {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    config: FrontendConfig,
}

impl Frontend {
    /// A frontend over `service` with `config`'s admission policy.
    pub fn new(service: Arc<QueryService>, config: FrontendConfig) -> Self {
        Self::with_try_run(service, config, QueryService::try_run)
    }

    fn with_try_run(service: Arc<QueryService>, config: FrontendConfig, try_run: TryRunFn) -> Self {
        let shared = Arc::new(Shared {
            service,
            try_run,
            queue: Mutex::default(),
            ready: Condvar::new(),
            in_flight: Gauge::default(),
            admissions: CountPair::default(),
            shed_queue_full: Counter::default(),
            shed_latency: Counter::default(),
            latency: config.p99_bound_us.map(|_| LatencyEstimator::new()),
        });
        let workers = (0..config.workers.max(1))
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("sqo-frontend-{i}"))
                    .spawn(move || shared.work());
                match spawned {
                    Ok(handle) => Some(handle),
                    // Failures past the first worker merely degrade capacity.
                    #[expect(
                        clippy::panic,
                        reason = "invariant: a frontend has at least one worker; with none, \
                                  every submitted request would wait forever"
                    )]
                    Err(e) if i == 0 => panic!("spawn first frontend worker: {e}"),
                    Err(_) => None,
                }
            })
            .collect();
        Self { shared, workers, config }
    }

    /// Admits `query` as a new logical client, or sheds it with a typed
    /// [`Overload`]. Reject-newest: an admitted request is never
    /// abandoned, the marginal arrival is the one refused.
    pub fn submit(&self, query: &Query) -> Result<ResponseHandle, Overload> {
        let shared = &self.shared;
        if let Some(bound) = self.config.p99_bound_us {
            let p99 = shared.latency.as_ref().and_then(LatencyEstimator::p99_us);
            if p99.is_some_and(|p99| p99 > bound) {
                shared.shed_latency.add(1);
                return Err(Overload::LatencyBound);
            }
        }
        // Claim a queue slot; back off if the claim overshoots the bound.
        // Concurrent claims never read the same count, so they cannot
        // jointly overshoot it.
        let mut held = Unlocked::new();
        if shared.in_flight.claim() >= self.config.queue_depth {
            shared.release(&mut held);
            shared.shed_queue_full.add(1);
            return Err(Overload::QueueFull);
        }
        // Counted before the push that hands the job to its worker, so a
        // completion read in stats() implies its admission.
        shared.admissions.add_outer();
        let slot = Arc::new(Slot::default());
        let job = Job { query: query.clone(), slot: Arc::clone(&slot), started_at: None };
        shared.push(&mut held, job);
        Ok(ResponseHandle { slot })
    }

    /// Current frontend counters (the driven service's own stats are on
    /// [`Frontend::service`]).
    pub fn stats(&self) -> FrontendStats {
        let shared = &self.shared;
        // `completed <= admitted` in every read (regression-tested by
        // tests/frontend.rs::stats_completed_never_exceeds_admitted).
        let (admitted, completed) = shared.admissions.read();
        FrontendStats {
            admitted,
            completed,
            shed_queue_full: shared.shed_queue_full.get(),
            shed_latency: shared.shed_latency.get(),
            in_flight: shared.in_flight.get(),
        }
    }

    /// The service this frontend drives.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.shared.service
    }

    /// Drain-on-shutdown: runs every already-admitted request to
    /// completion, joins the worker pool, and reports the final counters.
    /// Taking the frontend by value is what stops admission — nobody is
    /// left who could call [`Frontend::submit`].
    pub fn shutdown(mut self) -> FrontendStats {
        self.drain();
        self.stats()
    }

    /// Exclusive access means no `submit` can overlap the drain, so the
    /// queue only ever shrinks from here. Idempotent: the second call
    /// (from `Drop`, after `shutdown`) finds no worker left to join.
    fn drain(&mut self) {
        self.shared.queue.lock(&mut Unlocked::new()).draining = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    use sqo_workload::{paper_scenario, DbSize};

    /// A pass that panics still ends in `finish`: the client gets
    /// `WorkerPanicked` instead of waiting forever, the admission slot
    /// comes back, and the worker lives to answer the next request.
    #[test]
    fn a_panicking_request_completes_its_handle_and_frees_its_slot() {
        fn panic_once(service: &QueryService, query: &Query) -> Result<TryRun, ServiceError> {
            static ARMED: AtomicBool = AtomicBool::new(true);
            if ARMED.swap(false, Ordering::SeqCst) {
                panic!("injected request panic");
            }
            service.try_run(query)
        }
        let s = paper_scenario(DbSize::Db1, 23);
        let service = Arc::new(QueryService::new(Arc::new(s.store), Arc::new(s.db)));
        // One worker and one admission slot: the panic may cost neither.
        let frontend = Frontend::with_try_run(
            service,
            FrontendConfig { workers: 1, queue_depth: 1, p99_bound_us: None },
            panic_once,
        );
        let poisoned = frontend.submit(&s.queries[0]).expect("admitted").wait();
        assert_eq!(poisoned.result.unwrap_err(), ServiceError::WorkerPanicked);
        assert_eq!(frontend.stats().in_flight, 0, "the slot came back with the completion");
        let next = frontend.submit(&s.queries[0]).expect("the freed slot admits").wait();
        assert!(next.result.is_ok(), "the only worker survived");
        let stats = frontend.shutdown();
        assert_eq!((stats.admitted, stats.completed, stats.in_flight), (2, 2, 0));
    }
}
