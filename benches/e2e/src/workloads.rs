//! The four closed-loop, single-client workloads and the trial protocol.
//!
//! Per run: untimed fixture generation → reset `VmHWM` → timed set-up
//! repetitions → one discarded warm-up → timed trials → sample `VmHWM` →
//! timed set-up repetitions again → answer check. Every timed metric is
//! computed per trial; the caller reports the median across trials.
//!
//! Every time is *calibrated*: a trial runs in slices of a few
//! milliseconds, a set-up sample is ten or more, each between two readings
//! of the host's speed, and is divided by the slowdown they show (see
//! `calibrate.rs`). The raw times are kept for the report.
//!
//! `--seed` draws the request stream only — the order of the cold pools,
//! the Zipf draws and spellings, and the position, kind and target of every
//! write — over the fixed deployment of `fixture.rs`. Which queries exist
//! and how popular each is belongs to the deployment: a seed that
//! re-ranked sixteen queries whose cost spans three orders of magnitude
//! would measure a different system, not the same one again.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqo_catalog::ClassId;
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig, ServiceStats};
use sqo_workload::{dup_safe_classes, respell, MixedApplier, MixedOp, WriteKind, Zipf};

use crate::calibrate::{between, Calibrator};
use crate::check::{check, CheckResult};
use crate::fixture::{warm_boot, Fixture, Scale, POOL_SIZE};
use crate::stats::percentile_us;

/// `cold_scaled`'s plan cache (4 entries in each of the 16 shards) and the
/// pool prefix it cycles: four times the cache, as `cold_paper`'s pool is of
/// the default one, so every request misses with insert and eviction paid.
/// Small, so that a pass takes about a second and a run holds twenty: with
/// the default cache the shortest all-miss pass is 1,344 queries and 4 to 7
/// s, a run held three, and the 1,024 result memos the cache then keeps
/// (450 MiB of heap that nothing ever reads) grew through the run, slowing
/// the program and the allocation kernel by different amounts: ten runs
/// spread by 0.25 to 0.30, against 0.09 to 0.15 with this cache (`NOISE.md`).
const COLD_SCALED_CACHE: usize = 64;
const COLD_SCALED_QUERIES: usize = 4 * COLD_SCALED_CACHE;
const ZIPF_DISTINCT: usize = 64;
const ZIPF_REQUESTS: usize = 65_536;
const ZIPF_S: f64 = 1.1;
const MIXED_DISTINCT: usize = 16;
/// Ops per block of `mixed_rw`; each block holds exactly one write (5 %).
/// Exact rather than drawn per op: at 33 ms a write against microsecond
/// reads, a binomial write count would move throughput by a tenth.
const MIXED_BLOCK: usize = 20;
const WRITE_ZIPF_S: f64 = 0.8;
const DELETE_FRACTION: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPaper,
    ColdScaled,
    WarmZipf,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdPaper, Workload::ColdScaled, Workload::WarmZipf, Workload::MixedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold_paper",
            Workload::ColdScaled => "cold_scaled",
            Workload::WarmZipf => "warm_zipf",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdPaper => {
                "paper-size database, 4096 distinct queries cycled past the 1024-entry plan cache: \
                 every request optimizes and plans, which is 85 % of the op"
            }
            Workload::ColdScaled => {
                "same all-miss path on 20000 objects per class (past the LLC): execution and result \
                 building are 95 % of the op, the optimizer's saving shows at scale"
            }
            Workload::WarmZipf => {
                "warm start from a snapshot, 64 queries under Zipf 1.1 in shuffled spellings: every \
                 request is a memoized hit, the working set fits the cache"
            }
            Workload::MixedRw => {
                "16 queries with exactly 5 % writes on the scaled database: plans survive, result \
                 memos expire, storage takes copy-on-write batches beside reads"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::ColdPaper => Scale::Paper,
            _ => Scale::Scaled,
        }
    }

    /// Ops between two readings of the host's speed: 5 to 50 ms of work,
    /// against 0.4 ms for a reading. `mixed_rw`'s slice is one block, so
    /// that every slice holds one write.
    pub fn slice_ops(self) -> usize {
        match self {
            Workload::ColdPaper => 256,
            Workload::ColdScaled => 8,
            Workload::WarmZipf => 8192,
            Workload::MixedRw => MIXED_BLOCK,
        }
    }

    /// The power of the host's slowdown, as the kernels read it, by which
    /// the workload's own time rises. 1 where the kernels were chosen.
    /// `cold_scaled` reads its way through 70 MiB on every pass, memory it
    /// shares with the neighbours, and slows down more than the kernels,
    /// which run from the core's own caches: by the power 1.2 to 1.5 within
    /// a process (two four-minute recordings) and 1.3 to 2 across processes
    /// (five sets of ten to sixteen runs). With 1 a loud host was left
    /// under-corrected; 1.5 did as well or better on every set (`NOISE.md`).
    pub fn host_response(self) -> f64 {
        match self {
            Workload::ColdScaled => 1.5,
            _ => 1.0,
        }
    }

    /// Every request is a plan-cache miss.
    pub fn is_cold(self) -> bool {
        matches!(self, Workload::ColdPaper | Workload::ColdScaled)
    }

    /// The configuration the workload's service runs with: the default,
    /// except for `cold_scaled`'s smaller plan cache.
    pub fn service_config(self) -> ServiceConfig {
        match self {
            Workload::ColdScaled => {
                ServiceConfig { cache_capacity: COLD_SCALED_CACHE, ..ServiceConfig::default() }
            }
            _ => ServiceConfig::default(),
        }
    }
}

/// How much of the protocol a run performs.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Timed trials a run is sized for. It makes as many as `--seconds`
    /// hold: three at least (one, if sized for one), three times as many at
    /// most.
    pub trials: usize,
    pub warmup_s: f64,
    /// Per batch of timed boots; there are two, before and after the trials.
    pub setup_min_reps: usize,
    pub setup_min_s: f64,
}

impl Protocol {
    pub const FULL: Protocol =
        Protocol { trials: 5, warmup_s: 1.0, setup_min_reps: 3, setup_min_s: 1.0 };
    pub const SMOKE: Protocol =
        Protocol { trials: 1, warmup_s: 0.05, setup_min_reps: 1, setup_min_s: 0.0 };
}

const SETUP_MAX_REPS: usize = 2000;
/// Boots per set-up sample: as many as take this long, 64 at most. A
/// paper-scale boot takes 0.7 ms, and a sample that short is mostly jitter.
const SETUP_SAMPLE_S: f64 = 0.010;
const SETUP_MAX_BATCH: usize = 64;
/// Read latencies a trial keeps: its first two million. A fixed buffer, so
/// that peak memory does not follow how many ops the box manages per trial.
const LATENCY_SAMPLES: usize = 1 << 21;

/// Everything one workload needs before the clock starts.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub fixture: Fixture,
    /// The distinct queries the stream draws from, in popularity order
    /// where the stream is skewed.
    pub distinct: Vec<Query>,
    pub stream: Stream,
    /// `warm_zipf` only: the snapshot its boots start from.
    pub snapshot: Option<Vec<u8>>,
}

impl Prepared {
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Self {
        let fixture = Fixture::generate(scale);
        let pool = fixture.query_pool(match workload {
            Workload::ColdPaper => POOL_SIZE,
            Workload::ColdScaled => COLD_SCALED_QUERIES,
            Workload::WarmZipf => ZIPF_DISTINCT,
            Workload::MixedRw => MIXED_DISTINCT,
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let (distinct, stream, snapshot) = match workload {
            Workload::ColdPaper | Workload::ColdScaled => {
                let mut order: Vec<usize> = (0..pool.len()).collect();
                order.shuffle(&mut rng);
                let ops = order
                    .into_iter()
                    .map(|index| MixedOp::Read { index, query: pool[index].clone() })
                    .collect();
                (pool, Stream::Cyclic(ops), None)
            }
            Workload::WarmZipf => {
                let zipf = Zipf::new(pool.len(), ZIPF_S);
                let ops = (0..ZIPF_REQUESTS).map(|_| zipf_read(&pool, &zipf, &mut rng)).collect();
                let seeded = fixture.cold_boot(fixture.boot_inputs(), workload.service_config());
                for q in &pool {
                    seeded.run(q).expect("fixture query answers");
                }
                let snapshot = seeded.snapshot_bytes();
                (pool, Stream::Cyclic(ops), Some(snapshot))
            }
            Workload::MixedRw => {
                let classes = dup_safe_classes(&fixture.catalog);
                let gen = MixedGen {
                    zipf: Zipf::new(pool.len(), ZIPF_S),
                    class_zipf: Zipf::new(classes.len(), WRITE_ZIPF_S),
                    distinct: pool.clone(),
                    classes,
                    rng,
                    buf: Vec::new(),
                };
                (pool, Stream::Mixed(gen), None)
            }
        };
        Self { workload, fixture, distinct, stream, snapshot }
    }

    /// One boot, timed from inputs in hand to ready to serve.
    pub fn timed_boot(&self) -> (QueryService, f64) {
        match &self.snapshot {
            Some(bytes) => {
                let t0 = Instant::now();
                let service = warm_boot(bytes);
                (service, t0.elapsed().as_secs_f64())
            }
            None => {
                let inputs = self.fixture.boot_inputs();
                let t0 = Instant::now();
                let service = self.fixture.cold_boot(inputs, self.workload.service_config());
                (service, t0.elapsed().as_secs_f64())
            }
        }
    }

    /// The queries whose answers are checked: every distinct query of the
    /// skewed streams, an even stride through the cold pools (256 of
    /// `cold_paper`'s, 64 of `cold_scaled`'s).
    pub fn checked_queries(&self) -> impl Iterator<Item = &Query> {
        let stride = match self.workload {
            Workload::ColdPaper => 16,
            Workload::ColdScaled => 4,
            Workload::WarmZipf | Workload::MixedRw => 1,
        };
        self.distinct.iter().step_by(stride)
    }
}

fn zipf_read(distinct: &[Query], zipf: &Zipf, rng: &mut StdRng) -> MixedOp {
    let index = zipf.sample(rng);
    MixedOp::Read { index, query: respell(&distinct[index], rng) }
}

/// `mixed_rw`'s endless op generator.
#[derive(Debug)]
pub struct MixedGen {
    distinct: Vec<Query>,
    zipf: Zipf,
    classes: Vec<ClassId>,
    class_zipf: Zipf,
    rng: StdRng,
    buf: Vec<MixedOp>,
}

impl MixedGen {
    fn push_block(&mut self) {
        let write_at = self.rng.gen_range(0..MIXED_BLOCK);
        for i in 0..MIXED_BLOCK {
            let op = if i == write_at {
                let class = self.classes[self.class_zipf.sample(&mut self.rng)];
                let pick = self.rng.gen_range(0..u32::MAX);
                MixedOp::Write(if self.rng.gen_range(0.0..1.0) < DELETE_FRACTION {
                    WriteKind::DeleteDup { class, pick }
                } else {
                    WriteKind::InsertDup { class, source_rank: pick }
                })
            } else {
                zipf_read(&self.distinct, &self.zipf, &mut self.rng)
            };
            self.buf.push(op);
        }
    }
}

/// A seeded request stream, consumed in whole units so that every trial of
/// a run does the same work.
#[derive(Debug)]
pub enum Stream {
    /// One pass of requests, cycled. A unit is one pass.
    Cyclic(Vec<MixedOp>),
    /// Generated on demand. A unit is one block.
    Mixed(MixedGen),
}

impl Stream {
    pub fn unit_len(&self) -> usize {
        match self {
            Stream::Cyclic(ops) => ops.len(),
            Stream::Mixed(_) => MIXED_BLOCK,
        }
    }

    /// The ops of the next `units` units, as a slice to run `.1` times.
    pub fn next_units(&mut self, units: usize) -> (&[MixedOp], usize) {
        match self {
            Stream::Cyclic(ops) => (ops, units),
            Stream::Mixed(gen) => {
                gen.buf.clear();
                for _ in 0..units {
                    gen.push_block();
                }
                (&gen.buf, 1)
            }
        }
    }

    /// Runs the stream for `seconds`, untimed per op, and returns the
    /// seconds one unit took. A cyclic stream stops mid-pass and is rotated
    /// to resume there: restarting a cold pool would hit what the warm-up
    /// just cached.
    fn warm_up(&mut self, client: &mut Client<'_>, seconds: f64) -> f64 {
        let start = Instant::now();
        match self {
            Stream::Cyclic(ops) => {
                let mut done = 0;
                while done == 0 || start.elapsed().as_secs_f64() < seconds {
                    client.apply::<false>(&ops[done % ops.len()]);
                    done += 1;
                }
                let elapsed = start.elapsed().as_secs_f64();
                let len = ops.len();
                ops.rotate_left(done % len);
                elapsed / done as f64 * len as f64
            }
            Stream::Mixed(_) => {
                let mut blocks = 0;
                while blocks == 0 || start.elapsed().as_secs_f64() < seconds {
                    let (ops, _) = self.next_units(2);
                    ops.iter().for_each(|op| client.apply::<false>(op));
                    blocks += 2;
                }
                start.elapsed().as_secs_f64() / blocks as f64
            }
        }
    }

    /// An order-sensitive hash of the next `units` units: equal streams
    /// hash equal.
    #[cfg(test)]
    pub fn hash_units(&mut self, units: usize) -> u64 {
        use std::hash::{Hash, Hasher};
        let (ops, repeats) = self.next_units(units);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        repeats.hash(&mut h);
        for op in ops {
            match op {
                MixedOp::Read { index, query } => (index, format!("{query:?}")).hash(&mut h),
                MixedOp::Write(kind) => format!("{kind:?}").hash(&mut h),
            }
        }
        h.finish()
    }
}

/// The one client: applies ops to the service and keeps what it saw.
#[derive(Debug)]
pub struct Client<'s> {
    service: &'s QueryService,
    applier: MixedApplier,
    pub failed: u64,
    read_ns: Vec<u32>,
    write_ns: Vec<u32>,
}

fn ns(since: Instant) -> u32 {
    u32::try_from(since.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

impl<'s> Client<'s> {
    pub fn new(service: &'s QueryService) -> Self {
        Self {
            service,
            applier: MixedApplier::new(&service.db()),
            failed: 0,
            read_ns: Vec::with_capacity(LATENCY_SAMPLES),
            write_ns: Vec::new(),
        }
    }

    /// One op. `CLOCKED` reads take a nanosecond clock pair around `run`;
    /// writes are always clocked, around `QueryService::write` alone.
    pub fn apply<const CLOCKED: bool>(&mut self, op: &MixedOp) {
        match op {
            MixedOp::Read { query, .. } => {
                let t0 = CLOCKED.then(Instant::now);
                match self.service.run(query) {
                    Ok(response) => drop(black_box(response)),
                    Err(_) => self.failed += 1,
                }
                if let Some(t0) = t0.filter(|_| self.read_ns.len() < LATENCY_SAMPLES) {
                    self.read_ns.push(ns(t0));
                }
            }
            MixedOp::Write(kind) => {
                let (class, victim, batch) = self.applier.resolve(&self.service.db(), kind);
                let t0 = Instant::now();
                let outcome = self.service.write(&batch);
                self.write_ns.push(ns(t0));
                match outcome {
                    Ok(outcome) => self.applier.confirm(class, victim, &outcome.receipt),
                    Err(_) => self.failed += 1,
                }
            }
        }
    }

    /// One timed trial: `ops`, `repeats` times, in slices of the workload's
    /// `slice_ops` with a reading of the host's speed between any two. Each
    /// slice's duration, and every latency taken inside it, is divided by
    /// the slowdown the readings around it show, raised to the workload's
    /// `host_response`.
    pub fn trial<const CLOCKED: bool>(
        &mut self,
        ops: &[MixedOp],
        repeats: usize,
        workload: Workload,
        calibrator: &mut Calibrator,
    ) -> Trial {
        self.read_ns.clear();
        self.write_ns.clear();
        let (mut wall_s, mut calibrated_s) = (0.0, 0.0);
        let mut before = calibrator.slowdown();
        for _ in 0..repeats {
            for slice in ops.chunks(workload.slice_ops()) {
                let (reads, writes) = (self.read_ns.len(), self.write_ns.len());
                let start = Instant::now();
                for op in slice {
                    self.apply::<CLOCKED>(op);
                }
                let took = start.elapsed().as_secs_f64();
                let after = calibrator.slowdown();
                let host = between(before, after).powf(workload.host_response());
                before = after;
                wall_s += took;
                calibrated_s += took / host;
                for ns in self.read_ns[reads..].iter_mut().chain(&mut self.write_ns[writes..]) {
                    *ns = (f64::from(*ns) / host) as u32;
                }
            }
        }
        let p50 = |ns: &mut Vec<u32>| (!ns.is_empty()).then(|| percentile_us(ns, 50.0));
        Trial {
            ops: (ops.len() * repeats) as u64,
            wall_s,
            calibrated_s,
            read_p50_us: p50(&mut self.read_ns),
            write_p50_us: p50(&mut self.write_ns),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Trial {
    pub ops: u64,
    /// Time inside the slices, as the clock read it.
    pub wall_s: f64,
    /// The same, each slice divided by the host's slowdown around it.
    pub calibrated_s: f64,
    pub read_p50_us: Option<f64>,
    pub write_p50_us: Option<f64>,
}

/// What a timed run measured; per-trial values, medians left to the caller.
#[derive(Debug)]
pub struct TimedRun {
    pub attempted: u64,
    pub failed: u64,
    /// Workload invariants that did not hold (hits on a cold workload,
    /// optimizations after a warm start).
    pub violations: Vec<String>,
    /// Calibrated seconds per boot, one value per set-up sample.
    pub setup_s: Vec<f64>,
    /// Boots per set-up sample.
    pub setup_batch: usize,
    /// Calibrated, as are the latencies.
    pub throughput_ops_s: Vec<f64>,
    pub read_p50_us: Vec<f64>,
    pub write_p50_us: Vec<f64>,
    /// Per throughput trial, ops over the clock's time: what this host
    /// delivered, neighbours included.
    pub raw_throughput_ops_s: Vec<f64>,
    /// Per throughput trial, clock time over calibrated time.
    pub host_slowdown: Vec<f64>,
    pub peak_rss_mib: f64,
    pub check: CheckResult,
    /// Service counters after the last trial, before the answer check.
    pub stats: ServiceStats,
    pub units_per_trial: usize,
}

pub fn run_timed(mut prepared: Prepared, seconds: f64, protocol: Protocol) -> TimedRun {
    let mut calibrator = Calibrator::new();
    reset_peak_rss();

    // Half of the set-up samples are taken here and half after the trials.
    let mut setup_s = Vec::new();
    let (service, setup_batch) = timed_boots(&prepared, protocol, &mut calibrator, &mut setup_s);

    let workload = prepared.workload;
    let mut client = Client::new(&service);
    let unit_s = prepared.stream.warm_up(&mut client, protocol.warmup_s);
    // `warm_zipf`'s op is too short for a clock pair inside a throughput
    // trial, so it alternates unclocked and clocked trials.
    let split = workload == Workload::WarmZipf;
    let budget_s = seconds / if split { 2.0 } else { 1.0 };
    let units = ((budget_s / protocol.trials as f64 / unit_s).round() as usize).max(1);
    // The warm-up only guesses how long a unit takes on a host whose speed
    // changes: trials go on while half of another fits into `--seconds`.
    let (min_trials, max_trials) = (protocol.trials.min(3), 3 * protocol.trials);

    let (mut attempted, mut throughput, mut read_p50, mut write_p50) = (0, vec![], vec![], vec![]);
    let (mut raw_throughput, mut host_slowdown) = (vec![], vec![]);
    let started = Instant::now();
    loop {
        let (done, spent_s) = (throughput.len(), started.elapsed().as_secs_f64());
        let fits = spent_s * (1.0 + 0.5 / done.max(1) as f64) < seconds;
        if done >= min_trials && (!fits || done >= max_trials) {
            break;
        }
        let (ops, repeats) = prepared.stream.next_units(units);
        let timed = if split {
            client.trial::<false>(ops, repeats, workload, &mut calibrator)
        } else {
            client.trial::<true>(ops, repeats, workload, &mut calibrator)
        };
        let clocked = if split {
            client.trial::<true>(ops, repeats, workload, &mut calibrator)
        } else {
            timed
        };
        attempted += timed.ops + if split { clocked.ops } else { 0 };
        throughput.push(timed.ops as f64 / timed.calibrated_s);
        raw_throughput.push(timed.ops as f64 / timed.wall_s);
        host_slowdown.push(timed.wall_s / timed.calibrated_s);
        read_p50.extend(clocked.read_p50_us);
        write_p50.extend(clocked.write_p50_us);
    }
    let peak_rss_mib = peak_rss_mib();
    drop(timed_boots(&prepared, protocol, &mut calibrator, &mut setup_s));

    let failed_ops = client.failed;
    let stats = service.stats();
    let mut violations = Vec::new();
    if workload.is_cold() && stats.cache.hits != 0 {
        violations.push(format!("{} plan-cache hits on a cold workload", stats.cache.hits));
    }
    if workload == Workload::WarmZipf && stats.optimizations != 0 {
        violations.push(format!("{} optimizations after a warm start", stats.optimizations));
    }
    let check = check(&service, prepared.checked_queries());
    TimedRun {
        attempted: attempted + check.checked,
        failed: failed_ops + check.wrong,
        violations,
        setup_s,
        setup_batch,
        throughput_ops_s: throughput,
        read_p50_us: read_p50,
        write_p50_us: write_p50,
        raw_throughput_ops_s: raw_throughput,
        host_slowdown,
        peak_rss_mib,
        check,
        stats,
        units_per_trial: units,
    }
}

/// One batch of set-up samples after a discarded boot: at least
/// `setup_min_reps` and `setup_min_s` seconds of them. A sample is the time
/// per boot of as many consecutive boots as take [`SETUP_SAMPLE_S`].
/// Returns the last service booted and the boots per sample.
///
/// Cold boots are calibrated: building the database and the store is
/// allocator-bound like the kernels, and dividing by their slowdown took
/// the spread across ten-second windows from 0.25 to 0.04 (paper) and from
/// 0.16 to 0.07 (scaled). The snapshot boot is not: decoding 9 MiB is a bulk
/// copy the kernels do not resemble, and the same division *widened* its
/// spread from 0.07 to 0.12, so `warm_zipf` reports the clock's time.
fn timed_boots(
    prepared: &Prepared,
    protocol: Protocol,
    calibrator: &mut Calibrator,
    setup_s: &mut Vec<f64>,
) -> (QueryService, usize) {
    // Discarded for its first-touch costs; sizes the samples.
    let (mut service, first_s) = prepared.timed_boot();
    let batch = ((SETUP_SAMPLE_S / first_s).ceil() as usize).clamp(1, SETUP_MAX_BATCH);
    let (mut reps, mut spent) = (0, 0.0);
    let mut before = calibrator.slowdown();
    while reps < protocol.setup_min_reps || (spent < protocol.setup_min_s && reps < SETUP_MAX_REPS)
    {
        let mut took = 0.0;
        for _ in 0..batch {
            drop(service);
            let (booted, boot_s) = prepared.timed_boot();
            service = booted;
            took += boot_s;
        }
        let after = calibrator.slowdown();
        let host = if prepared.snapshot.is_some() { 1.0 } else { between(before, after) };
        setup_s.push(took / batch as f64 / host);
        before = after;
        reps += 1;
        spent += took;
    }
    (service, batch)
}

/// Resets the kernel's resident-set high-water mark to the current RSS.
/// Refused in some sandboxes; the mark then covers fixture generation too,
/// which is the same work on every run.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .expect("VmHWM line is `<n> kB`");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Paper scale throughout: the streams do not depend on the data.
    fn prepared(workload: Workload, seed: u64) -> Prepared {
        Prepared::new(workload, Scale::Paper, seed)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            let hash = |seed| prepared(workload, seed).stream.hash_units(3);
            assert_eq!(hash(42), hash(42), "{}", workload.name());
            assert_ne!(hash(42), hash(7), "{}", workload.name());
        }
    }

    #[test]
    fn pool_fingerprints_are_pairwise_distinct() {
        let pool = Fixture::generate(Scale::Paper).query_pool(POOL_SIZE);
        let fingerprints: HashSet<_> = pool.iter().map(Query::fingerprint).collect();
        assert_eq!(fingerprints.len(), POOL_SIZE);
    }

    #[test]
    fn mixed_blocks_hold_exactly_one_write() {
        let mut p = prepared(Workload::MixedRw, 42);
        let (ops, repeats) = p.stream.next_units(50);
        assert_eq!((ops.len(), repeats), (50 * MIXED_BLOCK, 1));
        for block in ops.chunks(MIXED_BLOCK) {
            assert_eq!(block.iter().filter(|op| matches!(op, MixedOp::Write(_))).count(), 1);
        }
    }

    /// `cold_*` never hit, `warm_zipf` never optimizes, every sampled
    /// answer matches the unoptimized reference.
    #[test]
    fn every_workload_runs_clean_at_paper_scale() {
        for workload in Workload::ALL {
            let run = run_timed(prepared(workload, 42), 0.2, Protocol::SMOKE);
            assert!(run
                .throughput_ops_s
                .iter()
                .chain(&run.setup_s)
                .all(|v| v.is_finite() && *v > 0.0));
            assert_eq!(run.violations, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(run.failed, 0, "{}", workload.name());
            assert!(run.check.checked >= 16 && run.check.exec_cost_ratio() > 0.0);
            match workload {
                Workload::ColdPaper | Workload::ColdScaled => {
                    assert_eq!(run.stats.cache.hits, 0);
                    assert_eq!(run.stats.optimizations, run.stats.requests);
                }
                Workload::WarmZipf => assert_eq!(run.stats.optimizations, 0),
                Workload::MixedRw => {
                    assert_eq!(run.stats.optimizations, MIXED_DISTINCT as u64);
                    assert!(run.stats.writes > 0 && !run.write_p50_us.is_empty());
                }
            }
        }
    }
}
