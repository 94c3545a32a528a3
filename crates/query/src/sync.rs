//! The workspace's concurrency discipline, as types the compiler checks.
//!
//! Every atomic and every lock in a production crate is one of the types
//! below: `clippy.toml` bans `std::sync::atomic::*`, `std::sync::{Mutex,
//! RwLock, Condvar}` and `parking_lot`'s locks everywhere else
//! (`clippy::disallowed_types`, denied at each production crate root
//! outside `cfg(test)`). So the memory-ordering arguments are written once,
//! here, and the lock hierarchy is part of each lock's type.
//!
//! # Atomics
//!
//! * [`Counter`]: a monotone count or id allocator, `Relaxed` throughout.
//!   Display counters, store generations, snapshot temporary-file numbers,
//!   the plan cache's CLOCK reference bits.
//! * [`Epoch`]: a monotone version that publishes what was written before
//!   it moved. The constraint-store epoch, the data epoch and the per-class
//!   write epochs.
//! * [`CountPair`]: two counts read as one snapshot that never shows more
//!   inner events than outer ones (`hits ≤ lookups`, `completed ≤
//!   admitted`).
//! * [`Gauge`]: a count claimed and given back (the frontend's in-flight
//!   admissions).
//!
//! # Ranked locks
//!
//! A [`Mutex`] or [`RwLock`] carries its rank `R` in its type (the ranks
//! are the constants below). Taking it needs the caller's token
//! [`Held<H>`]: the rank the caller already holds, [`Unlocked`] for none.
//! The guard borrows that token for as long as it lives and hands out its
//! own, `Held<R>`, through [`Guard::split`]. An acquisition out of rank
//! order fails the build (a post-monomorphization error, so `cargo build`
//! and `cargo test` catch it and `cargo check` does not):
//!
//! ```compile_fail,E0080
//! use sqo_query::sync::{Mutex, Unlocked, FRONTEND_QUEUE, FRONTEND_SLOT};
//! let slot: Mutex<FRONTEND_SLOT, u32> = Mutex::new(0);
//! let queue: Mutex<FRONTEND_QUEUE, u32> = Mutex::new(0);
//! let mut held = Unlocked::new();
//! let mut jobs = queue.lock(&mut held);
//! let (_, held) = jobs.split();
//! let _slot = slot.lock(held); // slot (50) under queue (55)
//! ```
//!
//! A token a live guard borrows cannot take another lock, so code that
//! must run with no guard held asks for `&mut Unlocked` (a flight's
//! continuation does), and a caller still holding a guard cannot provide
//! one:
//!
//! ```compile_fail,E0499
//! use sqo_query::sync::{Mutex, Unlocked, FLIGHT_STATE, FRONTEND_SLOT};
//! let state: Mutex<FLIGHT_STATE, u32> = Mutex::new(0);
//! let slot: Mutex<FRONTEND_SLOT, u32> = Mutex::new(0);
//! let mut held = Unlocked::new();
//! let open = state.lock(&mut held);
//! let _slot = slot.lock(&mut held); // `held` is still borrowed by `open`
//! drop(open);
//! ```
//!
//! What the types cannot see is where a thread starts: a public method
//! takes a fresh [`Unlocked`], which assumes its caller holds no lock of
//! this workspace (docs/ANALYSIS.md).
#![expect(
    clippy::disallowed_types,
    reason = "the one module that wraps std's atomics and locks for the rest of the workspace"
)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// `sqo-service`'s store-writer mutex: serializes constraint-store swaps.
pub const SERVICE_WRITER: u8 = 10;
/// `sqo-storage`'s writer mutex: serializes write batches.
pub const STORAGE_WRITER: u8 = 12;
/// `sqo-service`'s current `Arc<ConstraintStore>` slot.
pub const SERVICE_STORE: u8 = 20;
/// `sqo-storage`'s current snapshot slot.
pub const STORAGE_CURRENT: u8 = 22;
/// One plan-cache shard map.
pub const CACHE_SHARD: u8 = 30;
/// The in-flight miss registry.
pub const SERVICE_FLIGHTS: u8 = 40;
/// One flight: open with its continuations, or resolved with its outcome.
pub const FLIGHT_STATE: u8 = 45;
/// One frontend client's response slot.
pub const FRONTEND_SLOT: u8 = 50;
/// The frontend's job queue and its drain flag.
pub const FRONTEND_QUEUE: u8 = 55;
/// The frontend's latency reservoir.
pub const FRONTEND_WINDOW: u8 = 70;
/// One cache entry's memoized results.
pub const CACHE_MEMO: u8 = 75;
/// `sqo-storage`'s per-lineage log of recent write batches: a leaf, taken
/// by the writer under its mutex and by a memo check under nothing.
pub const STORAGE_LOG: u8 = 80;

/// A monotone count or id allocator. `Relaxed`: each RMW is atomic, so no
/// count is lost and no id is handed out twice, and no reader orders
/// anything else by what it reads here.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new(value: u64) -> Self {
        Self(AtomicU64::new(value))
    }

    /// Adds `n`; returns the value before (an allocator's fresh id).
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (a CLOCK reference bit; a lost race costs an
    /// entry its second chance, nothing else).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// A monotone version. Every write is a Release (`bump` and `raise` are
/// AcqRel RMWs, so they also stay in one total order with each other) and
/// [`Epoch::get`] is an Acquire: a reader that observes a value observes
/// everything its writer did before moving the epoch there.
#[derive(Debug, Default)]
pub struct Epoch(AtomicU64);

impl Epoch {
    pub const fn new(value: u64) -> Self {
        Self(AtomicU64::new(value))
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advances by one; returns the new value.
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Raises to at least `floor`; never lowers.
    pub fn raise(&self, floor: u64) {
        self.0.fetch_max(floor, Ordering::AcqRel);
    }

    /// Stores `value`; the caller serializes publishers.
    pub fn publish(&self, value: u64) {
        self.0.store(value, Ordering::Release);
    }
}

/// Two monotone counts where each inner event follows an outer one
/// (a hit follows its lookup; a completion follows its admission, through
/// the queue that hands the job over). The outer count is bumped first and
/// `Relaxed`, the inner one with `Release`; [`CountPair::read`] loads the
/// inner count first with `Acquire`, then the outer one. Observing `n`
/// inner events therefore observes their `n` outer events: `inner ≤
/// outer` in every read, on any memory model.
#[derive(Debug, Default)]
pub struct CountPair {
    outer: AtomicU64,
    inner: AtomicU64,
}

impl CountPair {
    pub fn add_outer(&self) {
        self.outer.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_inner(&self) {
        self.inner.fetch_add(1, Ordering::Release);
    }

    /// `(outer, inner)`, with `inner ≤ outer`.
    pub fn read(&self) -> (u64, u64) {
        let inner = self.inner.load(Ordering::Acquire);
        (self.outer.load(Ordering::Relaxed), inner)
    }
}

/// A count of claimed units. Claims and releases are AcqRel RMWs on one
/// modification order, so concurrent claims never read the same count,
/// and an Acquire read of `0` observes everything each releaser did first.
#[derive(Debug, Default)]
pub struct Gauge(AtomicUsize);

impl Gauge {
    /// Claims one unit; returns the count before the claim.
    pub fn claim(&self) -> usize {
        self.0.fetch_add(1, Ordering::AcqRel)
    }

    /// Gives one unit back; returns the count before the release.
    pub fn release(&self) -> usize {
        self.0.fetch_sub(1, Ordering::AcqRel)
    }

    pub fn get(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}

/// Proof that the holder's highest lock has rank `R` (module docs). Zero
/// sized; only [`Unlocked::new`] and a guard's [`Guard::split`] make one.
#[derive(Debug)]
pub struct Held<const R: u8>(());

/// The token of a thread that holds no ranked lock.
pub type Unlocked = Held<0>;

impl Unlocked {
    /// The token a public entry point, or a new thread, starts from
    /// (module docs: what the types cannot see).
    pub fn new() -> Self {
        Held(())
    }
}

impl Default for Unlocked {
    fn default() -> Self {
        Self::new()
    }
}

/// A guard of a rank-`R` lock: derefs to the data and owns a `Held<R>`.
/// It borrows the token it was taken with until it drops.
#[derive(Debug)]
pub struct Guard<const R: u8, G> {
    inner: G,
    held: Held<R>,
}

impl<const R: u8, G: Deref> Deref for Guard<R, G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<const R: u8, G: DerefMut> DerefMut for Guard<R, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

impl<const R: u8, G: DerefMut> Guard<R, G> {
    /// The data and this guard's token, for a lock of higher rank.
    pub fn split(&mut self) -> (&mut G::Target, &mut Held<R>) {
        (&mut self.inner, &mut self.held)
    }
}

/// Wraps a std guard of rank `R` taken under a token of rank `H`. The
/// assertion is evaluated when `lock`, `read` or `write` is instantiated,
/// which is what makes an inversion a build error.
fn guard<const R: u8, const H: u8, G>(inner: G) -> Guard<R, G> {
    const { assert!(H < R, "lock taken out of rank order (sqo_query::sync)") };
    Guard { inner, held: Held(()) }
}

/// A `std::sync::Mutex` of rank `R`. Poisoning is ignored: after a panic
/// under the lock, the next user gets the data as the panicking holder
/// left it.
#[derive(Debug, Default)]
pub struct Mutex<const R: u8, T>(std::sync::Mutex<T>);

/// What [`Mutex::lock`] returns.
pub type MutexGuard<'a, const R: u8, T> = Guard<R, std::sync::MutexGuard<'a, T>>;

impl<const R: u8, T> Mutex<R, T> {
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is free. `H < R` or the build fails; the guard
    /// borrows the caller's token until it drops.
    pub fn lock<'a, const H: u8>(&'a self, _: &'a mut Held<H>) -> MutexGuard<'a, R, T> {
        guard::<R, H, _>(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A `std::sync::RwLock` of rank `R`, poison-recovering like [`Mutex`].
#[derive(Debug, Default)]
pub struct RwLock<const R: u8, T>(std::sync::RwLock<T>);

impl<const R: u8, T> RwLock<R, T> {
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Shared access; ranks and the token as [`Mutex::lock`].
    pub fn read<'a, const H: u8>(&'a self, _: &'a mut Held<H>) -> Guard<R, RwLockReadGuard<'a, T>> {
        guard::<R, H, _>(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Exclusive access; ranks and the token as [`Mutex::lock`].
    pub fn write<'a, const H: u8>(
        &'a self,
        _: &'a mut Held<H>,
    ) -> Guard<R, RwLockWriteGuard<'a, T>> {
        guard::<R, H, _>(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A `std::sync::Condvar` for a ranked [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Releases the guard's lock until notified, then takes it again. The
    /// guard, and the token it borrows, come back unchanged.
    pub fn wait<'a, const R: u8, T>(&self, guard: MutexGuard<'a, R, T>) -> MutexGuard<'a, R, T> {
        let Guard { inner, held } = guard;
        Guard { inner: self.0.wait(inner).unwrap_or_else(PoisonError::into_inner), held }
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn counter_hands_out_each_id_once() {
        let ids = Arc::new(Counter::new(5));
        let drawn: Vec<u64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).map(|_| ids.add(1)).collect::<Vec<_>>()))
                .collect();
            threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
        });
        let mut sorted = drawn.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (5..405).collect::<Vec<_>>());
        assert_eq!(ids.get(), 405);
        ids.set(3);
        assert_eq!(ids.add(2), 3);
    }

    #[test]
    fn epoch_bumps_raises_and_publishes_monotonically() {
        let epoch = Epoch::default();
        assert_eq!(epoch.bump(), 1);
        epoch.raise(7);
        epoch.raise(3);
        assert_eq!(epoch.get(), 7, "raise never lowers");
        assert_eq!(epoch.bump(), 8);
        epoch.publish(9);
        assert_eq!(Epoch::new(9).get(), epoch.get());
    }

    #[test]
    fn gauge_claims_and_releases() {
        let gauge = Gauge::default();
        assert_eq!((gauge.claim(), gauge.claim()), (0, 1));
        assert_eq!(gauge.release(), 2);
        assert_eq!(gauge.get(), 1);
    }

    /// One thread bumps outer then inner as fast as it can; the other
    /// reads. No read may show more inner events than outer ones.
    #[test]
    fn count_pair_reads_never_show_inner_above_outer() {
        let pair = CountPair::default();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    pair.add_outer();
                    pair.add_inner();
                }
            });
            for _ in 0..50_000 {
                let (outer, inner) = pair.read();
                assert!(inner <= outer, "torn read: {inner} > {outer}");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let (outer, inner) = pair.read();
        assert_eq!(outer, inner, "quiescent: every outer event has its inner one");
    }

    #[test]
    fn ranked_locks_nest_upwards_and_recover_from_poison() {
        let outer: Mutex<10, Vec<u32>> = Mutex::new(vec![]);
        let inner: RwLock<20, u32> = RwLock::new(1);
        let mut held = Unlocked::new();
        let mut guard = outer.lock(&mut held);
        let (list, held_10) = guard.split();
        list.push(*inner.read(held_10));
        *inner.write(held_10) = 2;
        drop(guard);
        assert_eq!(*outer.lock(&mut held), [1]);

        let poisoned = Arc::new(Mutex::<10, u32>::new(3));
        let p = Arc::clone(&poisoned);
        let _ = std::thread::spawn(move || {
            let mut held = Unlocked::new();
            let _g = p.lock(&mut held);
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*poisoned.lock(&mut held), 3);
    }

    #[test]
    fn condvar_wait_hands_the_guard_back() {
        let ready: Arc<(Mutex<50, bool>, Condvar)> = Arc::default();
        let signal = Arc::clone(&ready);
        let t = std::thread::spawn(move || {
            *signal.0.lock(&mut Unlocked::new()) = true;
            signal.1.notify_all();
        });
        let mut held = Unlocked::new();
        let mut flag = ready.0.lock(&mut held);
        while !*flag {
            flag = ready.1.wait(flag);
        }
        drop(flag);
        t.join().unwrap();
        ready.1.notify_one();
    }
}
