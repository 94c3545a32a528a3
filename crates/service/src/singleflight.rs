//! Singleflight miss deduplication: concurrent cache misses on the same
//! `(fingerprint, store version, data epoch)` coordinates share one
//! optimization instead of paying for N. Every miss takes this path:
//! [`crate::QueryService::run`]'s and the `sqo-frontend` worker pool's.
//!
//! The first request to miss registers itself as the **leader** and
//! receives a [`MissGuard`]; it runs the full optimize+plan+execute
//! pipeline exactly once ([`crate::QueryService::complete_miss`]) and
//! publishes the answer both into the plan cache and into the flight,
//! where every **follower** that registered in the meantime picks it up.
//! Followers never park an OS thread unless they want to: a follower
//! leaves a continuation with [`MissWaiter::on_resolved`] (how the
//! `sqo-frontend` worker pool carries thousands of waiting logical clients
//! on a fixed number of threads), or calls [`MissWaiter::wait`] to block
//! the calling thread, as `run` does. A thread that holds a [`MissGuard`]
//! must therefore not `run` the same query: it would wait on itself.
//!
//! A flight holds no copy of the query. The table is keyed by fingerprint,
//! and a follower holds its own canonical form, which its miss built
//! anyway: when the flight resolves, the follower is handed the leader's
//! outcome only if the leader's query has that canonical form
//! ([`Query::same_canonical`], the plan cache's rule). Two queries whose
//! fingerprints collide (2⁻⁶⁴) therefore never share an answer: the
//! follower sees [`FlightError::Aborted`] and asks again.
//!
//! Delivery is exact-once by one critical section: under the flight's
//! state lock a flight is either `Open`, holding its continuations, or
//! `Resolved`, holding the outcome — never both. Whoever flips it takes
//! the whole list and runs it after releasing the lock; whoever arrives
//! later finds the outcome and runs its own continuation inline.
//!
//! A leader that drops its guard without completing — a panic in the
//! optimizer, a caller that gives up — **aborts** the flight: followers
//! observe [`FlightError::Aborted`] and re-register, one of them becoming
//! the new leader, so a poisoned leader never wedges the requests queued
//! behind it.
//!
//! The flight key deliberately includes the **data epoch**: the leader's
//! answer is a fully executed [`ServiceResponse`], and a result set is
//! only shareable with followers that arrived under the same data-epoch
//! coordinates (the plan itself is additionally published to the plan
//! cache under the store version, where it outlives the flight).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use sqo_constraints::{ConstraintStore, StoreVersion};
use sqo_query::sync::{Mutex, Unlocked, FLIGHT_STATE, SERVICE_FLIGHTS};
use sqo_query::{Query, QueryFingerprint};

use crate::cache::{CacheEntry, Prehashing};
use crate::service::{ServiceError, ServiceResponse};

/// Identity of one in-flight miss: the full validity coordinates of the
/// answer the leader will publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlightKey {
    /// Canonical fingerprint of the missed query.
    pub fingerprint: QueryFingerprint,
    /// Constraint-store version the flight's rewrite is derived under.
    pub version: StoreVersion,
    /// Data epoch observed at registration (results computed by the
    /// leader are shared at-or-after this epoch).
    pub data_epoch: u64,
}

/// Why a follower's flight resolved without an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    /// The leader ran the pipeline and it failed; the error is shared
    /// verbatim with every follower of the same query (re-running would
    /// fail identically).
    Failed(ServiceError),
    /// The flight has no answer for this follower: the leader dropped its
    /// [`MissGuard`] without completing (panic or cancellation), or it
    /// answered another query with the same fingerprint. The follower
    /// should re-register — the next registrant becomes the new leader.
    Aborted,
}

/// What a follower receives when its flight resolves.
pub type FlightResult = Result<ServiceResponse, FlightError>;

/// What a follower leaves behind instead of a parked thread. It is run
/// with the token of a thread that holds no lock, which is what keeps it
/// from ever being invoked under the flight's state guard.
type Continuation = Box<dyn FnOnce(&mut Unlocked, FlightResult) + Send + 'static>;

/// How a flight ended: the leader's outcome, and the query it answers.
#[derive(Debug)]
pub(crate) struct Resolution {
    outcome: FlightResult,
    /// The entry the leader answered from, when it has one.
    entry: Option<Arc<CacheEntry>>,
    /// The leader's canonical query, while no entry holds it (its
    /// derivation failed, or it died first).
    canonical: Query,
}

impl Resolution {
    /// The outcome for a follower whose canonical query is `canonical`:
    /// the leader's if the leader's query is the same, else `Aborted`.
    fn outcome_for(&self, canonical: &Query) -> FlightResult {
        let answered = self.entry.as_ref().map_or(&self.canonical, |entry| &entry.canonical);
        if canonical.same_canonical(answered) {
            self.outcome.clone()
        } else {
            Err(FlightError::Aborted)
        }
    }
}

enum FlightState {
    /// Unresolved: each waiting follower's canonical query and continuation.
    Open(Vec<(Query, Continuation)>),
    Resolved(Resolution),
}

impl fmt::Debug for FlightState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightState::Open(waiting) => write!(f, "Open({} waiting)", waiting.len()),
            FlightState::Resolved(done) => f.debug_tuple("Resolved").field(done).finish(),
        }
    }
}

/// One in-flight miss: the leader publishes here, followers wait here.
#[derive(Debug)]
pub(crate) struct Flight {
    state: Mutex<FLIGHT_STATE, FlightState>,
}

impl Flight {
    /// Publishes the resolution and runs every registered continuation
    /// with its follower's outcome, on this thread, after the state lock is
    /// released. Idempotent (the first resolution wins).
    fn resolve(&self, held: &mut Unlocked, resolution: Resolution) {
        let ready: Vec<_> = {
            let mut state = self.state.lock(held);
            let FlightState::Open(waiting) = &mut *state else { return };
            let ready = std::mem::take(waiting)
                .into_iter()
                .map(|(canonical, continuation)| (continuation, resolution.outcome_for(&canonical)))
                .collect();
            *state = FlightState::Resolved(resolution);
            ready
        };
        for (continuation, outcome) in ready {
            continuation(held, outcome);
        }
    }

    /// Runs `continuation` with the outcome for `canonical` exactly once:
    /// inline if the flight has resolved, otherwise from
    /// [`Flight::resolve`]. Checking the state and joining the list happen
    /// under one lock, so a resolution can never slip between them.
    fn on_resolved(
        &self,
        held: &mut Unlocked,
        canonical: Query,
        continuation: impl FnOnce(&mut Unlocked, FlightResult) + Send + 'static,
    ) {
        let outcome = {
            let mut state = self.state.lock(held);
            match &mut *state {
                FlightState::Open(waiting) => {
                    waiting.push((canonical, Box::new(continuation)));
                    return;
                }
                FlightState::Resolved(resolution) => resolution.outcome_for(&canonical),
            }
        };
        continuation(held, outcome);
    }
}

/// The in-flight miss registry, shared by the service and every
/// [`MissGuard`] handed out from it: one flight per fingerprint, keyed by
/// it with the plan cache's identity hasher, beside the full coordinates
/// it answers.
#[derive(Debug, Default)]
pub(crate) struct FlightTable {
    flights:
        Mutex<SERVICE_FLIGHTS, HashMap<QueryFingerprint, (FlightKey, Arc<Flight>), Prehashing>>,
}

impl FlightTable {
    /// Registers interest in `key`: the flight, and whether the caller
    /// leads it. The first caller becomes the leader and runs the miss
    /// pipeline; everyone after it (until the flight resolves) follows, and
    /// waits for the leader's answer. A miss at other coordinates of the
    /// same fingerprint (a later data epoch or store version) leads a
    /// flight of its own, which takes the slot; the flight it displaces
    /// still resolves the followers it has.
    pub(crate) fn register(&self, key: FlightKey) -> (Arc<Flight>, bool) {
        let mut held = Unlocked::new();
        let mut flights = self.flights.lock(&mut held);
        if let Some((_, flight)) = flights.get(&key.fingerprint).filter(|(at, _)| *at == key) {
            return (Arc::clone(flight), false);
        }
        let flight = Arc::new(Flight { state: Mutex::new(FlightState::Open(Vec::new())) });
        flights.insert(key.fingerprint, (key, Arc::clone(&flight)));
        (flight, true)
    }

    /// Removes `flight` from the table (only if it is still the one
    /// registered — a successor flight on the same fingerprint is left
    /// alone) and resolves it. New registrants start a fresh flight.
    fn retire(&self, key: FlightKey, flight: &Arc<Flight>, resolution: Resolution) {
        let mut held = Unlocked::new();
        let mut flights = self.flights.lock(&mut held);
        if flights.get(&key.fingerprint).is_some_and(|(_, f)| Arc::ptr_eq(f, flight)) {
            flights.remove(&key.fingerprint);
        }
        drop(flights);
        flight.resolve(&mut held, resolution);
    }

    /// Number of flights currently in the table (diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.flights.lock(&mut Unlocked::new()).len()
    }
}

/// The leader's obligation: a registered miss whose optimization this
/// request must run (via [`crate::QueryService::complete_miss`]).
///
/// Dropping the guard without completing aborts the flight — followers
/// are resumed with [`FlightError::Aborted`] and re-register, so a leader
/// that panics mid-optimization never strands them.
#[derive(Debug)]
pub struct MissGuard {
    key: FlightKey,
    /// The leader's canonical query, until its derivation moves it into
    /// the entry it publishes.
    pub(crate) canonical: Query,
    /// The store captured at registration: the leader derives under
    /// exactly the version its flight (and cache stamp) names, even if
    /// the service's store is swapped mid-flight.
    pub(crate) store: Arc<ConstraintStore>,
    table: Arc<FlightTable>,
    flight: Arc<Flight>,
    completed: bool,
}

impl MissGuard {
    pub(crate) fn new(
        key: FlightKey,
        canonical: Query,
        store: Arc<ConstraintStore>,
        table: &Arc<FlightTable>,
        flight: Arc<Flight>,
    ) -> Self {
        Self { key, canonical, store, table: Arc::clone(table), flight, completed: false }
    }

    /// The flight's coordinates.
    pub fn key(&self) -> FlightKey {
        self.key
    }

    /// Retires the flight with `outcome`, answered from `entry` when the
    /// leader has one, resuming every follower.
    pub(crate) fn finish(mut self, outcome: FlightResult, entry: Option<Arc<CacheEntry>>) {
        self.completed = true;
        self.retire(outcome, entry);
    }

    fn retire(&mut self, outcome: FlightResult, entry: Option<Arc<CacheEntry>>) {
        let canonical = std::mem::take(&mut self.canonical);
        self.table.retire(self.key, &self.flight, Resolution { outcome, entry, canonical });
    }
}

impl Drop for MissGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.retire(Err(FlightError::Aborted), None);
        }
    }
}

/// A follower's handle on an in-flight miss, holding the follower's own
/// canonical query to check the leader's answer against.
#[derive(Debug)]
pub struct MissWaiter {
    flight: Arc<Flight>,
    canonical: Query,
}

impl MissWaiter {
    pub(crate) fn new(flight: Arc<Flight>, canonical: Query) -> Self {
        Self { flight, canonical }
    }

    /// Non-blocking: hands the flight `continuation`, to be run exactly
    /// once with the outcome — inline if the flight has already resolved,
    /// otherwise by the thread that resolves it (the leader finishing
    /// [`crate::QueryService::complete_miss`], or dropping its guard). A
    /// waiting follower therefore costs no thread; in exchange the
    /// continuation runs on somebody else's time and must stay short and
    /// non-blocking: complete a slot, push a queue entry, send on a channel.
    /// It receives the [`Unlocked`] token of that thread, which holds no
    /// lock of this workspace while it runs.
    pub fn on_resolved(
        self,
        continuation: impl FnOnce(&mut Unlocked, FlightResult) + Send + 'static,
    ) {
        self.flight.on_resolved(&mut Unlocked::new(), self.canonical, continuation);
    }

    /// Blocks the calling thread until the flight resolves — the
    /// synchronous counterpart of [`MissWaiter::on_resolved`].
    pub fn wait(self) -> FlightResult {
        let (tx, rx) = std::sync::mpsc::channel();
        self.on_resolved(move |_, outcome| {
            let _ = tx.send(outcome);
        });
        // A flight dropped unresolved took its leader with it.
        rx.recv().unwrap_or(Err(FlightError::Aborted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_exec::ResultSet;

    fn key(fp: u64) -> FlightKey {
        static VERSION: std::sync::OnceLock<StoreVersion> = std::sync::OnceLock::new();
        let version = *VERSION.get_or_init(|| test_store().version());
        FlightKey { fingerprint: QueryFingerprint(fp), version, data_epoch: 0 }
    }

    fn response() -> ServiceResponse {
        ServiceResponse {
            results: Arc::new(ResultSet::new(vec![])),
            cache_hit: false,
            epoch: 0,
            data_epoch: 0,
        }
    }

    /// A leader's resolution of a query with no entry: `outcome` answers
    /// `canonical`.
    fn resolved(outcome: FlightResult, canonical: &Query) -> Resolution {
        Resolution { outcome, entry: None, canonical: canonical.clone() }
    }

    #[test]
    fn first_registrant_leads_rest_follow() {
        let table = Arc::new(FlightTable::default());
        let q = Query::new();
        let (flight, true) = table.register(key(1)) else { panic!("first registrant must lead") };
        assert!(!table.register(key(1)).1);
        let (second, true) = table.register(key(2)) else { panic!() };
        assert_eq!(table.len(), 2);
        table.retire(key(1), &flight, resolved(Ok(response()), &q));
        assert_eq!(table.len(), 1);
        // After retirement the key is free again: a new leader, not a
        // follower of the resolved flight.
        assert!(table.register(key(1)).1);

        // Other coordinates of a fingerprint lead a flight of their own,
        // which takes the slot; retiring the displaced one leaves it there.
        let later = FlightKey { data_epoch: 1, ..key(2) };
        let (successor, true) = table.register(later) else { panic!("a later epoch leads") };
        assert!(!table.register(later).1);
        table.retire(key(2), &second, resolved(Ok(response()), &q));
        assert!(!table.register(later).1, "the successor is still in flight");
        table.retire(later, &successor, resolved(Ok(response()), &q));
        assert_eq!(table.len(), 1);
    }

    /// Two queries with one fingerprint share a flight, but not its answer:
    /// the follower whose query is not the leader's is told to ask again.
    #[test]
    fn fingerprint_collisions_do_not_share() {
        let table = FlightTable::default();
        let q = Query::new();
        let mut other = Query::new();
        other.classes.push(sqo_catalog::ClassId(0));
        let (flight, true) = table.register(key(7)) else { panic!() };
        let (same, false) = table.register(key(7)) else { panic!() };
        let (collided, false) = table.register(key(7)) else { panic!() };
        let (same, collided) = (MissWaiter::new(same, q.clone()), MissWaiter::new(collided, other));
        table.retire(key(7), &flight, resolved(Ok(response()), &q));
        assert!(same.wait().is_ok());
        assert!(matches!(collided.wait(), Err(FlightError::Aborted)));
    }

    #[test]
    fn followers_wake_on_resolution_and_dropped_guards_abort() {
        let table = Arc::new(FlightTable::default());
        let q = Query::new();
        let (flight, true) = table.register(key(1)) else { panic!() };
        let (joined, false) = table.register(key(1)) else { panic!() };
        let waiter = MissWaiter::new(joined, q.clone());
        let resolver = {
            let (table, resolution) = (Arc::clone(&table), resolved(Ok(response()), &q));
            std::thread::spawn(move || table.retire(key(1), &flight, resolution))
        };
        assert!(waiter.wait().is_ok());
        resolver.join().unwrap();

        // A guard dropped without completion aborts its flight: a parked
        // continuation runs on the dropping thread, a blocked waiter wakes.
        let (flight, true) = table.register(key(3)) else { panic!() };
        let (parked, false) = table.register(key(3)) else { panic!() };
        let (joined, false) = table.register(key(3)) else { panic!() };
        let (tx, rx) = std::sync::mpsc::channel();
        MissWaiter::new(parked, q.clone()).on_resolved(move |_, outcome| tx.send(outcome).unwrap());
        assert!(rx.try_recv().is_err(), "nothing runs while the flight is open");
        let guard = MissGuard::new(key(3), q.clone(), Arc::new(test_store()), &table, flight);
        drop(guard);
        assert!(matches!(rx.try_recv(), Ok(Err(FlightError::Aborted))));
        assert!(matches!(MissWaiter::new(joined, q).wait(), Err(FlightError::Aborted)));
        assert_eq!(table.len(), 0, "aborted flights leave the table");
    }

    /// `on_resolved` from several threads racing `retire` from another:
    /// whichever side of the state lock a registration lands on, its
    /// continuation runs exactly once, with the published outcome.
    #[test]
    fn continuations_racing_resolution_run_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const FOLLOWERS: usize = 4;
        let table = FlightTable::default();
        let q = Query::new();
        for round in 0..500u64 {
            let (flight, true) = table.register(key(round)) else { panic!() };
            let runs: Arc<Vec<AtomicUsize>> =
                Arc::new((0..FOLLOWERS).map(|_| AtomicUsize::new(0)).collect());
            let start = std::sync::Barrier::new(FOLLOWERS + 1);
            std::thread::scope(|scope| {
                for i in 0..FOLLOWERS {
                    let waiter = MissWaiter::new(Arc::clone(&flight), q.clone());
                    let (runs, start) = (Arc::clone(&runs), &start);
                    scope.spawn(move || {
                        start.wait();
                        waiter.on_resolved(move |_, outcome| {
                            assert_eq!(outcome.unwrap().epoch, round, "the published outcome");
                            runs[i].fetch_add(1, Ordering::SeqCst);
                        });
                    });
                }
                start.wait();
                let outcome = Ok(ServiceResponse { epoch: round, ..response() });
                table.retire(key(round), &flight, resolved(outcome, &q));
            });
            // Early registrations ran inside `retire`, late ones inline on
            // their own thread; both have returned by now.
            for run in runs.iter() {
                assert_eq!(run.load(Ordering::SeqCst), 1, "round {round}");
            }
        }
    }

    #[test]
    fn a_continuation_registered_after_resolution_runs_inline() {
        let table = FlightTable::default();
        let q = Query::new();
        let (flight, true) = table.register(key(1)) else { panic!() };
        table.retire(key(1), &flight, resolved(Ok(response()), &q));
        let (tx, rx) = std::sync::mpsc::channel();
        MissWaiter::new(flight, q).on_resolved(move |_, outcome| {
            tx.send((std::thread::current().id(), outcome)).unwrap()
        });
        let (ran_on, outcome) = rx.try_recv().expect("ran before on_resolved returned");
        assert_eq!(ran_on, std::thread::current().id());
        assert!(outcome.is_ok());
    }

    fn test_store() -> ConstraintStore {
        let catalog = Arc::new(sqo_catalog::example::figure21().unwrap());
        ConstraintStore::build(
            Arc::clone(&catalog),
            vec![],
            sqo_constraints::StoreOptions::paper_defaults(),
        )
        .unwrap()
    }
}
