//! Singleflight miss deduplication: concurrent cache misses on the same
//! `(fingerprint, store version, data epoch)` coordinates share one
//! optimization instead of paying for N.
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
//! the calling thread when it does own one.
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
    /// verbatim with every follower (re-running would fail identically).
    Failed(ServiceError),
    /// The leader dropped its [`MissGuard`] without completing (panic or
    /// cancellation). The follower should re-register — the next
    /// registrant becomes the new leader.
    Aborted,
}

/// What a follower receives when its flight resolves.
pub type FlightResult = Result<ServiceResponse, FlightError>;

/// What a follower leaves behind instead of a parked thread. It is run
/// with the token of a thread that holds no lock, which is what keeps it
/// from ever being invoked under the flight's state guard.
type Continuation = Box<dyn FnOnce(&mut Unlocked, FlightResult) + Send + 'static>;

enum FlightState {
    /// Unresolved: the continuations to run with the outcome.
    Open(Vec<Continuation>),
    Resolved(FlightResult),
}

impl fmt::Debug for FlightState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightState::Open(waiting) => write!(f, "Open({} waiting)", waiting.len()),
            FlightState::Resolved(outcome) => f.debug_tuple("Resolved").field(outcome).finish(),
        }
    }
}

/// One in-flight miss: the leader publishes here, followers wait here.
#[derive(Debug)]
pub(crate) struct Flight {
    /// The canonical query, kept to disarm 64-bit fingerprint collisions
    /// exactly like the plan cache does.
    canonical: Query,
    state: Mutex<FLIGHT_STATE, FlightState>,
}

impl Flight {
    fn new(canonical: Query) -> Self {
        Self { canonical, state: Mutex::new(FlightState::Open(Vec::new())) }
    }

    /// Publishes the outcome and runs every registered continuation with
    /// it, on this thread, after the state lock is released. Idempotent
    /// (the first resolution wins).
    fn resolve(&self, held: &mut Unlocked, outcome: FlightResult) {
        let waiting = {
            let mut state = self.state.lock(held);
            match &mut *state {
                FlightState::Resolved(_) => return,
                FlightState::Open(waiting) => {
                    let waiting = std::mem::take(waiting);
                    *state = FlightState::Resolved(outcome.clone());
                    waiting
                }
            }
        };
        for continuation in waiting {
            continuation(held, outcome.clone());
        }
    }

    /// Runs `continuation` with the outcome exactly once: inline if the
    /// flight has resolved, otherwise from [`Flight::resolve`]. Checking
    /// the state and joining the list happen under one lock, so a
    /// resolution can never slip between them.
    fn on_resolved(
        &self,
        held: &mut Unlocked,
        continuation: impl FnOnce(&mut Unlocked, FlightResult) + Send + 'static,
    ) {
        let outcome = {
            let mut state = self.state.lock(held);
            match &mut *state {
                FlightState::Open(waiting) => {
                    waiting.push(Box::new(continuation));
                    return;
                }
                FlightState::Resolved(outcome) => outcome.clone(),
            }
        };
        continuation(held, outcome);
    }
}

/// How a [`FlightTable::register`] call landed.
#[derive(Debug)]
pub(crate) enum Registered {
    /// First registrant on these coordinates: run the miss pipeline.
    Leader(Arc<Flight>),
    /// A leader is already in flight: wait for its answer.
    Follower(Arc<Flight>),
    /// Same fingerprint, different canonical query (a 2⁻⁶⁴ hash
    /// collision): do not share; run the undeduplicated path.
    Collision,
}

/// The in-flight miss registry, shared by the plan cache and every
/// [`MissGuard`]/[`MissWaiter`] handed out from it.
#[derive(Debug, Default)]
pub(crate) struct FlightTable {
    flights: Mutex<SERVICE_FLIGHTS, HashMap<FlightKey, Arc<Flight>>>,
}

impl FlightTable {
    /// Registers interest in `key`: the first caller becomes the leader,
    /// everyone after it (until the flight resolves) a follower.
    pub(crate) fn register(&self, key: FlightKey, canonical: &Query) -> Registered {
        let mut held = Unlocked::new();
        let mut flights = self.flights.lock(&mut held);
        match flights.get(&key) {
            Some(flight) if flight.canonical == *canonical => {
                Registered::Follower(Arc::clone(flight))
            }
            Some(_) => Registered::Collision,
            None => {
                let flight = Arc::new(Flight::new(canonical.clone()));
                flights.insert(key, Arc::clone(&flight));
                Registered::Leader(flight)
            }
        }
    }

    /// Removes `flight` from the table (only if it is still the one
    /// registered — a successor flight on the same key is left alone) and
    /// resolves it. New registrants on the key start a fresh flight.
    fn retire(&self, key: FlightKey, flight: &Arc<Flight>, outcome: FlightResult) {
        let mut held = Unlocked::new();
        let mut flights = self.flights.lock(&mut held);
        if flights.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            flights.remove(&key);
        }
        drop(flights);
        flight.resolve(&mut held, outcome);
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
    canonical: Query,
    /// The store captured at registration: the leader derives under
    /// exactly the version its flight (and cache stamp) names, even if
    /// the service's store is swapped mid-flight.
    store: Arc<ConstraintStore>,
    table: Arc<FlightTable>,
    flight: Arc<Flight>,
    completed: bool,
}

impl MissGuard {
    pub(crate) fn new(
        key: FlightKey,
        canonical: Query,
        store: Arc<ConstraintStore>,
        table: Arc<FlightTable>,
        flight: Arc<Flight>,
    ) -> Self {
        Self { key, canonical, store, table, flight, completed: false }
    }

    /// The flight's coordinates.
    pub fn key(&self) -> FlightKey {
        self.key
    }

    /// The canonical query the leader must optimize.
    pub fn canonical(&self) -> &Query {
        &self.canonical
    }

    pub(crate) fn store(&self) -> &Arc<ConstraintStore> {
        &self.store
    }

    /// Retires the flight with `outcome`, resuming every follower.
    pub(crate) fn finish(mut self, outcome: FlightResult) {
        self.completed = true;
        self.table.retire(self.key, &self.flight, outcome);
    }
}

impl Drop for MissGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.table.retire(self.key, &self.flight, Err(FlightError::Aborted));
        }
    }
}

/// A follower's handle on an in-flight miss.
#[derive(Debug)]
pub struct MissWaiter {
    flight: Arc<Flight>,
}

impl MissWaiter {
    pub(crate) fn new(flight: Arc<Flight>) -> Self {
        Self { flight }
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
        self.flight.on_resolved(&mut Unlocked::new(), continuation);
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

    #[test]
    fn first_registrant_leads_rest_follow() {
        let table = Arc::new(FlightTable::default());
        let q = Query::new();
        let Registered::Leader(flight) = table.register(key(1), &q) else {
            panic!("first registrant must lead")
        };
        assert!(matches!(table.register(key(1), &q), Registered::Follower(_)));
        assert!(matches!(table.register(key(2), &q), Registered::Leader(_)));
        assert_eq!(table.len(), 2);
        table.retire(key(1), &flight, Ok(response()));
        assert_eq!(table.len(), 1);
        // After retirement the key is free again: a new leader, not a
        // follower of the resolved flight.
        assert!(matches!(table.register(key(1), &q), Registered::Leader(_)));
    }

    #[test]
    fn fingerprint_collisions_do_not_share() {
        let table = FlightTable::default();
        let q = Query::new();
        let mut other = Query::new();
        other.classes.push(sqo_catalog::ClassId(0));
        let _leader = table.register(key(7), &q);
        assert!(matches!(table.register(key(7), &other), Registered::Collision));
    }

    #[test]
    fn followers_wake_on_resolution_and_dropped_guards_abort() {
        let table = Arc::new(FlightTable::default());
        let q = Query::new();
        let Registered::Leader(flight) = table.register(key(1), &q) else { panic!() };
        let Registered::Follower(joined) = table.register(key(1), &q) else { panic!() };
        let waiter = MissWaiter::new(joined);
        let resolver = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.retire(key(1), &flight, Ok(response())))
        };
        assert!(waiter.wait().is_ok());
        resolver.join().unwrap();

        // A guard dropped without completion aborts its flight: a parked
        // continuation runs on the dropping thread, a blocked waiter wakes.
        let Registered::Leader(flight) = table.register(key(3), &q) else { panic!() };
        let Registered::Follower(parked) = table.register(key(3), &q) else { panic!() };
        let Registered::Follower(joined) = table.register(key(3), &q) else { panic!() };
        let (tx, rx) = std::sync::mpsc::channel();
        MissWaiter::new(parked).on_resolved(move |_, outcome| tx.send(outcome).unwrap());
        assert!(rx.try_recv().is_err(), "nothing runs while the flight is open");
        let guard =
            MissGuard::new(key(3), q.clone(), Arc::new(test_store()), Arc::clone(&table), flight);
        drop(guard);
        assert!(matches!(rx.try_recv(), Ok(Err(FlightError::Aborted))));
        assert!(matches!(MissWaiter::new(joined).wait(), Err(FlightError::Aborted)));
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
            let Registered::Leader(flight) = table.register(key(round), &q) else { panic!() };
            let runs: Arc<Vec<AtomicUsize>> =
                Arc::new((0..FOLLOWERS).map(|_| AtomicUsize::new(0)).collect());
            let start = std::sync::Barrier::new(FOLLOWERS + 1);
            std::thread::scope(|scope| {
                for i in 0..FOLLOWERS {
                    let waiter = MissWaiter::new(Arc::clone(&flight));
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
                table.retire(
                    key(round),
                    &flight,
                    Ok(ServiceResponse { epoch: round, ..response() }),
                );
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
        let Registered::Leader(flight) = table.register(key(1), &Query::new()) else { panic!() };
        table.retire(key(1), &flight, Ok(response()));
        let (tx, rx) = std::sync::mpsc::channel();
        MissWaiter::new(flight).on_resolved(move |_, outcome| {
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
