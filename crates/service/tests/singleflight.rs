//! Singleflight miss deduplication under real contention, plus the
//! invalidation-during-flight soundness case the flight key exists for.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_service::{QueryService, TryRun};
use sqo_workload::{paper_scenario, DbSize};

fn service() -> (Arc<QueryService>, Vec<sqo_query::Query>) {
    let s = paper_scenario(DbSize::Db1, 7);
    (Arc::new(QueryService::new(Arc::new(s.store), Arc::new(s.db))), s.queries)
}

/// N concurrent misses on one fingerprint run exactly one optimization.
///
/// Deterministic, not timing-dependent: the main thread takes the leader
/// guard and *holds it* while N threads register, so every one of them is
/// forced onto the follower path before the flight resolves.
#[test]
fn n_simultaneous_misses_run_one_optimization() {
    const FOLLOWERS: usize = 32;
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else {
        panic!("cold miss must lead")
    };

    // The barrier releases the main thread only after every spawned
    // thread has registered; while the guard is held the flight is pinned
    // in the table and the cache entry unpublished, so each registration
    // is *forced* onto the follower path — no timing dependence.
    let registered = Arc::new(std::sync::Barrier::new(FOLLOWERS + 1));
    let joined: Vec<_> = (0..FOLLOWERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let query = query.clone();
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || {
                let run = service.try_run(&query).unwrap();
                registered.wait();
                match run {
                    TryRun::Follower(waiter) => waiter.wait().unwrap(),
                    other => panic!("expected follower while the flight is open, got {other:?}"),
                }
            })
        })
        .collect();
    registered.wait();

    let stats = service.stats();
    assert_eq!(stats.optimizations, 0, "nothing optimized while the leader guard is held");

    let led = service.complete_miss(guard).unwrap();
    for handle in joined {
        let followed = handle.join().unwrap();
        assert!(followed.results.same_multiset(&led.results));
        assert_eq!(followed.epoch, led.epoch);
        assert_eq!(followed.data_epoch, led.data_epoch);
    }

    let stats = service.stats();
    assert_eq!(stats.optimizations, 1, "N simultaneous misses must share one optimization");
    assert_eq!(stats.singleflight_leaders, 1);
    assert_eq!(stats.singleflight_followers, FOLLOWERS as u64);
    assert_eq!(
        stats.accepted,
        stats.cache.hits + stats.cache.misses,
        "stats snapshot must stay self-consistent"
    );
}

/// A constraint inserted while a miss is in flight must not let the flight
/// publish an entry that serves at the *new* store version.
#[test]
fn invalidation_during_flight_never_publishes_a_stale_entry() {
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else { panic!() };
    let v0 = guard.key().version;

    // Mid-flight constraint insert overlapping the query's classes
    // (duplicating an existing constraint is semantics-preserving, so
    // answers must not move — only the cache validity may): the store
    // version moves past v0.
    let overlapping = service
        .store()
        .constraints()
        .find(|(_, c)| c.classes.iter().any(|cl| query.canonical().classes.contains(cl)))
        .map(|(_, c)| c.clone())
        .expect("some constraint touches the query's classes");
    service.add_constraint(overlapping).unwrap();
    let v1 = service.store_version();
    assert_ne!(v0, v1);

    // The leader completes against the store it registered under; its
    // published entry is stamped v0 and must not hit at v1.
    let led = service.complete_miss(guard).unwrap();
    assert_eq!(led.epoch, v0.epoch(), "flight answers at its registration epoch");

    match service.try_run(query).unwrap() {
        TryRun::Leader(guard) => {
            // Correct: the v1 lookup missed the v0-stamped entry and must
            // re-derive under the new constraints.
            let fresh = service.complete_miss(guard).unwrap();
            assert_eq!(fresh.epoch, v1.epoch());
        }
        TryRun::Done(r) => {
            panic!(
                "stale-version entry served after mid-flight invalidation \
                 (cache_hit={}, epoch={}, expected a miss at epoch {})",
                r.cache_hit,
                r.epoch,
                v1.epoch()
            );
        }
        TryRun::Follower(_) => panic!("no flight should be open"),
    }

    let stats = service.stats();
    assert_eq!(stats.optimizations, 2, "one per store version, never a stale share");
}

/// A leader whose flight registered after another request had already
/// published the plan serves that plan instead of optimizing again.
///
/// Deterministic: the leader guard is held while `prepare` misses, derives
/// and publishes the plan on its own (a plan-only request joins no
/// flight), which is what a request that missed just before an earlier
/// leader published and registered after that flight retired looks like.
#[test]
fn a_leader_that_registered_after_publication_does_not_optimize_again() {
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else {
        panic!("cold miss must lead")
    };
    assert!(!service.prepare(query).unwrap().cache_hit);
    assert_eq!(service.stats().optimizations, 1);

    let led = service.complete_miss(guard).unwrap();
    let stats = service.stats();
    assert_eq!(stats.optimizations, 1, "the plan was published before the leader ran: {stats:?}");
    assert!(led.cache_hit, "the leader served the published plan");
    assert_eq!(stats.singleflight_leaders, 1);
    assert_eq!(
        (stats.cache.lookups, stats.cache.hits),
        (2, 0),
        "the re-check is no lookup: {stats:?}"
    );
    let later = service.run(query).unwrap();
    assert!(later.cache_hit);
    assert!(Arc::ptr_eq(&later.results, &led.results), "the leader's rows are the memo");
    assert_eq!((led.epoch, led.data_epoch), (later.epoch, later.data_epoch));
}

/// `run` on a query whose flight another request leads follows that
/// flight: nothing more is optimized or executed, and every thread gets
/// the leader's rows.
///
/// Deterministic: the main thread holds the leader guard until every
/// thread has registered as a follower. The wait is bounded, so a `run`
/// that bypasses the flight table fails the test instead of hanging it.
#[test]
fn run_follows_an_open_flight() {
    const THREADS: usize = 8;
    let (service, queries) = service();
    let query = &queries[0];

    let TryRun::Leader(guard) = service.try_run(query).unwrap() else {
        panic!("cold miss must lead")
    };
    let runs: Vec<_> = (0..THREADS)
        .map(|_| {
            let (service, query) = (Arc::clone(&service), query.clone());
            std::thread::spawn(move || service.run(&query).unwrap())
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while service.stats().singleflight_followers < THREADS as u64 {
        assert!(Instant::now() < deadline, "run joined no flight: {:?}", service.stats());
        std::thread::sleep(Duration::from_millis(1));
    }

    let led = service.complete_miss(guard).unwrap();
    for run in runs {
        let followed = run.join().unwrap();
        assert!(Arc::ptr_eq(&followed.results, &led.results), "the leader's rows, shared");
        assert_eq!((followed.epoch, followed.data_epoch), (led.epoch, led.data_epoch));
    }
    let stats = service.stats();
    assert_eq!((stats.optimizations, stats.executions), (1, 1), "{stats:?}");
    assert_eq!((stats.singleflight_leaders, stats.singleflight_followers), (1, THREADS as u64));
}
