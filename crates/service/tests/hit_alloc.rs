//! A plan-cache hit allocates nothing: the in-tree tripwire for the
//! end-to-end benchmark's `service.allocs_per_op` on `warm_zipf`, where
//! every request is a memoized hit.
//!
//! The hit path looks the request up as spelled — its fingerprint and the
//! slot check read any spelling, so no canonical copy is built — and a
//! memoized answer is shared by `Arc`. Every spelling below is a different
//! one from the query that filled the cache (each list part reversed, one
//! class listed twice), through each entry point that can hit: `run`,
//! `try_run` and `prepare`. Allocation calls are counted by a test-local
//! `#[global_allocator]` on the one thread the test runs, as in
//! `miss_alloc.rs`; the figure is exactly zero in either profile. So is a
//! hit whose memo is checked against the write log after a write to a
//! class its plan binds, and kept.

#[path = "common/paper_pool.rs"]
mod paper_pool;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig, TryRun};
use sqo_workload::{dup_safe_classes, MixedApplier, WriteKind};

thread_local! {
    // `const` + `Cell<integer>`: no lazy initialization and no destructor,
    // so the allocator may touch these at any point of a thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Distinct queries cached, then hit once per entry point.
const POOL: usize = 64;

/// Allocation calls made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    CALLS.with(Cell::get) - before
}

/// Another spelling of `q`: every list part reversed, its first class
/// listed a second time.
fn respelled(q: &Query) -> Query {
    let mut s = q.clone();
    s.projections.reverse();
    s.join_predicates.reverse();
    s.selective_predicates.reverse();
    s.relationships.reverse();
    s.classes.reverse();
    s.classes.extend(q.classes.first().copied());
    s
}

#[test]
fn a_respelled_hit_allocates_nothing() {
    let (store, db, pool) = paper_pool::paper_pool(POOL);
    let service = QueryService::with_config(store, db, ServiceConfig::default());
    for q in &pool {
        service.run(q).unwrap();
    }
    let warmed = service.stats();
    let spellings: Vec<Query> = pool.iter().map(respelled).collect();
    assert!(spellings.iter().all(|s| *s != s.canonical()), "every spelling is a new one");

    let run = allocations(|| {
        for s in &spellings {
            assert!(service.run(s).unwrap().cache_hit);
        }
    });
    let try_run = allocations(|| {
        for s in &spellings {
            match service.try_run(s).unwrap() {
                TryRun::Done(response) => assert!(response.cache_hit),
                _ => panic!("a hit is answered inline"),
            }
        }
    });
    let prepare = allocations(|| {
        for s in &spellings {
            assert!(service.prepare(s).unwrap().cache_hit);
        }
    });
    assert_eq!((run, try_run, prepare), (0, 0, 0), "allocator calls over {POOL} hits each");

    let stats = service.stats();
    assert_eq!(stats.optimizations, POOL as u64, "only the warm-up missed");
    assert_eq!(stats.executions, warmed.executions, "every hit was answered from its memo");
    assert_eq!(stats.cache.hits, 3 * POOL as u64);
}

/// A memo kept across a write to a class its plan binds is checked against
/// the write log and re-stamped: that allocates nothing either.
#[test]
fn a_memo_kept_across_a_write_it_cannot_reach_allocates_nothing() {
    let (store, db, pool) = paper_pool::paper_pool(POOL);
    let service = QueryService::with_config(store, db, ServiceConfig::default());
    for q in &pool {
        service.run(q).unwrap();
    }
    let writable = dup_safe_classes(service.db().catalog());
    let mut applier = MixedApplier::new(&service.db());
    let mut kept = 0;
    for (rank, &class) in writable.iter().enumerate() {
        let kind = WriteKind::InsertDup { class, source_rank: rank as u32 };
        let (class, victim, batch) = applier.resolve(&service.db(), &kind);
        let outcome = service.write(&batch).unwrap();
        applier.confirm(class, victim, &outcome.receipt);
        for q in &pool {
            let plan = service.prepare(q).unwrap().plan().cloned();
            let binds = plan.is_some_and(|plan| plan.bound_classes().any(|c| c == class));
            let executions = service.stats().executions;
            let calls = allocations(|| {
                service.run(q).unwrap();
            });
            if binds && service.stats().executions == executions {
                assert_eq!(calls, 0, "a memo kept across a write to {class:?}");
                kept += 1;
            }
        }
    }
    assert!(kept > 0, "some write reached a bound class and left its memo valid");
}
