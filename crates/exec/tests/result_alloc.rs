//! An answer's allocations do not grow with its rows: the in-tree tripwire
//! for the result path of the end-to-end benchmark's
//! `service.allocs_per_op` on `cold_scaled`, where answers run to
//! thousands of rows.
//!
//! With a warmed [`ExecScratch`], executing a plan that returns ten rows
//! and one that returns thousands makes the same number of allocation
//! calls: each projection's cells go into the scratch's warm buffers and
//! leave them in one allocation of their exact size, shared by every
//! column, and the distinct strings in one more. A plan whose only
//! projection is bound allocates the same bytes too, for it stores the
//! value once. Allocation calls and bytes are counted by a test-local
//! `#[global_allocator]` on the one thread the test runs (as in
//! `crates/service/tests/miss_alloc.rs`), so the gates repeat exactly and
//! cannot flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sqo_catalog::{example::figure21, Value};
use sqo_exec::{execute_with, plan_query, CostModel, ExecScratch, PhysicalPlan};
use sqo_query::{CompOp, Projection, QueryBuilder};
use sqo_storage::{Database, IntegrityOptions, ObjectId};

thread_local! {
    // `const` + `Cell<integer>`: no lazy initialization and no destructor,
    // so the allocator may touch these at any point of a thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Counts one call that hands out `bytes`.
fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

const CARGOES: usize = 3000;
const VEHICLES: usize = 6;

/// Cargo `i` has quantity `i` and is collected by vehicle `i % VEHICLES`.
/// One supplier supplies every cargo, and each vehicle has its own engine
/// and one shared driver, as the catalog's to-one, total ends require.
fn db() -> Database {
    let catalog = Arc::new(figure21().unwrap());
    let mut b = Database::builder(Arc::clone(&catalog));
    let class = |name| catalog.class_id(name).unwrap();
    let rel = |name| catalog.rel_id(name).unwrap();
    let supplier = b.insert(class("supplier"), vec![Value::str("s"), Value::str("x")]).unwrap();
    let license = [Value::Int(0), Value::Int(9), Value::Int(0)];
    let tuple = [Value::str("d"), Value::str("x"), Value::str("x")].into_iter().chain(license);
    let driver = b.insert(class("driver"), tuple.collect()).unwrap();
    for i in 0..VEHICLES as i64 {
        let vehicle = vec![Value::Int(i), Value::str("flatbed"), Value::Int(i % 3)];
        let vehicle = b.insert(class("vehicle"), vehicle).unwrap();
        let engine = b.insert(class("engine"), vec![Value::Int(i), Value::Int(1)]).unwrap();
        b.link(rel("eng_comp"), vehicle, engine).unwrap();
        b.link(rel("drives"), vehicle, driver).unwrap();
    }
    for i in 0..CARGOES as i64 {
        let cargo = vec![Value::Int(i), Value::str("dry goods"), Value::Int(i)];
        let cargo = b.insert(class("cargo"), cargo).unwrap();
        b.link(rel("collects"), cargo, ObjectId((i % VEHICLES as i64) as u32)).unwrap();
        b.link(rel("supplies"), cargo, supplier).unwrap();
    }
    b.finalize(IntegrityOptions).unwrap()
}

/// Cargoes with a quantity below `below`, joined to their vehicle.
fn plan(db: &Database, below: i64) -> PhysicalPlan {
    let q = QueryBuilder::new(db.catalog())
        .select("cargo.code")
        .select("cargo.desc")
        .select("vehicle.vehicle_no")
        .filter("cargo.quantity", CompOp::Lt, below)
        .via("collects")
        .build()
        .unwrap();
    plan_query(db, &q, &CostModel::default()).unwrap()
}

/// Cargoes with a quantity below `below`, projecting only `cargo.desc`,
/// bound to the one description every cargo has.
fn bound_plan(db: &Database, below: i64) -> PhysicalPlan {
    let mut q = QueryBuilder::new(db.catalog())
        .select("cargo.code")
        .filter("cargo.quantity", CompOp::Lt, below)
        .build()
        .unwrap();
    let desc = db.catalog().attr_ref("cargo", "desc").unwrap();
    q.projections = vec![Projection::bound(desc, Value::str("dry goods"))];
    plan_query(db, &q, &CostModel::default()).unwrap()
}

/// Allocation calls and bytes of one execution, and its row count.
fn counted(db: &Database, plan: &PhysicalPlan, scratch: &mut ExecScratch) -> (u64, u64, usize) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let (results, _) = execute_with(db, plan, scratch).unwrap();
    COUNTING.with(|c| c.set(false));
    (CALLS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes, results.len())
}

/// The counts of a 10-row and a 2,500-row execution of `plan`, on a scratch
/// both have warmed.
fn small_and_large(db: &Database, plan: fn(&Database, i64) -> PhysicalPlan) -> [(u64, u64); 2] {
    let (small, large) = (plan(db, 10), plan(db, 2500));
    let mut scratch = ExecScratch::new();
    for plan in [&large, &small] {
        execute_with(db, plan, &mut scratch).unwrap();
    }
    let (small_calls, small_bytes, small_rows) = counted(db, &small, &mut scratch);
    let (large_calls, large_bytes, large_rows) = counted(db, &large, &mut scratch);
    assert_eq!((small_rows, large_rows), (10, 2500));
    [(small_calls, small_bytes), (large_calls, large_bytes)]
}

#[test]
fn answer_allocations_do_not_grow_with_rows() {
    let [(small_calls, _), (large_calls, _)] = small_and_large(&db(), plan);
    assert_eq!(
        small_calls, large_calls,
        "10 rows took {small_calls} allocation calls, 2500 took {large_calls}"
    );
    assert_eq!(
        large_calls, 3,
        "an answer allocates its columns, one buffer of cells for all three, and its strings"
    );
}

#[test]
fn a_bound_projection_allocates_no_bytes_per_row() {
    let [small, large] = small_and_large(&db(), bound_plan);
    assert_eq!(small, large, "(calls, bytes) of 10 rows and of 2500");
    assert_eq!(small.0, 1, "an answer of one bound column allocates its columns alone");
}
