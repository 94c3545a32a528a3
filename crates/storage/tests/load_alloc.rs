//! A load allocates what it did when this figure was pinned: the exact-count
//! tripwire for throw-away work creeping back into
//! [`sqo_storage::DatabaseBuilder`]'s load.
//!
//! One load of a database of 2,000 objects per class in the benchmark's
//! attribute layout — the inserts, the links and `finalize`, which pages the
//! extents, builds the link tables, the declared indexes and the statistics
//! — is counted in allocator calls by a test-local `#[global_allocator]` on
//! the one thread the load runs on. The tuples are built before counting
//! starts. The count repeats exactly from run to run (a hash table grows by
//! the number of keys it holds, not by their hashes), so the test holds it
//! to one figure with `==` in both profiles: a change that moves load
//! allocations on purpose re-measures both (`cargo test -p sqo-storage
//! --test load_alloc` and the same with `--release` print the count on
//! failure) and edits `MEASURED`.
//!
//! The test also counts the distinct string allocations the loaded database
//! holds, which a load that makes strings canonical holds to one per
//! distinct string of an attribute (`STRING_ALLOCATIONS`). Canonicalizing
//! clones the key the load's own hashing pass stores, so it adds no
//! allocator call to `MEASURED`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use sqo_catalog::{
    AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, RelId, Value,
};
use sqo_storage::{AttrIndex, Database, IntegrityOptions, ObjectId};

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

const OBJECTS: u32 = 2_000;
const OWNED_BY: RelId = RelId(0);
const STOCKED_IN: RelId = RelId(1);

/// Allocator calls of the load below, the same in debug and release. It
/// was 21,704 before an indexed attribute's statistics were read off its
/// postings: each class also built a throw-away value → count map for each
/// of its three indexed attributes, of 2,000, 2,000 and 300 distinct values,
/// grown through 11, 11 and 8 tables — 90 calls over the three classes.
/// Scanning a class's four unindexed attributes in one pass holds their
/// maps in one vector, one call per class. It was 21,617 before extents
/// became columns: a class's 2,000 tuples then filled 16 pages of rows in
/// a vector grown through 10 allocations, 27 calls. Its seven columns fill
/// 7 × 16 pages, two calls each (the page-sized buffer a column fills and
/// the page it moves into), their page lists grow through 3 calls each and
/// are made page tables by one, and the column table takes 2: 254 calls, so
/// 227 more per class and 681 more for the three. It was 22,298 before link
/// tables became paged CSR: every non-empty adjacency list was its own
/// allocation — 2,000 + 2,000 left lists and 1,000 + 2,000 right lists —
/// where a side now takes one allocation per page of 128 lists. The 6,990
/// fewer calls are those 7,000 lists less the 10 more calls the flat
/// grouping buffers and the page buffers of the four sides make than the
/// per-object vectors and their outer vectors did. It was 15,308 before
/// columns held their attributes' declared types: a column's page of
/// `Value`s was filled in a buffer of its own and then copied into the
/// page, two calls per page, where a typed column fills one buffer for all
/// its pages and moves each into its page, one call per page and one per
/// column — 7 × 16 + 7 calls per class instead of 7 × 16 × 2, 315 fewer
/// for the three. Each of a class's four unindexed attributes now hands
/// its distinct values to the statistics in a vector of its own, 12 calls
/// more: 303 fewer in all. It was 15,005 before an index posting held a
/// single id inline (`index::Posting`): the 3 × 2,000 unique keys, and
/// every other key that names one object, no longer allocate a `Vec`
/// each; and a lineage keeps a write log beside its write epochs, one
/// call more (the lineage holds the log's lock and a pointer to the
/// slots, which are a second allocation). It was 3,906 before a posting of
/// two or more ids became one shared allocation of its length: each of a
/// class's 300 `b3` postings of six or seven ids grew a `Vec` through 3
/// calls (2, 4 and 8 ids) where it is now cut with one from a counting
/// sort, and each of the two grouped attributes (`a3` and `b3`; `key`
/// loads ascending) pays 3 calls for the sort's buffers and 10 and 8 for
/// its list of keys: 576 fewer per class, 1,728 fewer for the three.
const MEASURED: u64 = 2_178;

/// Distinct string allocations the loaded database holds, in its tuples,
/// index keys and statistics: one per distinct string of a (class,
/// attribute), 3 classes × (12 `kind`s + 9 `zone`s + 300 `tag`s). It was
/// 18,000 before the load made strings canonical in the passes that hash
/// them: each of the 3 × 3 × 2,000 string occurrences kept its own
/// allocation, which the index keys and the statistics shared.
const STRING_ALLOCATIONS: usize = 963;

/// The attribute layout of the benchmark schema (`sqo-workload`'s
/// `bench_catalog`): a unique hash-indexed key, a B-tree and a second hash
/// index, four plain attributes.
fn attributes() -> Vec<AttributeDef> {
    vec![
        AttributeDef::indexed("key", DataType::Int, IndexKind::Hash),
        AttributeDef::new("a1", DataType::Str),
        AttributeDef::new("a2", DataType::Int),
        AttributeDef::indexed("a3", DataType::Int, IndexKind::BTree),
        AttributeDef::new("b1", DataType::Str),
        AttributeDef::new("b2", DataType::Int),
        AttributeDef::indexed("b3", DataType::Str, IndexKind::Hash),
    ]
}

fn tuple(i: u32) -> Vec<Value> {
    let i = i64::from(i);
    vec![
        Value::Int(i),
        Value::str(format!("kind{}", i % 12)),
        Value::Int(i % 40),
        Value::Int(i * 7 % 5_000),
        Value::str(format!("zone{}", i % 9)),
        Value::Int(i / 3),
        Value::str(format!("tag{}", i % 300)),
    ]
}

#[test]
fn a_load_allocates_exactly_what_it_did() {
    let mut b = Catalog::builder();
    let classes = ["item", "owner", "shelf"].map(|c| b.class(c, attributes()).unwrap());
    let [item, owner, shelf] = classes;
    b.many_to_one("owned_by", item, owner).unwrap();
    b.relationship(
        "stocked_in",
        sqo_catalog::RelationshipEnd::new(item, sqo_catalog::Multiplicity::Many, false),
        sqo_catalog::RelationshipEnd::new(shelf, sqo_catalog::Multiplicity::Many, false),
    )
    .unwrap();
    let catalog = Arc::new(b.build().unwrap());
    let tuples: Vec<(ClassId, Vec<Value>)> =
        (0..OBJECTS).flat_map(|i| classes.map(|class| (class, tuple(i)))).collect();

    let before = CALLS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let mut load = Database::builder(catalog);
    for (class, tuple) in tuples {
        load.insert(class, tuple).unwrap();
    }
    for i in 0..OBJECTS {
        load.link(OWNED_BY, ObjectId(i), ObjectId(i / 2)).unwrap();
        load.link(STOCKED_IN, ObjectId(i), ObjectId(i)).unwrap();
        load.link(STOCKED_IN, ObjectId(i), ObjectId((i + 1) % OBJECTS)).unwrap();
    }
    let db = load.finalize(IntegrityOptions);
    COUNTING.with(|c| c.set(false));
    let calls = CALLS.with(Cell::get) - before;

    let db = db.unwrap();
    assert_eq!(db.cardinality(item), OBJECTS as usize);
    assert_eq!(db.stats(), &db.rebuild_statistics());
    assert_eq!(calls, MEASURED, "a load of 3 × {OBJECTS} objects made {calls} allocation calls");

    let mut held: HashSet<*const u8> = HashSet::new();
    let mut note = |v: &Value| {
        if let Value::Str(s) = v {
            held.insert(s.as_ptr());
        }
    };
    for class in classes {
        for attr in 0..attributes().len() {
            let attr = AttrRef::new(class, AttrId(attr as u32));
            db.column(attr).unwrap().iter().for_each(|v| note(&v));
            let index = db.index(attr);
            index.into_iter().flat_map(AttrIndex::entries).for_each(|(key, _)| note(key));
        }
    }
    for attr in db.stats().classes.iter().flat_map(|class| &class.attrs) {
        attr.min
            .iter()
            .chain(&attr.max)
            .chain(attr.mcvs.iter().map(|(v, _)| v))
            .for_each(&mut note);
    }
    assert_eq!(held.len(), STRING_ALLOCATIONS, "distinct string allocations the database holds");
}
