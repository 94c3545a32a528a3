//! A write allocates for what it touches, not for the class it touches: the
//! deterministic tripwire for O(class) work creeping back into
//! [`Database::with_writes`].
//!
//! On 20,000 objects per class — the size at which the end-to-end benchmark
//! found a one-object insert allocating 18 MB — the bytes a write requests
//! from the allocator are counted by a test-local `#[global_allocator]` and
//! held to fixed budgets. Byte counts repeat exactly from run to run, so
//! unlike a timing tolerance this gate cannot flake; it runs with the rest of
//! the crate's tests, in CI also under `--release`.
//!
//! The first write to a class is exempt by design: it scans the class once
//! to build the value counts of its unindexed attributes, which every later
//! write patches.
//!
//! A second database, one class whose one indexed attribute holds four
//! values of 5,000 objects each, holds a write to about the postings it
//! rebuilds: a copied index page shares every other posting on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sqo_catalog::{
    AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, RelId, Value,
};
use sqo_storage::{DataWrite, Database, IntegrityOptions, ObjectId};

thread_local! {
    // `const` + `Cell<integer>`: no lazy initialization and no destructor,
    // so the allocator may touch these at any point of a thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note(size: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.with(|c| c.set(c.get() + size as u64));
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

/// `f`'s result and the bytes it requested from the allocator on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get) - before)
}

const OBJECTS: u32 = 20_000;
const ITEM: ClassId = ClassId(0);
const OWNED_BY: RelId = RelId(0);
const STOCKED_IN: RelId = RelId(1);
/// `item.a2`: an integer with a few distinct values and no index.
const UNINDEXED: AttrId = AttrId(2);

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

/// Three classes of [`OBJECTS`] objects; every item has one owner
/// (many-to-one, total) and sits in two shelves (many-to-many).
fn database() -> Database {
    let mut b = Catalog::builder();
    let [item, owner, shelf] =
        ["item", "owner", "shelf"].map(|c| b.class(c, attributes()).unwrap());
    b.many_to_one("owned_by", item, owner).unwrap();
    b.relationship(
        "stocked_in",
        sqo_catalog::RelationshipEnd::new(item, sqo_catalog::Multiplicity::Many, false),
        sqo_catalog::RelationshipEnd::new(shelf, sqo_catalog::Multiplicity::Many, false),
    )
    .unwrap();
    let mut db = Database::builder(Arc::new(b.build().unwrap()));
    for i in 0..OBJECTS {
        for class in [item, owner, shelf] {
            db.insert(class, tuple(i)).unwrap();
        }
    }
    for i in 0..OBJECTS {
        db.link(OWNED_BY, ObjectId(i), ObjectId(i / 2)).unwrap();
        db.link(STOCKED_IN, ObjectId(i), ObjectId(i)).unwrap();
        db.link(STOCKED_IN, ObjectId(i), ObjectId((i + 1) % OBJECTS)).unwrap();
    }
    db.finalize(IntegrityOptions).unwrap()
}

/// An item like item `like`, linked to the same owner and shelves.
fn insert_like(db: &Database, like: u32) -> DataWrite {
    let links = [OWNED_BY, STOCKED_IN]
        .into_iter()
        .flat_map(|rel| {
            db.traverse(rel, ITEM, ObjectId(like)).unwrap().iter().map(move |o| (rel, *o))
        })
        .collect();
    DataWrite::Insert { class: ITEM, tuple: db.tuple(ITEM, ObjectId(like)).unwrap(), links }
}

#[test]
fn a_write_allocates_for_what_it_touches() {
    let base = database();
    // The first write to `item` builds its value counts.
    let (db, _) = base.with_writes(&[insert_like(&base, 0)], None).unwrap();

    // An insert copies pages and their tables: the last page of each of the
    // extent's columns, of the link sides, and per attribute of its index or
    // its value counts.
    let insert = [insert_like(&db, 4_321)];
    let (next, bytes) = counted(|| db.with_writes(&insert, None));
    let (next, receipt) = next.unwrap();
    assert_eq!(receipt.inserted, vec![ObjectId(OBJECTS + 1)]);
    // Measured 60,713 B, the same in both profiles. It was 80,653 B before
    // a posting of two or more ids became one shared allocation: the copy
    // of the `b3` index page the new item's tag sits on cloned every
    // posting of ~67 ids on it, and the `a3` page every posting of four,
    // where a copy now clones one pointer per posting and rebuilds only the
    // two postings written. (95,009 B before link tables became paged CSR:
    // a link side's page copy cloned the 128 lists it held, where a CSR
    // page is rebuilt as one allocation; 92,125 B before columns held their
    // declared types: the last page of each of the four `Int` columns is
    // 1 KiB of `i64`s and of each of the three `Str` columns 2 KiB of
    // pointers, where a page of `Value`s was 3 KiB.)
    assert!(bytes <= 64 << 10, "a one-object insert allocated {bytes} B");

    // An update of an unindexed attribute leaves every index shared: one
    // page of the attribute's column, one page of its counts, their tables.
    let update = [DataWrite::Update {
        class: ITEM,
        object: ObjectId(9_876),
        attr: UNINDEXED,
        value: Value::Int(41),
    }];
    let (after, bytes) = counted(|| next.with_writes(&update, None));
    let (after, _) = after.unwrap();
    // Measured 12,977 B in both profiles (14,969 B before columns held
    // their declared types: the copied page of the `Int` column is 1 KiB,
    // not 3); an update touches no link table.
    assert!(bytes <= 64 << 10, "a one-attribute update allocated {bytes} B");
    assert_eq!(after.stats(), &after.rebuild_statistics());
}

/// `pupil.grade`'s distinct values: over [`OBJECTS`] pupils, four postings
/// of 5,000 ids each, all on one page of the index.
const GRADES: u32 = 4;
const PUPIL: ClassId = ClassId(0);
const GRADE: AttrId = AttrId(0);
const GRADE_OF: AttrRef = AttrRef { class: PUPIL, attr: GRADE };

/// One class of [`OBJECTS`] pupils with one attribute, an indexed grade
/// of [`GRADES`] values, so no write keeps value counts and little but the
/// index is written.
fn graded() -> Database {
    let mut b = Catalog::builder();
    b.class("pupil", vec![AttributeDef::indexed("grade", DataType::Int, IndexKind::BTree)])
        .unwrap();
    let mut db = Database::builder(Arc::new(b.build().unwrap()));
    for i in 0..OBJECTS {
        db.insert(PUPIL, vec![Value::Int((i % GRADES).into())]).unwrap();
    }
    db.finalize(IntegrityOptions).unwrap()
}

/// The bytes of a posting of `ids` ids: the ids and the two reference
/// counts of their shared allocation.
fn posting_bytes(ids: u32) -> u64 {
    u64::from(ids) * 4 + 16
}

#[test]
fn a_write_copies_the_posting_it_changes_not_the_page_around_it() {
    let base = graded();
    let pupil = |grade: u32| DataWrite::Insert {
        class: PUPIL,
        tuple: vec![Value::Int(grade.into())],
        links: vec![],
    };
    let (db, _) = base.with_writes(&[pupil(0)], None).unwrap();
    let grade =
        |db: &Database, g: u32| db.index(GRADE_OF).unwrap().probe_eq(&Value::Int(g.into())).len();

    // An insert into grade 1 rebuilds that one posting of 5,001 ids; the
    // other three postings on its page are shared, not copied.
    let insert = [pupil(1)];
    let (next, bytes) = counted(|| db.with_writes(&insert, None));
    let (next, _) = next.unwrap();
    assert_eq!((grade(&next, 1), grade(&db, 1)), (5_001, 5_000));
    // Measured 23,325 B: the posting's 20,020 B; the rest is the column's
    // last page, the index page and their tables. It was 123,337 B while a page copy cloned
    // every posting on the page (80 KB) and the written one then grew.
    let posting = posting_bytes(5_001);
    assert!(bytes <= posting + (8 << 10), "an insert into a grade allocated {bytes} B");

    // An update from grade 2 to grade 3 rebuilds those two postings.
    let update = [DataWrite::Update {
        class: PUPIL,
        object: ObjectId(2),
        attr: GRADE,
        value: Value::Int(3),
    }];
    let (after, bytes) = counted(|| next.with_writes(&update, None));
    let (after, _) = after.unwrap();
    assert_eq!((grade(&after, 2), grade(&after, 3)), (4_999, 5_001));
    // Measured 43,441 B (123,441 B while a page copy cloned every posting).
    let postings = posting_bytes(4_999) + posting_bytes(5_001);
    assert!(bytes <= postings + (8 << 10), "a grade update allocated {bytes} B");
    assert_eq!(after.stats(), &after.rebuild_statistics());
}
