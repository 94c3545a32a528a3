//! Every string a database holds is canonical: within one attribute of one
//! class, equal strings are one allocation, and an index's keys are the
//! allocations its class's tuples hold.
//!
//! A cold load makes them so in the passes that already hash every value
//! (an indexed attribute's grouping, the unindexed attributes' counting
//! scan), a snapshot load shares the EXTENTS dictionary with the index keys,
//! and a write takes the key its index or counts already hold for the value
//! it writes. The property builds a database whose every string occurrence
//! is a fresh `Arc`, loads it cold and through a snapshot at both levels,
//! and applies arbitrary insert, update and delete batches whose strings
//! are fresh `Arc`s too, both copy-on-write (`with_writes`) and from scratch
//! (`with_writes_full`). After the load and after every batch, each string
//! attribute is checked by pointer, and the statistics still equal a
//! from-scratch scan.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

use sqo_catalog::{AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, Value};
use sqo_snapshot::ValidationLevel;
use sqo_storage::{decode_database, encode_database, Column, DataWrite, Database, ObjectId};

const CLASSES: u32 = 2;

/// Per class: a unique string key (loaded in key order, so the index build
/// takes its ungrouped path), a hash- and a B-tree-indexed string, two
/// unindexed strings (one counting scan covers both) and an integer.
fn catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    for c in 0..CLASSES {
        b.class(
            format!("c{c}"),
            vec![
                AttributeDef::indexed("key", DataType::Str, IndexKind::Hash),
                AttributeDef::indexed("tag", DataType::Str, IndexKind::Hash),
                AttributeDef::indexed("name", DataType::Str, IndexKind::BTree),
                AttributeDef::new("note", DataType::Str),
                AttributeDef::new("zone", DataType::Str),
                AttributeDef::new("n", DataType::Int),
            ],
        )
        .unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// A fresh allocation for the `i`-th string of a vocabulary.
fn fresh(prefix: &str, i: u32) -> Value {
    Value::str(format!("{prefix}{i}"))
}

/// The tuple of object `key` whose other strings are the vocabulary's
/// `picks`, each a fresh allocation.
fn tuple(key: u32, picks: Picks) -> Vec<Value> {
    vec![
        fresh("k", 10_000 + key),
        fresh("t", picks.0),
        fresh("m", picks.1),
        fresh("x", picks.2),
        fresh("z", picks.3),
        Value::Int(i64::from(picks.0)),
    ]
}

/// Indexes into the vocabulary, one per non-key string attribute.
type Picks = (u32, u32, u32, u32);

#[derive(Debug, Clone)]
enum RawWrite {
    Insert {
        class: u32,
        key: u32,
        picks: Picks,
    },
    /// Object `oid` modulo the class's cardinality; attribute `attr` of the
    /// five strings.
    Update {
        class: u32,
        oid: u32,
        attr: usize,
        pick: u32,
    },
    Delete {
        class: u32,
        oid: u32,
    },
}

/// Picks below `VOCAB`, to be taken modulo a case's vocabulary.
fn picks() -> impl Strategy<Value = Picks> {
    (0..VOCAB, 0..VOCAB, 0..VOCAB, 0..VOCAB)
}

/// The largest vocabulary: more distinct values than a value-map page holds.
const VOCAB: u32 = 150;

fn raw_write() -> impl Strategy<Value = RawWrite> {
    prop_oneof![
        (0..CLASSES, 0u32..400, picks()).prop_map(|(class, key, picks)| RawWrite::Insert {
            class,
            key,
            picks
        }),
        (0..CLASSES, 0..u32::MAX, 0usize..5, 0..VOCAB)
            .prop_map(|(class, oid, attr, pick)| RawWrite::Update { class, oid, attr, pick }),
        (0..CLASSES, 0..u32::MAX).prop_map(|(class, oid)| RawWrite::Delete { class, oid }),
    ]
}

/// `picks` in a vocabulary of `vocab` strings.
fn within(picks: Picks, vocab: u32) -> Picks {
    (picks.0 % vocab, picks.1 % vocab, picks.2 % vocab, picks.3 % vocab)
}

/// The batch `raw` denotes on `db` over a vocabulary of `vocab` strings;
/// updates and deletes of an empty class are dropped.
fn batch(db: &Database, raw: &[RawWrite], vocab: u32) -> Vec<DataWrite> {
    let mut cards: Vec<u32> = (0..CLASSES).map(|c| db.cardinality(ClassId(c)) as u32).collect();
    let mut out = Vec::new();
    for w in raw {
        match *w {
            RawWrite::Insert { class, key, picks } => {
                cards[class as usize] += 1;
                out.push(DataWrite::Insert {
                    class: ClassId(class),
                    tuple: tuple(key, within(picks, vocab)),
                    links: Vec::new(),
                });
            }
            RawWrite::Update { class, oid, attr, pick } if cards[class as usize] > 0 => {
                let value = match attr {
                    0 => fresh("k", 10_000 + pick),
                    _ => fresh(["t", "m", "x", "z"][attr - 1], pick % vocab),
                };
                out.push(DataWrite::Update {
                    class: ClassId(class),
                    object: ObjectId(oid % cards[class as usize]),
                    attr: AttrId(attr as u32),
                    value,
                });
            }
            RawWrite::Delete { class, oid } if cards[class as usize] > 0 => {
                out.push(DataWrite::Delete {
                    class: ClassId(class),
                    object: ObjectId(oid % cards[class as usize]),
                });
                cards[class as usize] -= 1;
            }
            RawWrite::Update { .. } | RawWrite::Delete { .. } => {}
        }
    }
    out
}

/// The allocation behind a string value.
fn arc(v: &Value) -> &Arc<str> {
    match v {
        Value::Str(s) => s,
        other => panic!("{other} in a string attribute"),
    }
}

/// Every string attribute of `db` holds one allocation per distinct string,
/// the index keys are the tuples' own allocations, and the statistics equal
/// a from-scratch scan.
fn assert_canonical(db: &Database, stage: &str) {
    for c in 0..CLASSES {
        let class = ClassId(c);
        for attr in 0..5u32 {
            let mut first: HashMap<&str, &Arc<str>> = HashMap::new();
            let attr_ref = AttrRef::new(class, AttrId(attr));
            let Column::Str(strings) = db.column(attr_ref).unwrap() else {
                panic!("class {c} attr {attr} is not a string column")
            };
            for s in strings.iter() {
                let canonical = *first.entry(s.as_ref()).or_insert(s);
                assert!(
                    Arc::ptr_eq(canonical, s),
                    "{stage}: class {c} attr {attr} holds {s:?} in two allocations"
                );
            }
            let Some(index) = db.index(attr_ref) else { continue };
            for (key, posting) in index.entries() {
                for &oid in posting {
                    let held = db.value(attr_ref, oid).unwrap();
                    let held = arc(&held);
                    assert!(
                        Arc::ptr_eq(arc(key), held),
                        "{stage}: class {c} attr {attr}: key {key} is not object {}'s {held:?}",
                        oid.0
                    );
                }
            }
        }
    }
    assert_eq!(db.stats(), &db.rebuild_statistics(), "{stage}: statistics");
}

proptest! {
    #[test]
    fn strings_are_canonical_after_any_load_and_writes(
        vocab in prop_oneof![Just(4u32), Just(VOCAB)],
        rows in prop::collection::vec(prop::collection::vec(picks(), 0..300), 2..3),
        batches in prop::collection::vec(prop::collection::vec(raw_write(), 1..8), 1..4),
    ) {
        let mut b = Database::builder(catalog());
        for (c, rows) in rows.iter().enumerate() {
            for (key, picks) in rows.iter().enumerate() {
                b.insert(ClassId(c as u32), tuple(key as u32, within(*picks, vocab))).unwrap();
            }
        }
        let cold = b.finalize(Default::default()).unwrap();
        let bytes = encode_database(&cold);
        let snapshot = decode_database(&bytes, ValidationLevel::Standard).unwrap();
        assert_eq!(snapshot.stats(), &snapshot.rebuild_statistics());
        for (load, mut db) in [("cold", cold), ("snapshot", snapshot)] {
            assert_canonical(&db, &format!("{load} load"));
            // A successor of no writes: the same snapshot, shared.
            let mut full = db.with_writes(&[], None).unwrap().0;
            for (i, raw) in batches.iter().enumerate() {
                let writes = batch(&db, raw, vocab);
                db = db.with_writes(&writes, None).unwrap().0;
                assert_canonical(&db, &format!("{load} load, batch {i}"));
                full = full.with_writes_full(&writes).unwrap().0;
                assert_canonical(&full, &format!("{load} load, batch {i} from scratch"));
            }
        }
    }
}
