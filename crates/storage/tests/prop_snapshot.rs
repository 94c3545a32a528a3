//! Snapshot round-trip oracle: for arbitrary mixed-type mini-databases,
//! `decode_database(encode_database(db), Standard)` must be
//! indistinguishable from the original on **every** read API — extents,
//! hash and B-tree index probes (oids *and* probe counts), link traversals
//! in both directions (exact canonical order), the folded statistics
//! snapshot (equal to the original's and to a rescan of the loaded
//! extents) and the data epoch.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_catalog::{
    AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, Multiplicity, RelId,
    RelationshipEnd, Value,
};
use sqo_query::{Bound, ValueSet};
use sqo_snapshot::{LoadError, ValidationLevel};
use sqo_storage::{
    decode_database, encode_database, load_database, save_database, Database, IntegrityOptions,
    ObjectId,
};

const RELS: usize = 2;

/// Two classes covering every persisted value type and both index kinds,
/// plus a cross relationship and a self relationship for the link tables.
fn catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    let c0 = b
        .class(
            "c0",
            vec![
                AttributeDef::indexed("name", DataType::Str, IndexKind::Hash),
                AttributeDef::indexed("rank", DataType::Int, IndexKind::BTree),
                AttributeDef::new("score", DataType::Float),
            ],
        )
        .unwrap();
    let c1 = b
        .class(
            "c1",
            vec![
                AttributeDef::indexed("key", DataType::Int, IndexKind::Hash),
                AttributeDef::indexed("tag", DataType::Str, IndexKind::BTree),
                AttributeDef::new("flag", DataType::Bool),
            ],
        )
        .unwrap();
    b.relationship(
        "r0",
        RelationshipEnd::new(c0, Multiplicity::Many, false),
        RelationshipEnd::new(c1, Multiplicity::Many, false),
    )
    .unwrap();
    b.relationship(
        "r1",
        RelationshipEnd::new(c1, Multiplicity::Many, false),
        RelationshipEnd::new(c1, Multiplicity::Many, false),
    )
    .unwrap();
    Arc::new(b.build().unwrap())
}

const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "", "αβ-utf8"];

type Row0 = (i64, usize, i32);
type Row1 = (i64, usize, u32);

fn build(
    catalog: &Arc<Catalog>,
    rows0: &[Row0],
    rows1: &[Row1],
    links: &[(usize, u32, u32)],
) -> Database {
    let mut b = Database::builder(Arc::clone(catalog));
    for &(rank, name, score) in rows0 {
        b.insert(
            ClassId(0),
            vec![
                Value::str(VOCAB[name % VOCAB.len()]),
                Value::Int(rank),
                Value::float(f64::from(score) / 4.0).unwrap(),
            ],
        )
        .unwrap();
    }
    for &(key, tag, flag) in rows1 {
        b.insert(
            ClassId(1),
            vec![Value::Int(key), Value::str(VOCAB[tag % VOCAB.len()]), Value::Bool(flag % 2 == 1)],
        )
        .unwrap();
    }
    for &(rel, l, r) in links {
        let rel = RelId((rel % RELS) as u32);
        let def = catalog.relationship(rel).unwrap();
        let (lcard, rcard) = if def.left.class == ClassId(0) {
            (rows0.len(), rows1.len())
        } else {
            (rows1.len(), rows1.len())
        };
        if lcard == 0 || rcard == 0 {
            continue;
        }
        b.link(rel, ObjectId(l % lcard as u32), ObjectId(r % rcard as u32)).unwrap();
    }
    b.finalize(IntegrityOptions).unwrap()
}

/// Every read API must agree, exactly.
fn assert_equivalent(catalog: &Catalog, orig: &Database, loaded: &Database) {
    assert_eq!(orig.data_version(), loaded.data_version(), "data epoch");
    for (cid, cdef) in catalog.classes() {
        assert_eq!(orig.cardinality(cid), loaded.cardinality(cid), "{}", cdef.name);
        for o in 0..orig.cardinality(cid) as u32 {
            assert_eq!(
                orig.tuple(cid, ObjectId(o)).unwrap(),
                loaded.tuple(cid, ObjectId(o)).unwrap(),
                "{} object {o}",
                cdef.name
            );
        }
        for (ai, _) in cdef.attributes.iter().enumerate() {
            let attr = AttrRef::new(cid, AttrId(ai as u32));
            let (Some(ix_orig), Some(ix_loaded)) = (orig.index(attr), loaded.index(attr)) else {
                assert_eq!(orig.index(attr).is_some(), loaded.index(attr).is_some());
                continue;
            };
            assert_eq!(ix_orig.len(), ix_loaded.len(), "{}.{ai} size", cdef.name);
            // Probe with every value that exists plus one that does not.
            let mut probes: Vec<Value> = (0..orig.cardinality(cid) as u32)
                .map(|o| orig.value(attr, ObjectId(o)).unwrap().clone())
                .collect();
            probes.push(Value::str("no-such-value"));
            probes.push(Value::Int(i64::MIN));
            for v in &probes {
                assert_eq!(
                    ix_orig.probe_eq(v),
                    ix_loaded.probe_eq(v),
                    "{}.{ai} = {v:?}",
                    cdef.name
                );
            }
            for lo in [Value::Int(-1), Value::Int(2), Value::str("b")] {
                let set = ValueSet::Range { lo: Bound::Included(lo.clone()), hi: Bound::Unbounded };
                match (ix_orig.probe(&set), ix_loaded.probe(&set)) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.oids, b.oids, "{}.{ai} >= {lo:?}", cdef.name);
                        assert_eq!(a.probes, b.probes, "{}.{ai} >= {lo:?}", cdef.name);
                    }
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    }
    for (rel, def) in catalog.relationships() {
        assert_eq!(orig.links(rel).link_count(), loaded.links(rel).link_count());
        for o in 0..orig.cardinality(def.left.class) as u32 {
            assert_eq!(
                orig.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                loaded.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                "{} from left {o}",
                def.name
            );
        }
        for o in 0..orig.cardinality(def.right.class) as u32 {
            assert_eq!(
                orig.links(rel).from_right(ObjectId(o)),
                loaded.links(rel).from_right(ObjectId(o)),
                "{} from right {o}",
                def.name
            );
        }
    }
    assert_eq!(orig.stats(), loaded.stats(), "statistics snapshots diverged");
    assert_eq!(
        loaded.stats(),
        &loaded.rebuild_statistics(),
        "loaded stats != from-scratch rescan of the loaded extents"
    );
}

proptest! {
    #[test]
    fn snapshot_roundtrips_at_every_level(
        rows0 in prop::collection::vec((-3i64..5, 0usize..8, -8i32..8), 0..7),
        rows1 in prop::collection::vec((-3i64..5, 0usize..8, 0u32..2), 0..7),
        links in prop::collection::vec((0..RELS, 0u32..16, 0u32..16), 0..10),
    ) {
        let catalog = catalog();
        let db = build(&catalog, &rows0, &rows1, &links);
        let bytes = encode_database(&db);
        let loaded = decode_database(&bytes, ValidationLevel::Standard)
            .unwrap_or_else(|e| panic!("well-formed snapshot rejected: {e}"));
        assert_equivalent(&catalog, &db, &loaded);
    }
}

/// The data epoch survives the round trip: a written-to snapshot loads
/// back with the successor's epoch, not zero.
#[test]
fn data_epoch_survives_round_trip() {
    let catalog = catalog();
    let db = build(&catalog, &[(1, 0, 4)], &[(2, 1, 1)], &[(0, 0, 0)]);
    let batch = vec![sqo_storage::DataWrite::Update {
        class: ClassId(0),
        object: ObjectId(0),
        attr: AttrId(1),
        value: Value::Int(9),
    }];
    let (next, _) = db.with_writes(&batch, None).unwrap();
    assert_ne!(next.data_version(), db.data_version());
    let loaded = decode_database(&encode_database(&next), ValidationLevel::Standard).unwrap();
    assert_eq!(loaded.data_version(), next.data_version());
    assert_eq!(
        loaded.value(AttrRef::new(ClassId(0), AttrId(1)), ObjectId(0)).unwrap(),
        Value::Int(9)
    );
}

/// `save_database` replaces the target atomically: saving over an existing
/// snapshot leaves exactly the target file behind (no temporary), the file
/// loads as the database saved last, and a reader that had the earlier file
/// open still reads all of it — the save renames a complete file into place
/// and never rewrites one that is there.
#[test]
fn save_over_an_existing_snapshot_leaves_only_the_target() {
    let catalog = catalog();
    let first = build(&catalog, &[(1, 0, 4), (2, 1, 0)], &[(2, 1, 1)], &[(0, 0, 0)]);
    let update = sqo_storage::DataWrite::Update {
        class: ClassId(0),
        object: ObjectId(0),
        attr: AttrId(1),
        value: Value::Int(9),
    };
    let (second, _) = first.with_writes(&[update], None).unwrap();
    let dir = std::env::temp_dir().join(format!("sqo_save_database_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("db.sqos");
    save_database(&first, &path).expect("first save");
    let mut held = std::fs::File::open(&path).expect("open the first snapshot");
    save_database(&second, &path).expect("save over the first");
    let left: Vec<_> =
        std::fs::read_dir(&dir).expect("list").map(|e| e.expect("entry").file_name()).collect();
    assert_eq!(left, ["db.sqos"], "the temporary file must not outlive the save");
    let loaded = load_database(&path, ValidationLevel::Standard).expect("the saved file loads");
    assert_equivalent(&catalog, &second, &loaded);
    if cfg!(unix) {
        let mut seen = Vec::new();
        std::io::Read::read_to_end(&mut held, &mut seen).expect("read the held file");
        assert!(seen == encode_database(&first), "the earlier snapshot was rewritten in place");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A save that cannot even create its temporary file reports `Io` and
/// creates nothing — in particular not the missing directory.
#[test]
fn save_into_a_missing_directory_fails_without_side_effects() {
    let catalog = catalog();
    let db = build(&catalog, &[(1, 0, 4)], &[(2, 1, 1)], &[(0, 0, 0)]);
    let dir = std::env::temp_dir().join(format!("sqo_save_database_gone_{}", std::process::id()));
    let err = save_database(&db, dir.join("db.sqos")).unwrap_err();
    assert!(matches!(err, LoadError::Io(_)), "{err:?}");
    assert!(!dir.exists());
}
