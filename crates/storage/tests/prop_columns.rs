//! Typed columns against a model: a class whose attributes are of all four
//! types, each stored in a column of its declared type, reads back exactly
//! what a plain `Vec<Vec<Value>>` holds after any sequence of write batches.
//!
//! Each case loads a class of up to three storage pages of objects and
//! applies batches of inserts, swap-remove deletes and in-place updates of
//! any attribute, mirrored on the model row by row. After every batch, every
//! value is read through each read API — [`Column::get`], [`Column::iter`],
//! the typed handle's page walk, [`Database::value`] and [`Database::tuple`]
//! — and must equal the model's, and the copy-on-write successor of
//! [`Database::with_writes`] must read the same as the from-scratch
//! [`Database::with_writes_full`], its statistics and index entries too.
//! Value domains are small, so equal values recur (and `0.0` meets `-0.0`),
//! and one `Int` and one `Str` attribute are indexed, so the write path
//! patches index and value-count pages alike.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_catalog::{AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, Value};
use sqo_storage::{Column, DataWrite, Database, ObjectId};

const CLASS: ClassId = ClassId(0);

/// The declared types of the class's attributes, in attribute order.
const TYPES: [DataType; 6] =
    [DataType::Int, DataType::Float, DataType::Str, DataType::Bool, DataType::Int, DataType::Str];

fn catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    let attrs = TYPES.iter().enumerate().map(|(i, &ty)| match i {
        0 => AttributeDef::indexed("a0", ty, IndexKind::Hash),
        5 => AttributeDef::indexed("a5", ty, IndexKind::BTree),
        _ => AttributeDef::new(format!("a{i}"), ty),
    });
    b.class("c", attrs.collect()).unwrap();
    Arc::new(b.build().unwrap())
}

/// Value `seed` (modulo a small domain) of attribute `attr`'s type.
fn value(attr: usize, seed: u32) -> Value {
    match TYPES[attr] {
        DataType::Int => Value::Int(i64::from(seed % 11) - 5),
        DataType::Float => Value::float([-1.5, -0.0, 0.0, 0.5, 2.0][seed as usize % 5]).unwrap(),
        DataType::Str => Value::str(["", "a", "ab", "b", "zz"][seed as usize % 5]),
        DataType::Bool => Value::Bool(seed % 2 == 0),
    }
}

fn row(seed: u32) -> Vec<Value> {
    (0..TYPES.len()).map(|attr| value(attr, seed.wrapping_mul(attr as u32 + 3) / 2)).collect()
}

/// One write, its object and attribute folded into range when applied.
#[derive(Debug, Clone)]
enum RawWrite {
    Insert(u32),
    Delete(u32),
    Update { object: u32, attr: usize, seed: u32 },
}

fn raw_write() -> impl Strategy<Value = RawWrite> {
    prop_oneof![
        (0u32..1 << 20).prop_map(RawWrite::Insert),
        (0u32..1 << 20).prop_map(RawWrite::Delete),
        (0u32..1 << 20, 0..TYPES.len(), 0u32..1 << 20)
            .prop_map(|(object, attr, seed)| RawWrite::Update { object, attr, seed }),
    ]
}

/// `raw` as a write against a class of `len` objects, applied to `model`
/// too; `None` for a delete or an update of an empty class.
fn fold(raw: &RawWrite, model: &mut Vec<Vec<Value>>) -> Option<DataWrite> {
    let len = model.len() as u32;
    match *raw {
        RawWrite::Insert(seed) => {
            model.push(row(seed));
            Some(DataWrite::Insert { class: CLASS, tuple: row(seed), links: vec![] })
        }
        RawWrite::Delete(object) if len > 0 => {
            let object = object % len;
            model.swap_remove(object as usize);
            Some(DataWrite::Delete { class: CLASS, object: ObjectId(object) })
        }
        RawWrite::Update { object, attr, seed } if len > 0 => {
            let object = object % len;
            model[object as usize][attr] = value(attr, seed);
            let (attr, value) = (AttrId(attr as u32), value(attr, seed));
            Some(DataWrite::Update { class: CLASS, object: ObjectId(object), attr, value })
        }
        RawWrite::Delete(_) | RawWrite::Update { .. } => None,
    }
}

/// Attribute `attr`'s column walked through its typed handle's pages, each
/// element made a `Value`.
fn page_walk(column: Column<'_>) -> Vec<Value> {
    fn walk<'a, T: 'a>(
        pages: impl Iterator<Item = &'a [T]>,
        wrap: impl Fn(&T) -> Value,
    ) -> Vec<Value> {
        pages.flat_map(|page| page.iter().map(&wrap)).collect()
    }
    match column {
        Column::Int(c) => walk(c.pages(), |&x| Value::Int(x)),
        Column::Float(c) => walk(c.pages(), |&x| Value::Float(x)),
        Column::Str(c) => walk(c.pages(), |s| Value::Str(Arc::clone(s))),
        Column::Bool(c) => walk(c.pages(), |&b| Value::Bool(b)),
    }
}

/// Every read API of `db` returns what `model` holds, value for value.
fn assert_reads(db: &Database, model: &[Vec<Value>], stage: &str) {
    assert_eq!(db.cardinality(CLASS), model.len(), "{stage}: cardinality");
    for (attr, &ty) in TYPES.iter().enumerate() {
        let at = AttrRef::new(CLASS, AttrId(attr as u32));
        let column = db.column(at).unwrap();
        let want: Vec<Value> = model.iter().map(|r| r[attr].clone()).collect();
        assert_eq!((column.data_type(), column.len()), (ty, model.len()), "{stage}: a{attr}");
        assert_eq!(column.iter().collect::<Vec<_>>(), want, "{stage}: a{attr} iter");
        assert_eq!(page_walk(column), want, "{stage}: a{attr} pages");
        for (o, v) in want.iter().enumerate() {
            let oid = ObjectId(o as u32);
            assert_eq!(column.get(oid).as_ref(), Some(v), "{stage}: a{attr} get {o}");
            assert_eq!(db.value(at, oid).as_ref(), Ok(v), "{stage}: a{attr} value {o}");
        }
        let past = ObjectId(model.len() as u32);
        assert_eq!(column.get(past), None, "{stage}: a{attr} past the end");
        assert!(db.value(at, past).is_err(), "{stage}: a{attr} value past the end");
    }
    for (o, r) in model.iter().enumerate() {
        assert_eq!(&db.tuple(CLASS, ObjectId(o as u32)).unwrap(), r, "{stage}: tuple {o}");
    }
}

/// The incremental successor and the full rebuild read alike: their
/// values (through the model), statistics and index entries.
fn assert_same(inc: &Database, full: &Database, stage: &str) {
    assert_eq!(inc.stats(), full.stats(), "{stage}: statistics");
    assert_eq!(inc.stats(), &inc.rebuild_statistics(), "{stage}: statistics rescan");
    for attr in [0, 5] {
        let at = AttrRef::new(CLASS, AttrId(attr));
        assert_eq!(inc.index(at), full.index(at), "{stage}: a{attr} index");
    }
}

proptest! {
    #[test]
    fn typed_columns_read_back_the_model(
        seeds in prop::collection::vec(0u32..1 << 20, 0..300),
        batches in prop::collection::vec(prop::collection::vec(raw_write(), 1..12), 1..5),
    ) {
        let mut model: Vec<Vec<Value>> = seeds.iter().map(|&s| row(s)).collect();
        let mut load = Database::builder(catalog());
        for &s in &seeds {
            load.insert(CLASS, row(s)).unwrap();
        }
        let mut db = load.finalize(Default::default()).unwrap();
        assert_reads(&db, &model, "load");
        for (b, batch) in batches.iter().enumerate() {
            let writes: Vec<DataWrite> =
                batch.iter().filter_map(|raw| fold(raw, &mut model)).collect();
            let (inc, _) = db.with_writes(&writes, None).unwrap();
            let (full, _) = db.with_writes_full(&writes).unwrap();
            let stage = format!("batch {b}");
            assert_reads(&inc, &model, &format!("{stage}, incremental"));
            assert_reads(&full, &model, &format!("{stage}, full"));
            assert_same(&inc, &full, &stage);
            db = inc;
        }
    }
}
