//! Incremental rebuild ≡ full rebuild: for arbitrary write batches over
//! arbitrary mini-databases, the `Arc`-sharded clone-and-patch successor of
//! [`Database::with_writes`] must be indistinguishable from the from-scratch
//! [`Database::with_writes_full`] oracle on **every** read API — extents
//! (object by object and walked page by page), link traversals in both directions (exact order, thanks to the canonical
//! adjacency invariant), index probes (hash and B-tree, including probe
//! counts), statistics, receipts, the data epoch — and both paths must
//! accept/reject identically, error for error. Covered write shapes:
//! inserts (with possibly-dangling links), deletes (with swap-remove
//! renumbering, including on a self-relationship), links/unlinks and
//! in-place attribute updates, chained across multiple batches so patched
//! snapshots are themselves patched again, and re-links (an unlink and a
//! link of the same left object in one batch, which repairs what the unlink
//! alone would break) — on mini-databases, and on
//! classes of three and more storage pages with writes aimed at what the
//! delta-maintained statistics and the paged shards must get right: the
//! objects holding an attribute's current minimum, maximum and most common
//! values, the last object of an extent page, and the edges of the value
//! maps' pages (a page's first and last key, the key whose removal empties a
//! page, the insert that splits one). After every batch the successor also
//! round-trips through a snapshot, its statistics equal to a rescan.
//!
//! Both paths run the integrity check: `with_writes` over the adjacency
//! pages it copied and the slots past the base side's length, the oracle
//! over every list. The schema declares a to-one end and a total end, so
//! the two must accept exactly the same batches; an insert onto a not-full
//! last page copies no adjacency page, and only the slots past the base
//! length catch an object it leaves unlinked.
//!
//! The load reads an indexed attribute's statistics off its postings, not
//! off a scan: `load_statistics_equal_a_full_rescan` holds a freshly
//! finalized database's statistics to [`Database::rebuild_statistics`], to
//! the spelling of every value, over every value type and column shape.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_catalog::{
    AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, Multiplicity, RelId,
    RelationshipEnd, StatsSnapshot, Value,
};
use sqo_query::{Bound, ValueSet};
use sqo_snapshot::ValidationLevel;
use sqo_storage::{
    decode_database, encode_database, Column, DataWrite, Database, IntegrityOptions, ObjectId,
    StorageError,
};

const CLASSES: usize = 3;
const ATTRS: usize = 3;
const RELS: usize = 3;

/// Three int-attribute classes (one hash-indexed, one B-tree-indexed, one
/// plain attribute each), a many-many relationship, a to-one relationship
/// and a self-relationship — every structural case the write path handles.
/// The self-relationship's left end is total: every `c2` object links at
/// least one `c2` object, itself allowed.
fn catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    let mut ids = Vec::new();
    for c in 0..CLASSES {
        ids.push(
            b.class(
                format!("c{c}"),
                vec![
                    AttributeDef::indexed("a0", DataType::Int, IndexKind::Hash),
                    AttributeDef::indexed("a1", DataType::Int, IndexKind::BTree),
                    AttributeDef::new("a2", DataType::Int),
                ],
            )
            .unwrap(),
        );
    }
    b.relationship(
        "r0",
        RelationshipEnd::new(ids[0], Multiplicity::Many, false),
        RelationshipEnd::new(ids[1], Multiplicity::Many, false),
    )
    .unwrap();
    b.relationship(
        "r1",
        RelationshipEnd::new(ids[1], Multiplicity::One, false),
        RelationshipEnd::new(ids[2], Multiplicity::Many, false),
    )
    .unwrap();
    b.relationship(
        "r2",
        RelationshipEnd::new(ids[2], Multiplicity::Many, true),
        RelationshipEnd::new(ids[2], Multiplicity::Many, false),
    )
    .unwrap();
    Arc::new(b.build().unwrap())
}

#[derive(Debug, Clone)]
enum RawWrite {
    Insert {
        class: usize,
        vals: (i64, i64, i64),
        links: Vec<(usize, u32)>,
    },
    Delete {
        class: usize,
        oid: u32,
    },
    Update {
        class: usize,
        oid: u32,
        attr: u32,
        val: i64,
    },
    Link {
        rel: usize,
        l: u32,
        r: u32,
    },
    Unlink {
        rel: usize,
        l: u32,
        r: u32,
    },
    /// An unlink as [`RawWrite::Unlink`] picks it, then a link of the same
    /// left object to right object `to`.
    Relink {
        rel: usize,
        l: u32,
        r: u32,
        to: u32,
    },
    /// Delete (`update: None`) or update `attr` of the object `aim` picks
    /// in the snapshot the batch applies to.
    Aimed {
        class: usize,
        attr: usize,
        aim: Aim,
        update: Option<i64>,
    },
}

/// Which object an aimed write hits.
#[derive(Debug, Clone)]
enum Aim {
    /// The first object holding the attribute's current minimum.
    Min,
    /// … its current maximum.
    Max,
    /// … its `n`-th most common value.
    Mcv(usize),
    /// The last object of storage page `n` (or of the class).
    PageEnd(u32),
    /// The first object whose attribute holds this value.
    Key(i64),
}

/// `sqo-storage`'s page length. Private there; another value only changes
/// which of these writes land on a page boundary.
const PAGE: u32 = 128;

/// The most keys a page of `sqo-storage`'s value maps (index postings, value
/// counts) holds, which is what a bulk build fills each page to. Private
/// there, with the same caveat.
const MAP_PAGE: i64 = 64;

/// The smallest `a0` of the multi-page instances, whose `a0` column is the
/// even numbers from here up: `a0`'s index pages start at every
/// `MAP_PAGE`-th of them, and every odd number is a key it does not hold.
const A0_MIN: i64 = -100;

/// Writes with object ids below `oids`.
fn raw_write(oids: u32) -> impl Strategy<Value = RawWrite> {
    let val = -2i64..4;
    let aim = prop_oneof![
        Just(Aim::Min),
        Just(Aim::Max),
        (0usize..3).prop_map(Aim::Mcv),
        (0u32..4).prop_map(Aim::PageEnd),
        // The first (`edge` 0) or last key of page `page` of `a0`'s index.
        (0i64..6, 0i64..2).prop_map(|(page, edge)| Aim::Key(
            A0_MIN + 2 * (MAP_PAGE * page + (MAP_PAGE - 1) * edge)
        )),
    ];
    prop_oneof![
        (
            0..CLASSES,
            (val.clone(), val.clone(), val.clone()),
            prop::collection::vec((0..RELS, 0..oids), 0..3)
        )
            .prop_map(|(class, vals, links)| RawWrite::Insert { class, vals, links }),
        (0..CLASSES, 0..oids).prop_map(|(class, oid)| RawWrite::Delete { class, oid }),
        (0..CLASSES, 0..oids, 0u32..4, val.clone())
            .prop_map(|(class, oid, attr, val)| RawWrite::Update { class, oid, attr, val }),
        (0..RELS, 0..oids, 0..oids).prop_map(|(rel, l, r)| RawWrite::Link { rel, l, r }),
        (0..RELS, 0..oids, 0..oids).prop_map(|(rel, l, r)| RawWrite::Unlink { rel, l, r }),
        (0..RELS, 0..oids, 0..oids, 0..oids).prop_map(|(rel, l, r, to)| RawWrite::Relink {
            rel,
            l,
            r,
            to
        }),
        (0..CLASSES, 0..ATTRS, aim, (0u32..2, val.clone())).prop_map(
            |(class, attr, aim, (keep, val))| RawWrite::Aimed {
                class,
                attr,
                aim,
                update: (keep == 1).then_some(val),
            }
        ),
    ]
}

/// Builds the base instance: arbitrary tuples per class, arbitrary (valid)
/// links, cut to what the catalog declares: of a `c1` object's `r1` links
/// only the first is kept (to-one), and a `c2` object with no `r2` link
/// links itself (total).
fn build_base(
    catalog: &Arc<Catalog>,
    tuples: &[Vec<(i64, i64, i64)>],
    links: &[(usize, u32, u32)],
) -> Database {
    let mut b = Database::builder(Arc::clone(catalog));
    for (c, rows) in tuples.iter().enumerate() {
        for &(a0, a1, a2) in rows {
            b.insert(ClassId(c as u32), vec![Value::Int(a0), Value::Int(a1), Value::Int(a2)])
                .unwrap();
        }
    }
    let mut linked = std::collections::HashSet::new();
    for &(rel, l, r) in links {
        let rel = RelId((rel % RELS) as u32);
        let def = catalog.relationship(rel).unwrap();
        let lcard = tuples[def.left.class.index()].len();
        let rcard = tuples[def.right.class.index()].len();
        if lcard == 0 || rcard == 0 {
            continue;
        }
        let (l, r) = (l % lcard as u32, r % rcard as u32);
        if linked.insert((rel, l)) || rel != RelId(1) {
            b.link(rel, ObjectId(l), ObjectId(r)).unwrap();
        }
    }
    for l in 0..tuples[2].len() as u32 {
        if !linked.contains(&(RelId(2), l)) {
            b.link(RelId(2), ObjectId(l), ObjectId(l)).unwrap();
        }
    }
    b.finalize(IntegrityOptions).unwrap()
}

/// The object `aim` picks in `db` (object 0 when the class is empty, which
/// both write paths then reject alike).
fn aimed_object(db: &Database, class: ClassId, attr: usize, aim: &Aim) -> ObjectId {
    let stats = &db.stats().classes[class.index()].attrs[attr];
    let holder = match aim {
        Aim::PageEnd(page) => {
            let last = (db.cardinality(class) as u32).saturating_sub(1);
            return ObjectId(((page + 1) * PAGE - 1).min(last));
        }
        Aim::Key(key) => Some(Value::Int(*key)),
        Aim::Min => stats.min.clone(),
        Aim::Max => stats.max.clone(),
        Aim::Mcv(n) => stats.mcvs.get(*n).map(|(v, _)| v.clone()),
    };
    (0..db.cardinality(class) as u32)
        .map(ObjectId)
        .find(|o| db.value(AttrRef::new(class, AttrId(attr as u32)), *o).ok() == holder)
        .unwrap_or(ObjectId(0))
}

/// `raw` with its ids folded into `db`'s ranges, so that it validates: link
/// targets on relationships of the inserted class, objects and attributes
/// that exist, an unlink of an edge that exists (when the relationship has one).
fn folded(raw: &RawWrite, db: &Database) -> RawWrite {
    let catalog = db.catalog();
    let fold = |o: u32, class: ClassId| o % (db.cardinality(class) as u32).max(1);
    let ends = |rel: usize| {
        let def = catalog.relationship(RelId(rel as u32)).unwrap();
        (def.left.class, def.right.class)
    };
    match raw {
        RawWrite::Insert { class, vals, links } => {
            let incident: Vec<(usize, ClassId)> = catalog
                .relationships()
                .filter_map(|(rel, def)| {
                    Some((rel.index(), def.other_end(ClassId(*class as u32))?))
                })
                .collect();
            let links = links
                .iter()
                .map(|&(rel, o)| {
                    let (rel, other) = incident[rel % incident.len()];
                    (rel, fold(o, other))
                })
                .collect();
            RawWrite::Insert { class: *class, vals: *vals, links }
        }
        RawWrite::Delete { class, oid } => {
            RawWrite::Delete { class: *class, oid: fold(*oid, ClassId(*class as u32)) }
        }
        RawWrite::Update { class, oid, attr, val } => RawWrite::Update {
            class: *class,
            oid: fold(*oid, ClassId(*class as u32)),
            attr: attr % ATTRS as u32,
            val: *val,
        },
        RawWrite::Link { rel, l, r } => {
            let (left, right) = ends(*rel);
            RawWrite::Link { rel: *rel, l: fold(*l, left), r: fold(*r, right) }
        }
        RawWrite::Unlink { rel, l, r } => {
            let (l, r) = linked_edge(db, *rel, *l, *r);
            RawWrite::Unlink { rel: *rel, l, r }
        }
        RawWrite::Relink { rel, l, r, to } => {
            let (l, r) = linked_edge(db, *rel, *l, *r);
            RawWrite::Relink { rel: *rel, l, r, to: fold(*to, ends(*rel).1) }
        }
        aimed @ RawWrite::Aimed { .. } => aimed.clone(),
    }
}

/// An edge of relationship `rel` in `db` to unlink: the first linked left
/// object from `l` on, and one of its edges picked by `r` (`(l, r)` itself
/// when the relationship has none).
fn linked_edge(db: &Database, rel: usize, l: u32, r: u32) -> (u32, u32) {
    let rel = RelId(rel as u32);
    let (links, left) = (db.links(rel), db.catalog().relationship(rel).unwrap().left.class);
    let fold = |o: u32| o % (db.cardinality(left) as u32).max(1);
    let l = (0..db.cardinality(left) as u32)
        .map(|step| fold(l + step))
        .find(|&l| !links.from_left(ObjectId(l)).is_empty())
        .unwrap_or(l);
    let linked = links.from_left(ObjectId(l));
    (l, linked.get(r as usize % linked.len().max(1)).map_or(r, |o| o.0))
}

/// The writes `raw` stands for: two for a [`RawWrite::Relink`], else one.
fn materialize(raw: &RawWrite, db: &Database) -> Vec<DataWrite> {
    let write = match raw {
        RawWrite::Relink { rel, l, r, to } => {
            let (rel, left) = (RelId(*rel as u32), ObjectId(*l));
            return vec![
                DataWrite::Unlink { rel, left, right: ObjectId(*r) },
                DataWrite::Link { rel, left, right: ObjectId(*to) },
            ];
        }
        RawWrite::Aimed { class, attr, aim, update } => {
            let class = ClassId(*class as u32);
            let object = aimed_object(db, class, *attr, aim);
            match update {
                Some(val) => DataWrite::Update {
                    class,
                    object,
                    attr: AttrId(*attr as u32),
                    value: Value::Int(*val),
                },
                None => DataWrite::Delete { class, object },
            }
        }
        RawWrite::Insert { class, vals, links } => DataWrite::Insert {
            class: ClassId(*class as u32),
            tuple: vec![Value::Int(vals.0), Value::Int(vals.1), Value::Int(vals.2)],
            links: links.iter().map(|&(rel, o)| (RelId(rel as u32), ObjectId(o))).collect(),
        },
        RawWrite::Delete { class, oid } => {
            DataWrite::Delete { class: ClassId(*class as u32), object: ObjectId(*oid) }
        }
        RawWrite::Update { class, oid, attr, val } => DataWrite::Update {
            class: ClassId(*class as u32),
            object: ObjectId(*oid),
            attr: AttrId(*attr),
            value: Value::Int(*val),
        },
        RawWrite::Link { rel, l, r } => {
            DataWrite::Link { rel: RelId(*rel as u32), left: ObjectId(*l), right: ObjectId(*r) }
        }
        RawWrite::Unlink { rel, l, r } => {
            DataWrite::Unlink { rel: RelId(*rel as u32), left: ObjectId(*l), right: ObjectId(*r) }
        }
    };
    vec![write]
}

/// Each column's page walk yields `value(attr, oid)` for every `oid`, in
/// order, and nothing more; a column past the last attribute is refused.
fn assert_page_walk(db: &Database, class: ClassId) {
    let arity = db.catalog().class(class).unwrap().attributes.len();
    for a in 0..arity {
        let attr = AttrRef::new(class, AttrId(a as u32));
        let walked: Vec<Value> = match db.column(attr).unwrap() {
            Column::Int(c) => c.iter().map(|&x| Value::Int(x)).collect(),
            Column::Float(c) => c.iter().map(|&x| Value::Float(x)).collect(),
            Column::Str(c) => c.iter().map(|s| Value::Str(Arc::clone(s))).collect(),
            Column::Bool(c) => c.iter().map(|&b| Value::Bool(b)).collect(),
        };
        assert_eq!(walked.len(), db.cardinality(class), "page walk of {attr:?}");
        for (o, v) in walked.into_iter().enumerate() {
            assert_eq!(v, db.value(attr, ObjectId(o as u32)).unwrap(), "object {o}");
        }
    }
    let past = AttrRef::new(class, AttrId(arity as u32));
    assert!(matches!(db.column(past), Err(StorageError::UnknownAttribute { .. })));
}

/// Every read API must agree, exactly.
fn assert_equivalent(catalog: &Catalog, inc: &Database, full: &Database) {
    assert_eq!(inc.data_version(), full.data_version());
    for (cid, cdef) in catalog.classes() {
        assert_eq!(inc.cardinality(cid), full.cardinality(cid), "{}", cdef.name);
        for o in 0..inc.cardinality(cid) as u32 {
            assert_eq!(
                inc.tuple(cid, ObjectId(o)).unwrap(),
                full.tuple(cid, ObjectId(o)).unwrap(),
                "{} object {o}",
                cdef.name
            );
        }
        assert_page_walk(inc, cid);
        assert_page_walk(full, cid);
        for ai in 0..ATTRS as u32 {
            let attr = sqo_catalog::AttrRef::new(cid, AttrId(ai));
            let (Some(ix_inc), Some(ix_full)) = (inc.index(attr), full.index(attr)) else {
                assert_eq!(inc.index(attr).is_some(), full.index(attr).is_some());
                continue;
            };
            assert_eq!(ix_inc.len(), ix_full.len());
            for v in -3i64..6 {
                assert_eq!(
                    ix_inc.probe_eq(&Value::Int(v)),
                    ix_full.probe_eq(&Value::Int(v)),
                    "{}.a{ai} = {v}",
                    cdef.name
                );
            }
            // Range probes must touch identical entries (oids *and* probe
            // counts — a patched B-tree may not keep empty posting keys).
            for lo in [-3i64, 0, 2] {
                let set =
                    ValueSet::Range { lo: Bound::Included(Value::Int(lo)), hi: Bound::Unbounded };
                match (ix_inc.probe(&set), ix_full.probe(&set)) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.oids, b.oids, "{}.a{ai} >= {lo}", cdef.name);
                        assert_eq!(a.probes, b.probes, "{}.a{ai} >= {lo}", cdef.name);
                    }
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    }
    for (rel, def) in catalog.relationships() {
        assert_eq!(inc.links(rel).link_count(), full.links(rel).link_count());
        for o in 0..inc.cardinality(def.left.class) as u32 {
            assert_eq!(
                inc.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                full.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                "{} from left {o}",
                def.name
            );
        }
        // `traverse` resolves self-relationships to the left side; compare
        // the right side through the link table directly.
        for o in 0..inc.cardinality(def.right.class) as u32 {
            assert_eq!(
                inc.links(rel).from_right(ObjectId(o)),
                full.links(rel).from_right(ObjectId(o)),
                "{} from right {o}",
                def.name
            );
        }
    }
    assert_eq!(inc.stats(), full.stats(), "statistics snapshots diverged");
    assert_eq!(inc.stats(), &inc.rebuild_statistics(), "folded stats != from-scratch rescan");
}

/// Applies `batches` to `base` through both write paths — the incremental
/// one chained on its own successors, the oracle on an independently
/// evolved twin that only `with_writes_full` ever produced — and checks
/// after every batch that they agree on everything and that the incremental
/// successor survives a snapshot round trip.
///
/// With `fold` the writes are [`folded`] into range first, so that most
/// batches apply; without it most are rejected somewhere, which is what
/// exercises atomicity and error-for-error agreement.
fn check_batches(
    catalog: &Arc<Catalog>,
    tuples: &[Vec<(i64, i64, i64)>],
    base_links: &[(usize, u32, u32)],
    batches: &[Vec<RawWrite>],
    fold: bool,
) {
    let mut inc = build_base(catalog, tuples, base_links);
    let mut full = build_base(catalog, tuples, base_links);
    for batch in batches {
        let writes: Vec<DataWrite> = batch
            .iter()
            .flat_map(|raw| {
                if fold {
                    materialize(&folded(raw, &inc), &inc)
                } else {
                    materialize(raw, &inc)
                }
            })
            .collect();
        let a = inc.with_writes(&writes, None);
        let b = full.with_writes_full(&writes);
        match (a, b) {
            (Ok((ndb, ra)), Ok((fdb, rb))) => {
                assert_eq!(ra, rb, "receipts diverged for {writes:?}");
                assert_equivalent(catalog, &ndb, &fdb);
                let reloaded = decode_database(&encode_database(&ndb), ValidationLevel::Standard)
                    .unwrap_or_else(|e| panic!("successor fails to load after {writes:?}: {e}"));
                assert_equivalent(reloaded.catalog(), &reloaded, &fdb);
                inc = ndb;
                full = fdb;
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(ea, eb, "error values diverged for {writes:?}");
                // Atomicity: both bases must be untouched and still agree.
                assert_equivalent(catalog, &inc, &full);
            }
            (a, b) => {
                panic!("accept/reject diverged for {writes:?}: incremental {a:?} vs full {b:?}")
            }
        }
    }
}

proptest! {
    #[test]
    fn incremental_equals_full_rebuild(
        tuples in prop::collection::vec(
            prop::collection::vec((-2i64..4, -2i64..4, -2i64..4), 0..7), CLASSES..(CLASSES + 1)),
        base_links in prop::collection::vec((0..RELS, 0u32..16, 0u32..16), 0..12),
        batches in prop::collection::vec(prop::collection::vec(raw_write(12), 0..6), 1..4),
        fold in 0u32..2,
    ) {
        check_batches(&catalog(), &tuples, &base_links, &batches, fold == 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Classes of three to four pages. `a0` is a key (every value once, so
    /// every most-common-value rank is a tie and every deleted extreme
    /// vacates it) over even numbers only, so that its index is four to six
    /// full pages and a partial one, and the odd values the writes draw are
    /// new keys inside the first of them: the first such write splits it.
    /// `a1` and `a2` repeat a few values.
    #[test]
    fn incremental_equals_full_rebuild_across_pages(
        sizes in prop::collection::vec(2 * PAGE + 1..3 * PAGE + 40, CLASSES..(CLASSES + 1)),
        skew in prop::collection::vec((-2i64..4, -2i64..4), 7..8),
        base_links in prop::collection::vec((0..RELS, 0u32..400, 0u32..400), 0..600),
        batches in prop::collection::vec(prop::collection::vec(raw_write(400), 1..8), 2..6),
    ) {
        let tuples: Vec<Vec<(i64, i64, i64)>> = sizes
            .iter()
            .map(|&n| (0..n as usize).map(|i| {
                let (a1, a2) = skew[i % skew.len()];
                (A0_MIN + 2 * i as i64, a1, a2 * (i % 3) as i64)
            }).collect())
            .collect();
        check_batches(&catalog(), &tuples, &base_links, &batches, true);
    }
}

/// One write per batch at every edge of the value maps' pages, so that each
/// is compared with the oracle and round-trips through a snapshot on its own. All
/// three attributes of `c0` hold the even numbers `0..=4 * MAP_PAGE`: the
/// hash index, the B-tree index and the value counts are each two full pages
/// and a last page of one key.
#[test]
fn writes_at_value_map_page_edges_match_the_oracle() {
    let keys = |n: i64| (0..n).map(|i| (2 * i, 2 * i, 2 * i)).collect::<Vec<_>>();
    let tuples = [keys(2 * MAP_PAGE + 1), vec![(0, 0, 0)], vec![(0, 0, 0)]];
    let aimed = |attr: usize, key: i64, update: Option<i64>| {
        vec![RawWrite::Aimed { class: 0, attr, aim: Aim::Key(key), update }]
    };
    // The object holding `key` goes; `key` leaves one attribute after the
    // other; a new object holds `key`.
    let delete = |key: i64| vec![aimed(0, key, None)];
    let update = |key: i64, to: i64| (0..ATTRS).map(|a| aimed(a, key, Some(to))).collect();
    let insert =
        |key: i64| vec![vec![RawWrite::Insert { class: 0, vals: (key, key, key), links: vec![] }]];
    let last = 4 * MAP_PAGE;
    let batches: Vec<Vec<RawWrite>> = [
        // The sole key of the last page goes and the page is dropped; it
        // comes back past the map's last key, where a full page is not
        // split. Once by update, once by delete.
        update(last, 2),
        insert(last),
        delete(last),
        insert(last),
        // The first and the last key of a full page, and of the next one:
        // deleted, updated to a key of another page, inserted again.
        delete(0),
        update(2 * MAP_PAGE - 2, last),
        update(2 * MAP_PAGE, 0),
        delete(last - 2),
        insert(2 * MAP_PAGE - 2),
        insert(last - 2),
        // New keys between two keys of a page: the insert that finds its
        // page full splits it, the ones after fill the halves.
        (0..8).flat_map(|i| insert(2 * i + 1)).collect(),
        (0..8).flat_map(|i| insert(2 * (MAP_PAGE + i) + 1)).collect(),
        // Before the first key of the first page, and between two pages.
        insert(-1),
        insert(2 * MAP_PAGE - 1),
    ]
    .concat();
    check_batches(&catalog(), &tuples, &[], &batches, false);
}

/// Both write paths must reject an integrity violation the same way: a
/// second `r1` edge for one `c1` object trips the to-one end.
#[test]
fn scoped_integrity_rejects_identically() {
    let catalog = catalog();
    let base =
        build_base(&catalog, &[vec![], vec![(0, 0, 0)], vec![(1, 1, 1), (2, 2, 2)]], &[(1, 0, 0)]);
    let batch = vec![DataWrite::Link { rel: RelId(1), left: ObjectId(0), right: ObjectId(1) }];
    let a = base.with_writes(&batch, None);
    let b = base.with_writes_full(&batch);
    assert!(matches!(a, Err(StorageError::MultiplicityViolated { .. })), "{a:?}");
    match (a, b) {
        (Err(ea), Err(eb)) => assert_eq!(ea, eb),
        other => panic!("paths diverged: {other:?}"),
    }
}

/// The two cases the scoped check must not miss. A batch may break a
/// declaration and repair it before it ends: unlinking `c2` object 0's only
/// `r2` edge, then linking it again, is accepted. And an object appended
/// onto a not-full last page copies no adjacency page: an inserted `c2`
/// object without an `r2` link is refused, naming it, by both paths.
#[test]
fn scoped_check_covers_in_batch_repair_and_appended_objects() {
    let catalog = catalog();
    let base = build_base(&catalog, &[vec![], vec![], vec![(1, 1, 1), (2, 2, 2)]], &[]);
    let r2 = RelId(2);
    let relink = [
        DataWrite::Unlink { rel: r2, left: ObjectId(0), right: ObjectId(0) },
        DataWrite::Link { rel: r2, left: ObjectId(0), right: ObjectId(1) },
    ];
    let (a, b) = (base.with_writes(&relink, None), base.with_writes_full(&relink));
    let ((inc, _), (full, _)) = (a.unwrap(), b.unwrap());
    assert_equivalent(&catalog, &inc, &full);
    assert_eq!(inc.links(r2).from_left(ObjectId(0)), &[ObjectId(1)]);
    let insert =
        [DataWrite::Insert { class: ClassId(2), tuple: vec![Value::Int(3); 3], links: vec![] }];
    let unlinked = StorageError::TotalParticipationViolated {
        rel: r2,
        class: ClassId(2),
        object: ObjectId(2),
    };
    assert_eq!(base.with_writes(&insert, None).err(), Some(unlinked.clone()));
    assert_eq!(base.with_writes_full(&insert).err(), Some(unlinked));
}

/// The attributes of every class of [`typed_catalog`]: each value type
/// under each index kind and none (a Bool column is left unindexed twice).
fn typed_attributes() -> Vec<AttributeDef> {
    let mut attributes = Vec::new();
    for (ty, name) in
        [(DataType::Float, "f"), (DataType::Int, "i"), (DataType::Str, "s"), (DataType::Bool, "b")]
    {
        attributes.push(AttributeDef::indexed(format!("{name}_hash"), ty, IndexKind::Hash));
        attributes.push(AttributeDef::indexed(format!("{name}_btree"), ty, IndexKind::BTree));
        attributes.push(AttributeDef::new(format!("{name}_plain"), ty));
    }
    attributes
}

/// Three classes of [`typed_attributes`]; the last never holds an object.
const TYPED_CLASSES: usize = 3;

fn typed_catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    for c in 0..TYPED_CLASSES {
        b.class(format!("t{c}"), typed_attributes()).unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// Eight values of `ty` for the shapes that repeat values. The Float ones
/// hold `0.0` and `-0.0`, one value in two spellings; the strings order
/// differently bare and rendered ("a" < "a b", `"a"` > `"a b"`).
fn palette(ty: DataType) -> Vec<Value> {
    let float = |x: f64| Value::float(x).unwrap();
    match ty {
        DataType::Float => [-0.0, 0.0, 1.5, -2.25, 0.0, -0.0, 1e-3, 42.0].map(float).to_vec(),
        DataType::Int => (-3..5).map(Value::Int).collect(),
        DataType::Str => ["", "a", "a b", "ab", "b", "é", "10", "2"].map(Value::str).to_vec(),
        DataType::Bool => (0..8).map(|i| Value::Bool(i % 3 == 0)).collect(),
    }
}

/// The `i`-th of `n` values of `ty` that all differ, ascending in `i`
/// (Bool has two, so its "distinct" columns repeat).
fn distinct(ty: DataType, i: usize) -> Value {
    match ty {
        // Passes through zero at `i == 10`.
        DataType::Float => Value::float(-5.0 + i as f64 * 0.5).unwrap(),
        DataType::Int => Value::Int(i as i64 - 20),
        DataType::Str => Value::str(format!("s{i:03}")),
        DataType::Bool => Value::Bool(i % 2 == 1),
    }
}

/// How a generated column fills its rows.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Arbitrary picks from the palette: both zero spellings, skewed counts.
    Picks,
    /// One palette value in every row.
    AllEqual,
    /// The palette's first `k` values in turn: equal counts, so the most
    /// common values are decided by their renderings.
    Ties(usize),
    /// Every row its own value, ascending (an index's no-grouping path) or
    /// descending.
    Distinct { ascending: bool },
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Picks),
        Just(Shape::AllEqual),
        (2usize..6).prop_map(Shape::Ties),
        (0u8..2).prop_map(|up| Shape::Distinct { ascending: up == 1 }),
    ]
}

fn column(ty: DataType, shape: Shape, picks: &[usize], rows: usize) -> Vec<Value> {
    let palette = palette(ty);
    (0..rows)
        .map(|i| match shape {
            Shape::Picks => palette[picks[i % picks.len()] % palette.len()].clone(),
            Shape::AllEqual => palette[picks[0] % palette.len()].clone(),
            Shape::Ties(k) => palette[(picks[0] + i % k) % palette.len()].clone(),
            Shape::Distinct { ascending: true } => distinct(ty, i),
            Shape::Distinct { ascending: false } => distinct(ty, rows - 1 - i),
        })
        .collect()
}

/// `Debug`'s rendering tells `0.0` from `-0.0`, which `==` does not.
fn spelled(stats: &StatsSnapshot) -> String {
    format!("{stats:?}")
}

proptest! {
    /// Right after `finalize`, the statistics the load read off the indexes'
    /// postings equal a full extent rescan of every attribute — including
    /// which spelling of zero they report.
    #[test]
    fn load_statistics_equal_a_full_rescan(
        rows in prop::collection::vec(0usize..150, TYPED_CLASSES - 1..TYPED_CLASSES),
        columns in prop::collection::vec(
            (shape(), prop::collection::vec(0usize..8, 1..12)),
            12 * (TYPED_CLASSES - 1)..12 * (TYPED_CLASSES - 1) + 1,
        ),
    ) {
        let catalog = typed_catalog();
        let attributes = typed_attributes();
        let mut b = Database::builder(Arc::clone(&catalog));
        for (c, &n) in rows.iter().enumerate() {
            let generated: Vec<Vec<Value>> = attributes
                .iter()
                .zip(&columns[12 * c..12 * (c + 1)])
                .map(|(adef, (shape, picks))| column(adef.ty, *shape, picks, n))
                .collect();
            for i in 0..n {
                let tuple = generated.iter().map(|col| col[i].clone()).collect();
                b.insert(ClassId(c as u32), tuple).unwrap();
            }
        }
        let db = b
            .finalize(IntegrityOptions)
            .unwrap();
        let rescan = db.rebuild_statistics();
        prop_assert_eq!(db.stats(), &rescan);
        prop_assert_eq!(spelled(db.stats()), spelled(&rescan));
    }
}
