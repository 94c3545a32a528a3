//! Attribute indexes: hash (equality) and B-tree (equality + range).
//!
//! Both kinds keep their postings in one [`ValueMap`], keys in
//! [`OrdValue`](crate::OrdValue) order — the order `.sqos` stores either
//! kind in. The kind is what the catalog declared and decides only which
//! probes the index serves: a hash index refuses ranges, so plans and probe
//! counts are those of a hash table. A posting of two or more ids is one
//! shared, immutable allocation ([`Posting`]), so successive snapshots
//! share postings the way they share pages.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use sqo_catalog::{IndexKind, Value, ValueHashState};
use sqo_query::{Bound, CompOp, ValueSet};

use crate::counts::{canonical_update, CanonicalMap};
use crate::extent::{ColumnVec, Element};
use crate::object::ObjectId;
use crate::paged::PagedVec;
use crate::valuemap::ValueMap;

/// A secondary index over one attribute of one class: per value, the ids of
/// the objects holding it, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrIndex {
    pub(crate) kind: IndexKind,
    pub(crate) postings: ValueMap<Posting>,
}

/// One key's object ids, ascending: held inline while there is one, as for
/// every key of a unique attribute, so such a key allocates nothing; two or
/// more are one shared, immutable allocation of exactly their length. A
/// copied [`ValueMap`] page therefore clones one pointer per posting, and a
/// write rebuilds only the posting it changes, in one allocation. The same
/// size as an `Arc<[ObjectId]>`. Reads go through the slice it derefs to,
/// and two postings are equal when their ids are.
#[derive(Debug, Clone)]
pub(crate) enum Posting {
    One(ObjectId),
    /// Two or more ids, or none: a new posting, or one that was emptied.
    Many(Arc<[ObjectId]>),
}

const _: () = assert!(std::mem::size_of::<Posting>() == std::mem::size_of::<Arc<[ObjectId]>>());

impl Default for Posting {
    /// No ids; an empty `Arc` slice is a static, so this allocates nothing.
    fn default() -> Self {
        Posting::Many(Arc::default())
    }
}

impl From<&[ObjectId]> for Posting {
    /// `oids`, ascending: inline when there is one, else one allocation.
    fn from(oids: &[ObjectId]) -> Self {
        match *oids {
            [] => Posting::default(),
            [oid] => Posting::One(oid),
            _ => Posting::Many(Arc::from(oids)),
        }
    }
}

impl PartialEq for Posting {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::ops::Deref for Posting {
    type Target = [ObjectId];

    fn deref(&self) -> &[ObjectId] {
        match self {
            Posting::One(oid) => std::slice::from_ref(oid),
            Posting::Many(oids) => oids,
        }
    }
}

impl Posting {
    /// Inserts `oid` at position `at` of the ids: a new list, one allocation.
    fn insert(&mut self, at: usize, oid: ObjectId) {
        let (below, above) = self.split_at(at);
        *self = match (below, above) {
            ([], []) => Posting::One(oid),
            _ => {
                let oids = below.iter().copied().chain(std::iter::once(oid));
                Posting::Many(oids.chain(above.iter().copied()).collect())
            }
        };
    }

    /// Removes the id at `at`: a new list, one allocation; a last id left
    /// goes inline.
    fn remove(&mut self, at: usize) {
        let (below, above) = (&self[..at], &self[at + 1..]);
        *self = match (below, above) {
            ([], []) => Posting::default(),
            ([oid], []) | ([], [oid]) => Posting::One(*oid),
            _ => Posting::Many(below.iter().chain(above).copied().collect()),
        };
    }
}

/// The postings of a key attribute loaded in key order — nothing to group,
/// and no two values are equal — or `None` when `column` does not ascend
/// strictly. (An element type's order is `OrdValue`'s.)
fn ascending<T: Element>(column: &PagedVec<T>) -> Option<ValueMap<Posting>> {
    let elements = column.iter();
    elements.clone().zip(elements.skip(1)).all(|(a, b)| a < b).then(|| {
        let entries = column.iter().zip((0..).map(ObjectId));
        ValueMap::from_ascending(entries.map(|(v, oid)| (v.value(), Posting::One(oid))).collect())
    })
}

/// The postings of `column`: each distinct element's ascending object ids.
fn group<T: Element>(column: &PagedVec<T>) -> ValueMap<Posting> {
    ascending(column).unwrap_or_else(|| {
        let mut groups: HashMap<&T, u32, ValueHashState> = HashMap::default();
        let mut keys = Vec::new();
        let mut of = Vec::with_capacity(column.len());
        of.extend(column.iter().map(|v| {
            *groups.entry(v).or_insert_with(|| {
                keys.push(v.value());
                keys.len() as u32 - 1
            })
        }));
        cut(keys, &of)
    })
}

/// [`group`] for a string column, making its strings canonical on the way.
fn group_strings(column: &mut PagedVec<Arc<str>>) -> ValueMap<Posting> {
    ascending(column).unwrap_or_else(|| {
        let mut groups: CanonicalMap<Option<u32>> = HashMap::default();
        let mut keys = Vec::new();
        let mut of = Vec::with_capacity(column.len());
        for s in column.iter_mut() {
            let fresh = keys.len() as u32;
            let mut g = fresh;
            canonical_update(&mut groups, s, |group| g = *group.get_or_insert(fresh));
            if g == fresh {
                keys.push(Value::Str(Arc::clone(s)));
            }
            of.push(g);
        }
        cut(keys, &of)
    })
}

/// The postings of a grouping: `keys[g]` is filed over the objects `o` with
/// `of[o] == g`, ascending. A counting sort lays the ids out group after
/// group in one buffer, and each posting is cut from it with one
/// allocation (none for a single id).
fn cut(keys: Vec<Value>, of: &[u32]) -> ValueMap<Posting> {
    // `next[g + 1]` counts group `g`, then the sums make `next[g]` where
    // group `g` starts; placing the ids moves it to where `g` ends.
    let mut next = vec![0usize; keys.len() + 1];
    for &g in of {
        next[g as usize + 1] += 1;
    }
    for g in 1..next.len() {
        next[g] += next[g - 1];
    }
    let mut ids = vec![ObjectId(0); of.len()];
    for (&g, oid) in of.iter().zip((0..).map(ObjectId)) {
        ids[next[g as usize]] = oid;
        next[g as usize] += 1;
    }
    let mut start = 0;
    let postings =
        next.iter().map(|&end| Posting::from(&ids[std::mem::replace(&mut start, end)..end]));
    keys.into_iter().zip(postings).collect()
}

/// The one value a closed range `[v, v]` denotes — a point probe, which both
/// index kinds serve.
fn point<'a>(lo: &'a Bound, hi: &Bound) -> Option<&'a Value> {
    match (lo, hi) {
        (Bound::Included(a), Bound::Included(b)) if a.compare(b) == Some(Ordering::Equal) => {
            Some(a)
        }
        _ => None,
    }
}

impl AttrIndex {
    pub fn new(kind: IndexKind) -> Self {
        Self { kind, postings: ValueMap::default() }
    }

    /// The index of a whole attribute `column` — the bulk build of the load
    /// path and the `with_writes_full` oracle; it runs none of the point
    /// updates below. The grouping pass reads the column's raw elements and
    /// also makes its strings canonical: each string becomes a clone of the
    /// key its posting is filed under ([`canonical_update`]), so the column
    /// and the index share one allocation per distinct string. The column is
    /// the caller's own, not yet published, so the writes copy nothing.
    pub(crate) fn from_column(kind: IndexKind, column: &mut ColumnVec) -> Self {
        let postings = match column {
            ColumnVec::Int(c) => group(c),
            ColumnVec::Float(c) => group(c),
            ColumnVec::Str(c) => group_strings(c),
            ColumnVec::Bool(c) => group(c),
        };
        Self { kind, postings }
    }

    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Appends `oid`, which is above every id `value`'s posting holds.
    pub fn insert(&mut self, value: Value, oid: ObjectId) {
        let posting = self.postings.entry(value).1;
        posting.insert(posting.len(), oid);
    }

    /// Inserts `oid` into `value`'s posting at its sorted position, so
    /// incrementally patched indexes keep the ascending-oid posting order a
    /// from-scratch extent scan produces. (Plain [`AttrIndex::insert`] is for
    /// oids that arrive ascending and append.) Returns the key the posting is
    /// filed under — `value` itself when it is new — and the posting's length.
    pub fn insert_sorted(&mut self, value: Value, oid: ObjectId) -> (&Value, usize) {
        let (key, posting) = self.postings.entry(value);
        let at = posting.partition_point(|o| o.index() < oid.index());
        posting.insert(at, oid);
        (key, posting.len())
    }

    /// Removes `oid` from `value`'s posting; empty postings drop their key
    /// (so range probes of a patched index touch exactly the entries a
    /// rebuilt index would). Returns `false` when the entry was absent.
    pub fn remove(&mut self, value: &Value, oid: ObjectId) -> bool {
        let Some(posting) = self.postings.get_mut(value) else { return false };
        let Some(at) = posting.iter().position(|&o| o == oid) else { return false };
        posting.remove(at);
        if posting.is_empty() {
            self.postings.remove(value);
        }
        true
    }

    /// Equality probe; both index kinds support it.
    pub fn probe_eq(&self, value: &Value) -> &[ObjectId] {
        self.postings.get(value).map_or(&[], |posting| posting)
    }

    /// Whether this index can serve `set` at all.
    pub fn supports(&self, set: &ValueSet) -> bool {
        match set {
            ValueSet::Range { lo, hi } => self.kind == IndexKind::BTree || point(lo, hi).is_some(),
            ValueSet::Hole(_) => false,
        }
    }

    /// Whether this index can serve a predicate with operator `op`, whatever
    /// its literal: [`AttrIndex::supports`] of the predicate's value set,
    /// without building the set. A point is any index's, a range only a
    /// B-tree's, a hole none's.
    pub fn serves(&self, op: CompOp) -> bool {
        match op {
            CompOp::Eq => true,
            CompOp::Ne => false,
            CompOp::Lt | CompOp::Le | CompOp::Gt | CompOp::Ge => self.kind == IndexKind::BTree,
        }
    }

    /// Probes the index with a value set; `None` when unsupported.
    /// The returned `probes` count feeds the page-cost model.
    pub fn probe(&self, set: &ValueSet) -> Option<IndexScanResult> {
        let ValueSet::Range { lo, hi } = set else { return None };
        if let Some(value) = point(lo, hi) {
            return Some(IndexScanResult { oids: self.probe_eq(value).to_vec(), probes: 1 });
        }
        if self.kind == IndexKind::Hash {
            return None;
        }
        let mut oids = Vec::new();
        let mut probes = 1u64; // root-to-leaf descent
        for (_, posting) in self.postings.range(lo, hi) {
            probes += 1; // leaf entry touch
            oids.extend_from_slice(posting);
        }
        Some(IndexScanResult { oids, probes })
    }

    /// Every key with its posting, keys in [`OrdValue`](crate::OrdValue) order.
    pub fn entries(&self) -> impl Iterator<Item = (&Value, &[ObjectId])> {
        self.postings.iter().map(|(key, posting)| (key, &**posting))
    }

    pub fn len(&self) -> usize {
        self.postings.iter().map(|(_, posting)| posting.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of an index probe.
#[derive(Debug, Clone)]
pub struct IndexScanResult {
    pub oids: Vec<ObjectId>,
    /// Number of index node/entry touches (feeds the cost model).
    pub probes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuemap::OrdValue;

    #[test]
    fn serves_is_supports_of_the_value_set() {
        use sqo_query::SelPredicate;
        let attr =
            sqo_catalog::AttrRef { class: sqo_catalog::ClassId(0), attr: sqo_catalog::AttrId(0) };
        let literals = [
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::Bool(false),
            Value::Bool(true),
            Value::str("x"),
            Value::Float(sqo_catalog::Finite::new(-0.0).unwrap()),
            Value::Float(sqo_catalog::Finite::new(f64::INFINITY).unwrap()),
        ];
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let ix = AttrIndex::new(kind);
            for op in [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
                for value in &literals {
                    let p = SelPredicate::new(attr, op, value.clone());
                    assert_eq!(
                        ix.serves(op),
                        ix.supports(&p.value_set()),
                        "{kind:?} {op:?} {value:?}"
                    );
                }
            }
        }
    }

    fn loaded(kind: IndexKind) -> AttrIndex {
        let mut ix = AttrIndex::new(kind);
        for (i, v) in [5i64, 3, 7, 5, 9].into_iter().enumerate() {
            ix.insert(Value::Int(v), ObjectId(i as u32));
        }
        ix
    }

    #[test]
    fn hash_eq_probe() {
        let ix = loaded(IndexKind::Hash);
        let hits = ix.probe_eq(&Value::Int(5));
        assert_eq!(hits, &[ObjectId(0), ObjectId(3)]);
        assert!(ix.probe_eq(&Value::Int(42)).is_empty());
        assert_eq!(ix.len(), 5);
    }

    #[test]
    fn btree_range_probe() {
        let ix = loaded(IndexKind::BTree);
        let res = ix.probe(&ValueSet::at_least(Value::Int(6))).unwrap();
        let mut oids = res.oids.clone();
        oids.sort_unstable();
        assert_eq!(oids, vec![ObjectId(2), ObjectId(4)]); // values 7 and 9
        assert!(res.probes >= 2);
    }

    #[test]
    fn btree_point_probe() {
        let ix = loaded(IndexKind::BTree);
        let res = ix.probe(&ValueSet::point(Value::Int(5))).unwrap();
        assert_eq!(res.oids, vec![ObjectId(0), ObjectId(3)]);
        assert_eq!(res.probes, 1);
    }

    #[test]
    fn hash_rejects_ranges_but_takes_points() {
        let ix = loaded(IndexKind::Hash);
        assert!(ix.probe(&ValueSet::at_least(Value::Int(6))).is_none());
        assert!(!ix.supports(&ValueSet::at_least(Value::Int(6))));
        assert!(ix.supports(&ValueSet::point(Value::Int(5))));
        let res = ix.probe(&ValueSet::point(Value::Int(5))).unwrap();
        assert_eq!(res.oids.len(), 2);
    }

    #[test]
    fn holes_are_never_index_served() {
        let ix = loaded(IndexKind::BTree);
        assert!(ix.probe(&ValueSet::hole(Value::Int(5))).is_none());
    }

    #[test]
    fn inverted_range_is_empty_not_panicking() {
        let ix = loaded(IndexKind::BTree);
        let inverted = ValueSet::Range {
            lo: Bound::Included(Value::Int(9)),
            hi: Bound::Included(Value::Int(1)),
        };
        let res = ix.probe(&inverted).unwrap();
        assert!(res.oids.is_empty());
    }

    #[test]
    fn patched_postings_match_a_rebuild() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut ix = loaded(kind); // values [5, 3, 7, 5, 9] at oids 0..5
            assert!(ix.remove(&Value::Int(5), ObjectId(0)));
            ix.insert_sorted(Value::Int(5), ObjectId(1));
            assert_eq!(ix.probe_eq(&Value::Int(5)), &[ObjectId(1), ObjectId(3)]);
            // Removing the last entry drops the key entirely.
            assert!(ix.remove(&Value::Int(3), ObjectId(1)));
            assert!(ix.probe_eq(&Value::Int(3)).is_empty());
            assert!(!ix.remove(&Value::Int(3), ObjectId(1)), "already gone");
            assert!(!ix.remove(&Value::Int(42), ObjectId(0)), "unknown value");
            if kind == IndexKind::BTree {
                // The dropped key must not be touched by range probes.
                let res = ix.probe(&ValueSet::at_least(Value::Int(0))).unwrap();
                assert_eq!(res.oids.len(), 4);
            }
        }
    }

    #[test]
    fn ord_value_totality() {
        let mut vals = [
            OrdValue(Value::str("b")),
            OrdValue(Value::Int(2)),
            OrdValue(Value::Bool(true)),
            OrdValue(Value::Int(1)),
            OrdValue(Value::str("a")),
        ];
        vals.sort();
        assert_eq!(vals[0], OrdValue(Value::Bool(true)));
        assert_eq!(vals[1], OrdValue(Value::Int(1)));
        assert_eq!(vals[4], OrdValue(Value::str("b")));
    }
}
