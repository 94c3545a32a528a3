//! Attribute statistics from value counts — from scratch and by delta.
//!
//! An attribute's [`AttrStats`] is a function of its value → count map:
//! [`summarize`] derives `distinct`, `min`/`max` and the most common values
//! from one pass over the map's entries. An indexed attribute needs no map of
//! its own: its index's postings are its counts, one length per value.
//!
//! A load and a class's first write build a class's statistics the same way
//! ([`load_class_statistics`], [`ClassPatch::scan`]): an indexed attribute's
//! off its postings, and only the unindexed attributes' from a scan of their
//! columns, one pass into one map per attribute, keyed by the column's raw
//! elements (`i64`, `Finite`, `bool`, `Arc<str>`). The load's scan also makes
//! each string it counts canonical ([`canonical_update`]): the column takes
//! a clone of the map's key, so a loaded class holds one allocation per
//! distinct string of an attribute, as a snapshot load's does. Only the
//! distinct values are made [`Value`]s, once the pass is done.
//! `Database::with_writes_full` builds its result as a load does.
//! `Database::rebuild_statistics` keeps a scan of every attribute
//! ([`class_statistics`]), which is the reference the load and the write
//! path are checked against. Every scan's map hashes with
//! `sqo_catalog::ValueHashState`.
//!
//! The write path keeps the counts instead, in [`ValueMap`]s that successive
//! snapshots share page by page. For the unindexed attributes a
//! [`ClassCounts`] holds one value → count map per attribute, built by one
//! column scan each on the first write that touches the class (loading a database
//! builds none). From then on a [`ClassPatch`] applies each inserted, deleted
//! or updated value, copying only the page the value lives in — a written
//! string takes the key the map already holds, so it stays canonical — and
//! keeps the most common values current in O(1) per value; `distinct`,
//! `min` and `max` are the map's length and ends when the batch closes.
//! Only when a batch decrements a value that is among the most common does
//! that attribute get one [`summarize`] pass over its distinct values at
//! the end of the batch.
//!
//! Either way the result is the same function of the same counts, so a
//! loaded or patched [`ClassStats`] equals a from-scratch one (`tests/
//! prop_incremental.rs` checks it after the load and after every batch). One
//! caveat: `0.0` and `-0.0` are one value (`Value`'s `Eq`), and which
//! spelling a statistic reports follows which was counted first — in
//! object-id order for a scan and for an index's grouping alike, in write
//! order for the counts a write path keeps. So that spelling never orders
//! the most common values, a zero breaks a count tie as `0` either way.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use sqo_catalog::{AttrStats, ClassStats, Value, ValueHashState};

use crate::extent::{ColumnVec, Element, Extent};
use crate::index::AttrIndex;
use crate::object::ObjectId;
use crate::paged::PagedVec;
use crate::valuemap::ValueMap;

/// How many most-common values an attribute's statistics keep.
const MCVS: usize = 3;

/// `Display`'s rendering of `v` compared to that of `w`, for two values of
/// one attribute (one type) — what ties between equally common values are
/// broken by. Integers and strings, the bulk of any extent, compare without
/// rendering. A zero renders as `0` whatever its sign: `0.0` and `-0.0` are
/// one value, so the order must not depend on which spelling was counted.
fn cmp_rendering(v: &Value, w: &Value) -> Ordering {
    fn decimal(i: i64, buf: &mut [u8; 20]) -> &[u8] {
        let mut rest = i.unsigned_abs();
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if i < 0 {
            at -= 1;
            buf[at] = b'-';
        }
        &buf[at..]
    }
    match (v, w) {
        (Value::Int(a), Value::Int(b)) => decimal(*a, &mut [0; 20]).cmp(decimal(*b, &mut [0; 20])),
        // Strings render inside quotes, and the closing quote sorts above a
        // space or `!`: "a" > "a b", unlike the bare strings.
        (Value::Str(a), Value::Str(b)) => a.bytes().chain([b'"']).cmp(b.bytes().chain([b'"'])),
        (Value::Float(a), Value::Float(b)) => {
            let render = |x: f64| if x == 0.0 { 0.0 } else { x }.to_string();
            render(a.get()).cmp(&render(b.get()))
        }
        _ => v.to_string().cmp(&w.to_string()),
    }
}

/// The order of the most-common-values list: count descending, then
/// rendering ascending. Renders only on a count tie.
fn mcv_order(a: (&Value, u64), b: (&Value, u64)) -> Ordering {
    b.1.cmp(&a.1).then_with(|| cmp_rendering(a.0, b.0))
}

/// One attribute's statistics from its `(distinct value, count)` entries, in
/// one pass and in any entry order.
fn summarize<'a>(entries: impl Iterator<Item = (&'a Value, u64)>, rows: u64) -> AttrStats {
    let mut distinct = 0;
    let (mut min, mut max): (Option<&Value>, Option<&Value>) = (None, None);
    let mut top: Vec<(&Value, u64)> = Vec::with_capacity(MCVS + 1);
    for (v, count) in entries {
        distinct += 1;
        if min.map_or(true, |m| v.compare(m) == Some(Ordering::Less)) {
            min = Some(v);
        }
        if max.map_or(true, |m| v.compare(m) == Some(Ordering::Greater)) {
            max = Some(v);
        }
        if top.len() < MCVS || mcv_order((v, count), top[MCVS - 1]) == Ordering::Less {
            let at = top.partition_point(|&t| mcv_order(t, (v, count)) == Ordering::Less);
            top.insert(at, (v, count));
            top.truncate(MCVS);
        }
    }
    AttrStats {
        rows,
        distinct,
        min: min.cloned(),
        max: max.cloned(),
        mcvs: top.into_iter().map(|(v, count)| (v.clone(), count)).collect(),
    }
}

/// One attribute's distinct values, each with how many objects hold it, in
/// no particular order.
type ScannedCounts = Vec<(Value, u64)>;

/// A string column's string → entry map that holds, beside each entry, the
/// string the column keeps for the key: a clone of the key itself.
/// (`HashMap` has no lookup by a borrowed key that yields the stored key
/// with its entry; taking it through `entry` costs each row a clone, two
/// reference-count updates, which at 20,000 objects per class was most of
/// what canonicalizing added to a load.)
pub(crate) type CanonicalMap<T> = HashMap<Arc<str>, (Arc<str>, T), ValueHashState>;

/// Applies `update` to `map`'s entry for `s`, inserted as `T::default()` on
/// a miss, and makes `s` canonical: a repeat becomes a clone of the string
/// the map holds for it, so one pass over a column leaves one allocation
/// per distinct string, shared with the map's keys. A string that already
/// is that allocation is not written, so loading canonical input dirties
/// nothing and touches no reference count. Only strings are made
/// canonical: an element of another type holds no allocation.
pub(crate) fn canonical_update<T: Default>(
    map: &mut CanonicalMap<T>,
    s: &mut Arc<str>,
    update: impl FnOnce(&mut T),
) {
    if let Some((canonical, entry)) = map.get_mut(&**s) {
        if !Arc::ptr_eq(s, canonical) {
            *s = Arc::clone(canonical);
        }
        update(entry);
        return;
    }
    let mut entry = T::default();
    update(&mut entry);
    map.insert(Arc::clone(s), (Arc::clone(s), entry));
}

/// The distinct values of `column`, each with its count: one pass keyed by
/// the raw elements.
fn tally(column: &ColumnVec) -> ScannedCounts {
    match column {
        ColumnVec::Int(c) => tally_of(c),
        ColumnVec::Float(c) => tally_of(c),
        ColumnVec::Str(c) => tally_of(c),
        ColumnVec::Bool(c) => tally_of(c),
    }
}

fn tally_of<T: Element>(column: &PagedVec<T>) -> ScannedCounts {
    let mut counts: HashMap<&T, u64, ValueHashState> = HashMap::default();
    for v in column.iter() {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts.into_iter().map(|(v, count)| (v.value(), count)).collect()
}

/// [`tally`], making a string column's strings canonical on the way
/// ([`canonical_update`]). For a column still owned alone — a load's — so
/// the writes copy nothing.
fn tally_canonical(column: &mut ColumnVec) -> ScannedCounts {
    let ColumnVec::Str(strings) = column else { return tally(column) };
    let mut counts: CanonicalMap<u64> = HashMap::default();
    for s in strings.iter_mut() {
        canonical_update(&mut counts, s, |count| *count += 1);
    }
    counts.into_iter().map(|(s, (_, count))| (Value::Str(s), count)).collect()
}

/// One attribute's statistics from a scan of its `column`.
fn scan_attribute(column: &ColumnVec) -> AttrStats {
    let counts = tally(column);
    summarize(counts.iter().map(|(v, count)| (v, *count)), column.len() as u64)
}

/// One class's statistics from one scan of each column — the reference
/// (`Database::rebuild_statistics`).
pub(crate) fn class_statistics(extent: &Extent) -> ClassStats {
    let attrs = extent.columns().iter().map(scan_attribute).collect();
    ClassStats { cardinality: extent.len() as u64, attrs }
}

/// One class of `rows` objects' statistics with `indexes` built: an indexed
/// attribute's off its postings, one count per posting length, and an
/// unindexed attribute's off its `scanned` counts, which hold one entry per
/// unindexed attribute in attribute order. `keep` receives each
/// attribute's counts in attribute order (`None` where an index counted).
fn statistics_with(
    indexes: &[Option<AttrIndex>],
    rows: usize,
    scanned: Vec<ScannedCounts>,
    mut keep: impl FnMut(Option<ScannedCounts>),
) -> ClassStats {
    let rows = rows as u64;
    let mut scanned = scanned.into_iter();
    let mut attrs = Vec::with_capacity(indexes.len());
    for index in indexes {
        let counts = match index {
            Some(index) => {
                let posted = index.postings.iter().map(|(v, posting)| (v, posting.len() as u64));
                attrs.push(summarize(posted, rows));
                None
            }
            None => {
                let counts = scanned.next().unwrap_or_default();
                attrs.push(summarize(counts.iter().map(|(v, count)| (v, *count)), rows));
                Some(counts)
            }
        };
        keep(counts);
    }
    ClassStats { cardinality: rows, attrs }
}

/// The load's statistics of one class with `indexes` built: each unindexed
/// attribute is counted in one scan of its column, which also makes its
/// strings canonical ([`canonical_update`]) — the indexed attributes' were
/// made so by their index build. The extent is the load's own, so the
/// writes copy nothing.
pub(crate) fn load_class_statistics(
    indexes: &[Option<AttrIndex>],
    extent: &mut Extent,
) -> ClassStats {
    let rows = extent.len();
    let columns = indexes.iter().zip(extent.columns_mut());
    let scanned =
        columns.filter(|(index, _)| index.is_none()).map(|(_, c)| tally_canonical(c)).collect();
    statistics_with(indexes, rows, scanned, drop)
}

/// Counts one more `v`; returns the key it is counted under and its new
/// count.
fn increment<'m>(counts: &'m mut ValueMap<u64>, v: &Value) -> (&'m Value, u64) {
    let (key, count) = counts.entry(v.clone());
    *count += 1;
    (key, *count)
}

/// Counts one fewer `v`; a value no longer held leaves the map.
fn decrement(counts: &mut ValueMap<u64>, v: &Value) {
    match counts.get_mut(v) {
        Some(count) if *count > 1 => *count -= 1,
        Some(_) => _ = counts.remove(v),
        None => debug_assert!(false, "counts drifted from the extent: {v} was never counted"),
    }
}

/// The value counts of one class, as of one snapshot: per attribute its
/// value → count map, or `None` where an index's postings are the counts.
pub(crate) type ClassCounts = Vec<Option<ValueMap<u64>>>;

/// One class's indexes, counts and statistics while a write batch is
/// applied: each written value goes into its attribute's index where the
/// catalog declares one and into its counts otherwise, and from there into
/// the statistics. The indexes (one slot per attribute) stay with the
/// caller, which passes them to every call.
#[derive(Debug)]
pub(crate) struct ClassPatch {
    counts: ClassCounts,
    stats: ClassStats,
    /// Per attribute: the batch decremented one of the most common values,
    /// so the statistics are recomputed when the batch ends.
    stale: Vec<bool>,
}

impl ClassPatch {
    /// Starts from a class no write has touched since it was loaded, before
    /// the batch changes it: statistics that owe nothing to the loaded ones,
    /// from the index where there is one and else from one scan of the
    /// column, which also builds the unindexed attributes' counts.
    pub(crate) fn scan(indexes: &[Option<AttrIndex>], extent: &Extent) -> Self {
        let columns = indexes.iter().zip(extent.columns());
        let scanned = columns.filter(|(index, _)| index.is_none()).map(|(_, c)| tally(c)).collect();
        let mut counts = ClassCounts::with_capacity(indexes.len());
        let stats = statistics_with(indexes, extent.len(), scanned, |scanned| {
            counts.push(scanned.map(ValueMap::from_iter));
        });
        Self { counts, stats, stale: vec![false; indexes.len()] }
    }

    /// Resumes from the counts and statistics an earlier write left.
    pub(crate) fn resume(counts: &ClassCounts, stats: &ClassStats) -> Self {
        Self { counts: counts.clone(), stats: stats.clone(), stale: vec![false; counts.len()] }
    }

    /// Object `oid` now holds `v` in attribute `attr`. A string `v` becomes
    /// a clone of the key its index or counts file it under, so the written
    /// tuple shares the allocation its equals in the class hold.
    pub(crate) fn add(
        &mut self,
        indexes: &mut [Option<AttrIndex>],
        attr: usize,
        v: &mut Value,
        oid: ObjectId,
    ) {
        let (key, count) = match (&mut indexes[attr], &mut self.counts[attr]) {
            (Some(index), _) => {
                let (key, posted) = index.insert_sorted(v.clone(), oid);
                (key, posted as u64)
            }
            (None, Some(counts)) => increment(counts, v),
            (None, None) => return debug_assert!(false, "attribute {attr}: no counts, no index"),
        };
        if matches!(v, Value::Str(_)) {
            *v = key.clone();
        }
        let v = &*v;
        if self.stale[attr] {
            return;
        }
        let stats = &mut self.stats.attrs[attr];
        // A count that rose can only move its value up the list.
        if let Some(at) = stats.mcvs.iter().position(|(m, _)| m == v) {
            stats.mcvs[at].1 = count;
        } else if stats.mcvs.len() < MCVS
            || stats.mcvs.last().is_some_and(|(m, c)| mcv_order((v, count), (m, *c)).is_lt())
        {
            stats.mcvs.push((v.clone(), count));
        } else {
            return;
        }
        stats.mcvs.sort_by(|a, b| mcv_order((&a.0, a.1), (&b.0, b.1)));
        stats.mcvs.truncate(MCVS);
    }

    /// Object `oid` no longer holds `v` in attribute `attr`.
    pub(crate) fn remove(
        &mut self,
        indexes: &mut [Option<AttrIndex>],
        attr: usize,
        v: &Value,
        oid: ObjectId,
    ) {
        match (&mut indexes[attr], &mut self.counts[attr]) {
            (Some(index), _) => _ = index.remove(v, oid),
            (None, Some(counts)) => decrement(counts, v),
            (None, None) => debug_assert!(false, "attribute {attr}: no counts, no index"),
        }
        // Which value takes a vacated place is not known without a pass over
        // the distinct values; one pass per attribute, when the batch ends.
        self.stale[attr] |= self.stats.attrs[attr].mcvs.iter().any(|(m, _)| m == v);
    }

    /// Ends the batch for a class that now holds `rows` objects.
    pub(crate) fn finish(
        mut self,
        indexes: &[Option<AttrIndex>],
        rows: usize,
    ) -> (ClassCounts, ClassStats) {
        let rows = rows as u64;
        self.stats.cardinality = rows;
        for (attr, (stats, stale)) in self.stats.attrs.iter_mut().zip(self.stale).enumerate() {
            match (&indexes[attr], &self.counts[attr]) {
                (Some(index), _) => close(stats, &index.postings, |p| p.len() as u64, stale, rows),
                (None, Some(counts)) => close(stats, counts, |count| *count, stale, rows),
                (None, None) => debug_assert!(false, "attribute {attr}: no counts, no index"),
            }
        }
        (self.counts, self.stats)
    }
}

/// Brings one attribute's statistics up to its value-keyed `map` as the batch
/// left it, `count` being what an entry counts for.
fn close<V>(
    stats: &mut AttrStats,
    map: &ValueMap<V>,
    count: impl Fn(&V) -> u64,
    stale: bool,
    rows: u64,
) {
    if stale {
        *stats = summarize(map.iter().map(|(v, entry)| (v, count(entry))), rows);
    } else {
        stats.rows = rows;
        stats.distinct = map.len() as u64;
        stats.min = map.first().map(|(v, _)| v.clone());
        stats.max = map.last().map(|(v, _)| v.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_order_matches_display_without_rendering() {
        let ints = [0, 1, 9, 10, 11, 99, 100, -1, -10, -9, 20_000, 19_999, i64::MAX, i64::MIN];
        let strs = ["", "a", "a b", "a!", "a\"", "ab", "b", "é", "a#"];
        let values: Vec<Value> =
            ints.iter().map(|&i| Value::Int(i)).chain(strs.iter().map(Value::str)).collect();
        for v in &values {
            for w in &values {
                if v.data_type() == w.data_type() {
                    assert_eq!(cmp_rendering(v, w), v.to_string().cmp(&w.to_string()), "{v} {w}");
                }
            }
        }
        let floats = [Value::float(1.5).unwrap(), Value::float(-2.0).unwrap()];
        assert_eq!(cmp_rendering(&floats[0], &floats[1]), "1.5".cmp("-2"));
        assert_eq!(cmp_rendering(&Value::Bool(false), &Value::Bool(true)), Ordering::Less);
    }

    #[test]
    fn the_spelling_of_zero_orders_no_statistic() {
        let f = |x: f64| Value::float(x).unwrap();
        let (minus, plus, other) = (f(-0.0), f(0.0), f(-1.5));
        let with = |zero: &Value| summarize([(zero, 1), (&other, 1)].into_iter(), 2);
        assert_eq!(with(&minus), with(&plus));
        assert_eq!(with(&minus).mcvs, vec![(other.clone(), 1), (plus, 1)]);
    }

    #[test]
    fn summarize_picks_the_same_top_three_as_a_full_sort() {
        // All ties: the three smallest renderings win, "10" before "2".
        let values: Vec<Value> = (0..40).map(Value::Int).collect();
        let ties = summarize(values.iter().rev().map(|v| (v, 1)), 40);
        let top: Vec<_> = ties.mcvs.iter().map(|(v, c)| (v.as_int().unwrap(), *c)).collect();
        assert_eq!(top, vec![(0, 1), (1, 1), (10, 1)]);
        assert_eq!(
            (ties.distinct, ties.min, ties.max),
            (40, Some(Value::Int(0)), Some(Value::Int(39)))
        );
        // Counts dominate renderings.
        let skew = summarize(values.iter().map(|v| (v, v.as_int().unwrap() as u64 % 7)), 0);
        let top: Vec<_> = skew.mcvs.iter().map(|(v, c)| (v.as_int().unwrap(), *c)).collect();
        assert_eq!(top, vec![(13, 6), (20, 6), (27, 6)]);
        assert_eq!(summarize(std::iter::empty(), 0), AttrStats::default());
    }

    #[test]
    fn value_counts_split_as_they_grow_and_keep_every_count() {
        let mut counts: ValueMap<u64> = HashMap::<Value, u64>::new().into_iter().collect();
        assert_eq!(counts.page_count(), 0);
        // Five bulk-built pages' worth of keys, arriving in descending order:
        // every insert lands in the first page, which keeps splitting.
        let n = 5 * 64;
        for round in 1..=2 {
            for i in (0..n).rev() {
                assert_eq!(increment(&mut counts, &Value::Int(i)).1, round);
            }
        }
        assert_eq!(counts.page_count(), 9, "one page, then a split per 32 further keys");
        assert_eq!(counts.len(), n as usize);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 2 * n as u64);
        for round in (0..2).rev() {
            for i in 0..n {
                decrement(&mut counts, &Value::Int(i));
                assert_eq!(counts.get(&Value::Int(i)).copied().unwrap_or(0), round);
            }
        }
        assert_eq!((counts.len(), counts.iter().count(), counts.page_count()), (0, 0, 0));
    }
}
