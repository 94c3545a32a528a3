//! Attribute statistics from value counts — from scratch and by delta.
//!
//! An attribute's [`AttrStats`] is a function of its value → count map:
//! [`summarize`] derives `distinct`, `min`/`max` and the most common values
//! from one pass over the map's entries. The load path, the Audit
//! re-derivation and the `with_writes_full` oracle build a throw-away map
//! per attribute ([`class_statistics`]).
//!
//! The write path keeps the maps instead. A [`ClassCounts`] holds, per
//! attribute, the map split by value hash into sub-maps behind `Arc`s that
//! successive snapshots share; it is built by one extent scan on the first
//! write that touches a class (loading a database builds none) and from
//! then on a [`ClassPatch`] applies each inserted, deleted or updated value
//! to it, copying only the sub-maps those values live in. Per value the
//! patch keeps `distinct`, `min`/`max` and the most common values current
//! in O(1); only when a batch removes the last copy of the current minimum
//! or maximum, or decrements a value that is among the most common, does
//! that attribute get one [`summarize`] pass over its distinct values at
//! the end of the batch.
//!
//! Either way the result is the same function of the same counts, so a
//! patched [`ClassStats`] equals a from-scratch one (`tests/
//! prop_incremental.rs` checks it after every batch). One caveat: `0.0` and
//! `-0.0` are one value (`Value`'s `Eq`), and which spelling a statistic
//! reports follows which was counted first.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sqo_catalog::{AttrStats, ClassStats, Value};

use crate::db::Extent;

/// How many most-common values an attribute's statistics keep.
const MCVS: usize = 3;

/// Distinct values per sub-map a [`ValueCounts`] is built for; it doubles
/// its sub-map count when the average passes twice this.
const SHARD_TARGET: usize = 128;

/// `Display`'s rendering of `v` compared to that of `w`, for two values of
/// one attribute (one type) — what ties between equally common values are
/// broken by. Integers and strings, the bulk of any extent, compare without
/// rendering.
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
        histogram: Vec::new(),
    }
}

/// Attribute `attr`'s value → count map over `extent`, keys borrowed, and
/// the statistics it summarizes to.
fn scan_attribute(extent: &Extent, attr: usize) -> (HashMap<&Value, u64>, AttrStats) {
    let mut counts = HashMap::new();
    for tuple in extent.iter() {
        *counts.entry(&tuple[attr]).or_insert(0) += 1;
    }
    let stats = summarize(counts.iter().map(|(v, count)| (*v, *count)), extent.len() as u64);
    (counts, stats)
}

/// One class's statistics from one extent scan per attribute — the
/// from-scratch path (load, Audit, oracle).
pub(crate) fn class_statistics(attr_count: usize, extent: &Extent) -> ClassStats {
    let attrs = (0..attr_count).map(|attr| scan_attribute(extent, attr).1).collect();
    ClassStats { cardinality: extent.len() as u64, attrs }
}

/// One attribute's value → count map, split by value hash into `Arc`'d
/// sub-maps so that a successor snapshot copies only the sub-maps it
/// changes. The sub-map count is a power of two.
#[derive(Debug, Clone)]
struct ValueCounts {
    shards: Vec<Arc<HashMap<Value, u64>>>,
    distinct: usize,
}

impl ValueCounts {
    fn with_shards(shards: usize) -> Self {
        Self { shards: vec![Arc::default(); shards], distinct: 0 }
    }

    fn from_counts(counts: &HashMap<&Value, u64>) -> Self {
        let mut built = Self::with_shards((counts.len() / SHARD_TARGET).max(1).next_power_of_two());
        for (&v, &count) in counts {
            built.shard_mut(v).insert(v.clone(), count);
        }
        built.distinct = counts.len();
        built
    }

    /// The sub-map `v` lives in, copied first if a snapshot shares it.
    fn shard_mut(&mut self, v: &Value) -> &mut HashMap<Value, u64> {
        // A fixed-key hasher: a value must find its sub-map again in every
        // successor, and the sub-maps' own (randomly keyed) hashing is
        // independent of the split.
        let mut hasher = DefaultHasher::new();
        v.hash(&mut hasher);
        let at = hasher.finish() as usize & (self.shards.len() - 1);
        Arc::make_mut(&mut self.shards[at])
    }

    fn entries(&self) -> impl Iterator<Item = (&Value, u64)> {
        self.shards.iter().flat_map(|shard| shard.iter().map(|(v, count)| (v, *count)))
    }

    /// Counts one more `v`; returns its new count.
    fn increment(&mut self, v: &Value) -> u64 {
        let shard = self.shard_mut(v);
        if let Some(count) = shard.get_mut(v) {
            *count += 1;
            return *count;
        }
        shard.insert(v.clone(), 1);
        self.distinct += 1;
        if self.distinct > 2 * SHARD_TARGET * self.shards.len() {
            let mut doubled = Self::with_shards(2 * self.shards.len());
            for (v, count) in self.entries() {
                doubled.shard_mut(v).insert(v.clone(), count);
            }
            self.shards = doubled.shards;
        }
        1
    }

    /// Counts one fewer `v`; returns its new count.
    fn decrement(&mut self, v: &Value) -> u64 {
        let shard = self.shard_mut(v);
        match shard.get_mut(v) {
            Some(count) if *count > 1 => {
                *count -= 1;
                *count
            }
            Some(_) => {
                shard.remove(v);
                self.distinct -= 1;
                0
            }
            None => {
                debug_assert!(false, "counts drifted from the extent: {v} was never counted");
                0
            }
        }
    }
}

/// The value counts of every attribute of one class, as of one snapshot.
#[derive(Debug, Clone)]
pub(crate) struct ClassCounts {
    attrs: Vec<ValueCounts>,
}

/// One class's counts and statistics while a write batch is applied.
#[derive(Debug)]
pub(crate) struct ClassPatch {
    counts: ClassCounts,
    stats: ClassStats,
    /// Per attribute: the batch removed a current `min`/`max`/`mcvs` holder,
    /// so those three are recomputed when the batch ends.
    stale: Vec<bool>,
}

impl ClassPatch {
    /// Starts from a class no write has touched since it was loaded: one
    /// scan builds the counts and, from them, statistics that owe nothing
    /// to the loaded ones.
    pub(crate) fn scan(attr_count: usize, extent: &Extent) -> Self {
        let mut stats =
            ClassStats { cardinality: extent.len() as u64, attrs: Vec::with_capacity(attr_count) };
        let mut counts = ClassCounts { attrs: Vec::with_capacity(attr_count) };
        for attr in 0..attr_count {
            let (scanned, summary) = scan_attribute(extent, attr);
            stats.attrs.push(summary);
            counts.attrs.push(ValueCounts::from_counts(&scanned));
        }
        Self { counts, stats, stale: vec![false; attr_count] }
    }

    /// Resumes from the counts and statistics an earlier write left.
    pub(crate) fn resume(counts: &ClassCounts, stats: &ClassStats) -> Self {
        Self {
            counts: counts.clone(),
            stats: stats.clone(),
            stale: vec![false; counts.attrs.len()],
        }
    }

    pub(crate) fn insert(&mut self, tuple: &[Value]) {
        for (attr, v) in tuple.iter().enumerate() {
            self.add(attr, v);
        }
    }

    pub(crate) fn delete(&mut self, tuple: &[Value]) {
        for (attr, v) in tuple.iter().enumerate() {
            self.remove(attr, v);
        }
    }

    pub(crate) fn update(&mut self, attr: usize, old: &Value, new: &Value) {
        if old != new {
            self.remove(attr, old);
            self.add(attr, new);
        }
    }

    fn add(&mut self, attr: usize, v: &Value) {
        let count = self.counts.attrs[attr].increment(v);
        if self.stale[attr] {
            return;
        }
        let stats = &mut self.stats.attrs[attr];
        if stats.min.as_ref().map_or(true, |m| v.compare(m) == Some(Ordering::Less)) {
            stats.min = Some(v.clone());
        }
        if stats.max.as_ref().map_or(true, |m| v.compare(m) == Some(Ordering::Greater)) {
            stats.max = Some(v.clone());
        }
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

    fn remove(&mut self, attr: usize, v: &Value) {
        let count = self.counts.attrs[attr].decrement(v);
        let stats = &self.stats.attrs[attr];
        // Which value takes a vacated place is not known without a pass over
        // the distinct values; one pass per attribute, when the batch ends.
        self.stale[attr] |= stats.mcvs.iter().any(|(m, _)| m == v)
            || (count == 0 && (stats.min.as_ref() == Some(v) || stats.max.as_ref() == Some(v)));
    }

    /// Ends the batch for a class that now holds `rows` objects.
    pub(crate) fn finish(mut self, rows: usize) -> (ClassCounts, ClassStats) {
        let rows = rows as u64;
        self.stats.cardinality = rows;
        for ((stats, counts), stale) in
            self.stats.attrs.iter_mut().zip(&self.counts.attrs).zip(self.stale)
        {
            if stale {
                *stats = summarize(counts.entries(), rows);
            } else {
                stats.rows = rows;
                stats.distinct = counts.distinct as u64;
            }
        }
        (self.counts, self.stats)
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
        let mut counts = ValueCounts::from_counts(&HashMap::new());
        assert_eq!(counts.shards.len(), 1);
        let n = 5 * SHARD_TARGET as i64;
        for round in 1..=2 {
            for i in 0..n {
                assert_eq!(counts.increment(&Value::Int(i)), round);
            }
        }
        assert_eq!(counts.shards.len(), 4, "doubled past 2 x and again past 4 x the target");
        assert_eq!(counts.distinct, n as usize);
        assert_eq!(counts.entries().map(|(_, c)| c).sum::<u64>(), 2 * n as u64);
        for round in (0..2).rev() {
            for i in 0..n {
                assert_eq!(counts.decrement(&Value::Int(i)), round);
            }
        }
        assert_eq!((counts.distinct, counts.entries().count()), (0, 0));
    }
}
