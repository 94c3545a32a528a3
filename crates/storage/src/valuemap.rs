//! An ordered value-keyed map in copy-on-write pages.
//!
//! Everything `sqo-storage` keeps per attribute value is a [`ValueMap`]: an
//! index's postings (`index.rs`) and an unindexed attribute's value counts
//! (`counts.rs`). Entries are sorted by key in [`OrdValue`] order and held in
//! `Arc`'d pages of at most [`PAGE_FILL`] entries behind an `Arc`'d page
//! table, the way `PagedVec` holds rows. Cloning a map is a reference-count
//! increment; a point update copies the table (one pointer per page) and the
//! page that holds the key, and nothing else. A page copy clones each entry:
//! a key (a string key is a pointer) and a count or an index posting, whose
//! ids are shared, not copied (`index::Posting`). A full page splits in
//! two, a page that empties is dropped; pages never merge, so where they
//! split depends on the map's history and equality compares entries, not
//! pages.
//!
//! A lookup is two binary searches — the table by each page's first key, then
//! the page — and a range walks pages in order from the first hit.

use std::cmp::Ordering;
use std::sync::Arc;

use sqo_catalog::Value;
use sqo_query::Bound;

/// Entries per page at most. A copied page is `PAGE_FILL` keys and their
/// counts or posting pointers, whatever the number of distinct values.
const PAGE_FILL: usize = 64;

/// Sorted by key, never empty while in a table.
type Page<V> = Arc<Vec<(Value, V)>>;

/// Total-order wrapper for `Value`: `Value`'s order within a type, the type
/// discriminant across types. One attribute's values share a type, but a
/// mistyped probe and a corrupt snapshot's index keys need not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrdValue(pub Value);

impl OrdValue {
    /// The order itself, on borrowed values.
    pub(crate) fn order(a: &Value, b: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) => 1,
                Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        a.compare(b).unwrap_or_else(|| rank(a).cmp(&rank(b)))
    }
}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        Self::order(&self.0, &other.0)
    }
}

/// See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ValueMap<V> {
    pages: Arc<Vec<Page<V>>>,
    len: usize,
}

impl<V: PartialEq> PartialEq for ValueMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V> FromIterator<(Value, V)> for ValueMap<V> {
    /// The bulk build: `entries` in any order, each key once, sorted and
    /// handed to [`ValueMap::from_ascending`].
    fn from_iter<I: IntoIterator<Item = (Value, V)>>(entries: I) -> Self {
        let mut entries: Vec<(Value, V)> = entries.into_iter().collect();
        entries.sort_unstable_by(|a, b| OrdValue::order(&a.0, &b.0));
        Self::from_ascending(entries)
    }
}

impl<V> ValueMap<V> {
    /// The bulk build from entries whose keys strictly ascend, cut into full
    /// pages in order. It shares no code with the point updates below.
    pub(crate) fn from_ascending(entries: Vec<(Value, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| OrdValue::order(&w[0].0, &w[1].0).is_lt()),
            "a bulk build was given keys out of order or one key twice"
        );
        let len = entries.len();
        let mut entries = entries.into_iter();
        let pages = (0..len.div_ceil(PAGE_FILL))
            .map(|_| Arc::new(entries.by_ref().take(PAGE_FILL).collect()))
            .collect();
        Self { pages: Arc::new(pages), len }
    }

    /// The number of keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every entry, keys ascending.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = (&Value, &V)> {
        self.pages.iter().flat_map(|page| page.iter()).map(|(k, v)| (k, v))
    }

    pub(crate) fn first(&self) -> Option<(&Value, &V)> {
        self.iter().next()
    }

    pub(crate) fn last(&self) -> Option<(&Value, &V)> {
        self.iter().next_back()
    }

    /// Where `key` is, as `(page, slot)`, or else where it would go.
    fn find(&self, key: &Value) -> Result<(usize, usize), (usize, usize)> {
        // The last page that starts at or below `key`; page 0 if none does.
        let starts_by = |page: &Page<V>| OrdValue::order(&page[0].0, key).is_le();
        let p = self.pages.partition_point(starts_by).saturating_sub(1);
        let page = self.pages.get(p).map_or(&[][..], |page| page.as_slice());
        match page.binary_search_by(|(k, _)| OrdValue::order(k, key)) {
            Ok(slot) => Ok((p, slot)),
            Err(slot) => Err((p, slot)),
        }
    }

    pub(crate) fn get(&self, key: &Value) -> Option<&V> {
        let (p, slot) = self.find(key).ok()?;
        Some(&self.pages[p][slot].1)
    }

    /// The entries whose keys lie between `lo` and `hi`, keys ascending;
    /// none when the bounds are inverted.
    pub(crate) fn range<'a>(
        &'a self,
        lo: &Bound,
        hi: &'a Bound,
    ) -> impl Iterator<Item = (&'a Value, &'a V)> {
        let below = |k: &Value| outside(k, lo, Ordering::Less);
        // The last page that starts below `lo` is the first that can hold a
        // key that is not.
        let p = self.pages.partition_point(|page| below(&page[0].0)).saturating_sub(1);
        let skip = self.pages.get(p).map_or(0, |page| page.partition_point(|(k, _)| below(k)));
        let from = self.pages[p..].iter().flat_map(|page| page.iter()).skip(skip);
        from.take_while(move |(k, _)| !outside(k, hi, Ordering::Greater)).map(|(k, v)| (k, v))
    }
}

/// Whether `k` lies beyond `bound` on its `side`: `Less` for below a lower
/// bound, `Greater` for above an upper one.
fn outside(k: &Value, bound: &Bound, side: Ordering) -> bool {
    match bound {
        Bound::Unbounded => false,
        Bound::Included(v) => OrdValue::order(k, v) == side,
        Bound::Excluded(v) => OrdValue::order(k, v) != side.reverse(),
    }
}

impl<V: Clone> ValueMap<V> {
    /// Mutable access to `key`'s entry; copies the table and the entry's
    /// page if a clone of this map shares them.
    pub(crate) fn get_mut(&mut self, key: &Value) -> Option<&mut V> {
        let (p, slot) = self.find(key).ok()?;
        Some(&mut Arc::make_mut(&mut Arc::make_mut(&mut self.pages)[p])[slot].1)
    }

    /// Removes `key`'s entry, and its page if that leaves the page empty.
    pub(crate) fn remove(&mut self, key: &Value) -> Option<V> {
        let (p, slot) = self.find(key).ok()?;
        let pages = Arc::make_mut(&mut self.pages);
        let (_, removed) = Arc::make_mut(&mut pages[p]).remove(slot);
        if pages[p].is_empty() {
            pages.remove(p);
        }
        self.len -= 1;
        Some(removed)
    }
}

impl<V: Clone + Default> ValueMap<V> {
    /// Insert-or-update: the key the map holds equal to `key` and mutable
    /// access to its entry, inserted as `(key, V::default())` first when the
    /// map has none. A caller that stores the value elsewhere too stores a
    /// clone of the returned key, so equal strings share one allocation.
    pub(crate) fn entry(&mut self, key: Value) -> (&Value, &mut V) {
        let at = match self.pages.last() {
            // Past the last key — every step of an ascending load — there is
            // nothing to search.
            Some(page) if page.last().is_some_and(|(k, _)| OrdValue::order(k, &key).is_lt()) => {
                Err((self.pages.len() - 1, page.len()))
            }
            _ => self.find(&key),
        };
        let pages = Arc::make_mut(&mut self.pages);
        let (mut p, mut slot) = match at {
            Ok((p, slot)) => {
                let (k, v) = &mut Arc::make_mut(&mut pages[p])[slot];
                return (k, v);
            }
            Err(at) => at,
        };
        if pages.is_empty() {
            pages.push(Arc::default());
        } else if pages[p].len() == PAGE_FILL {
            // A full page splits in half — except past the map's last key,
            // where the new key opens a page, so that an ascending load
            // leaves full pages behind it.
            let tail = if p + 1 == pages.len() && slot == PAGE_FILL {
                Vec::new()
            } else {
                Arc::make_mut(&mut pages[p]).split_off(PAGE_FILL / 2)
            };
            pages.insert(p + 1, Arc::new(tail));
            let kept = pages[p].len();
            if slot >= kept {
                (p, slot) = (p + 1, slot - kept);
            }
        }
        self.len += 1;
        let page = Arc::make_mut(&mut pages[p]);
        page.insert(slot, (key, V::default()));
        let (k, v) = &mut page[slot];
        (k, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Diagnostics for the copy-on-write tests, here and in `counts.rs` and
    /// `db.rs`.
    impl<V> ValueMap<V> {
        pub(crate) fn page_count(&self) -> usize {
            self.pages.len()
        }

        /// How many of `self`'s pages are not the same allocation as any page
        /// of `other`.
        pub(crate) fn pages_not_in(&self, other: &Self) -> usize {
            let shared = |page| other.pages.iter().any(|theirs| Arc::ptr_eq(page, theirs));
            self.pages.iter().filter(|page| !shared(page)).count()
        }
    }

    fn ints(keys: impl IntoIterator<Item = i64>) -> ValueMap<i64> {
        keys.into_iter().map(|k| (Value::Int(k), 10 * k)).collect()
    }

    fn keys(map: &ValueMap<i64>) -> Vec<i64> {
        map.iter().map(|(k, _)| k.as_int().unwrap()).collect()
    }

    #[test]
    fn a_full_page_splits_and_an_emptied_page_is_dropped() {
        let n = 2 * PAGE_FILL as i64;
        let mut map = ints((0..n).map(|k| 2 * k));
        assert_eq!(map.page_count(), 2, "the bulk build fills its pages");
        // An odd key into the full first page: it splits, order holds, and
        // every entry is still there.
        *map.entry(Value::Int(31)).1 = 310;
        assert_eq!((map.page_count(), map.len()), (3, 2 * PAGE_FILL + 1));
        let mut expected: Vec<i64> = (0..n).map(|k| 2 * k).chain([31]).collect();
        expected.sort_unstable();
        assert_eq!(keys(&map), expected);
        assert!(map.iter().all(|(k, v)| *v == 10 * k.as_int().unwrap()));
        // The half that took it holds 33 keys: 31 more fill it, the next
        // splits it again.
        for k in (-1..=61).step_by(2).filter(|&k| k != 31) {
            *map.entry(Value::Int(k)).1 = 10 * k;
            assert_eq!(map.page_count(), 3, "odd key {k}");
        }
        *map.entry(Value::Int(63)).1 = 630;
        assert_eq!(map.page_count(), 4);
        assert!(keys(&map).windows(2).all(|w| w[0] < w[1]));
        assert!(map.iter().all(|(k, v)| *v == 10 * k.as_int().unwrap()));
        // Emptying the last page drops it and nothing else.
        let before = map.len();
        for k in (n - PAGE_FILL as i64)..n {
            assert_eq!(map.remove(&Value::Int(2 * k)), Some(20 * k));
        }
        assert_eq!((map.page_count(), map.len()), (3, before - PAGE_FILL));
        assert_eq!(
            map.last().map(|(k, _)| k.as_int().unwrap()),
            Some(2 * (n - PAGE_FILL as i64) - 2)
        );
        assert_eq!(map.remove(&Value::Int(2 * n)), None);
        // Past the last key a new page opens instead: ascending keys pack.
        let mut ascending = ValueMap::default();
        for k in 0..3 * PAGE_FILL as i64 {
            *ascending.entry(Value::Int(k)).1 = 10 * k;
        }
        assert_eq!(ascending.page_count(), 3);
        assert_eq!(ascending, ints(0..3 * PAGE_FILL as i64));
        for k in 0..3 * PAGE_FILL as i64 {
            ascending.remove(&Value::Int(k));
        }
        assert_eq!((ascending.page_count(), ascending.len()), (0, 0));
        assert_eq!(ascending, ValueMap::default());
    }

    #[test]
    fn equality_ignores_where_pages_split() {
        let bulk = ints(0..200);
        let mut grown = ValueMap::default();
        for k in (0..200).rev() {
            *grown.entry(Value::Int(k)).1 = 10 * k;
        }
        assert_ne!(grown.page_count(), bulk.page_count());
        assert_eq!(grown, bulk);
        *grown.entry(Value::Int(7)).1 = 0;
        assert_ne!(grown, bulk);
    }

    #[test]
    fn a_successor_shares_every_page_it_does_not_touch() {
        let base = ints(0..4 * PAGE_FILL as i64);
        let mut next = base.clone();
        assert_eq!(next.pages_not_in(&base), 0);
        // An update in place copies its page.
        *next.get_mut(&Value::Int(70)).unwrap() = 7;
        assert_eq!(next.pages_not_in(&base), 1);
        // An insert into a full page leaves two halves where it was.
        *next.entry(Value::Int(-5)).1 = -50;
        assert_eq!((next.page_count(), next.pages_not_in(&base)), (5, 3));
        // A removal copies its page; the last page was never touched.
        assert_eq!(next.remove(&Value::Int(130)), Some(1300));
        assert_eq!(next.pages_not_in(&base), 4);
        assert!(Arc::ptr_eq(&next.pages[4], &base.pages[3]));
        // The source never saw any of it.
        assert_eq!(base, ints(0..4 * PAGE_FILL as i64));
        assert_eq!((base.get(&Value::Int(70)), base.get(&Value::Int(-5))), (Some(&700), None));
        assert_eq!((next.get(&Value::Int(70)), next.get(&Value::Int(130))), (Some(&7), None));
    }

    #[test]
    fn a_cross_type_probe_finds_nothing_and_does_not_panic() {
        let mut map = ints(0..100);
        for probe in [Value::str("7"), Value::Bool(true), Value::float(7.0).unwrap()] {
            assert_eq!(map.get(&probe), None);
            assert_eq!(map.get_mut(&probe), None);
            assert_eq!(map.remove(&probe), None);
            let from = Bound::Included(probe.clone());
            let ranged = map.range(&from, &Bound::Unbounded).count();
            // Strings and floats rank above every integer, booleans below.
            assert_eq!(ranged, if probe == Value::Bool(true) { 100 } else { 0 });
        }
        assert_eq!(map.len(), 100);
    }

    /// `std`'s bound for ours; `None` where `BTreeMap::range` would panic.
    fn std_range(
        lo: &Bound,
        hi: &Bound,
    ) -> Option<(std::ops::Bound<OrdValue>, std::ops::Bound<OrdValue>)> {
        use std::ops::Bound as Std;
        let to_std = |b: &Bound| match b {
            Bound::Unbounded => Std::Unbounded,
            Bound::Included(v) => Std::Included(OrdValue(v.clone())),
            Bound::Excluded(v) => Std::Excluded(OrdValue(v.clone())),
        };
        let inverted = match (lo, hi) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
            (Bound::Excluded(l), Bound::Excluded(h)) => OrdValue::order(l, h).is_ge(),
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                OrdValue::order(l, h).is_gt()
            }
        };
        (!inverted).then(|| (to_std(lo), to_std(hi)))
    }

    fn bound() -> impl Strategy<Value = Bound> {
        (0u32..3, -5i64..300).prop_map(|(kind, k)| match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(Value::Int(k)),
            _ => Bound::Excluded(Value::Int(k)),
        })
    }

    proptest! {
        /// Random point updates against `BTreeMap`, from a bulk-built start
        /// of up to four pages: every answer, then the whole content.
        #[test]
        fn behaves_like_a_btree_map(
            start in prop::collection::vec(-5i64..300, 0..260),
            ops in prop::collection::vec((0u32..4, -5i64..300, bound(), bound()), 1..400),
        ) {
            let mut model: BTreeMap<OrdValue, i64> =
                start.iter().map(|&k| (OrdValue(Value::Int(k)), k)).collect();
            let mut map: ValueMap<i64> = model.iter().map(|(k, v)| (k.0.clone(), *v)).collect();
            let base = map.clone();
            for (step, (op, k, lo, hi)) in ops.into_iter().enumerate() {
                let key = Value::Int(k);
                match op {
                    0 => {
                        *map.entry(key.clone()).1 += step as i64;
                        *model.entry(OrdValue(key)).or_default() += step as i64;
                    }
                    1 => prop_assert_eq!(map.remove(&key), model.remove(&OrdValue(key))),
                    2 => prop_assert_eq!(map.get(&key), model.get(&OrdValue(key))),
                    _ => {
                        let got: Vec<_> = map.range(&lo, &hi).map(|(k, v)| (k.clone(), *v)).collect();
                        let want: Vec<_> = std_range(&lo, &hi).map_or(Vec::new(), |r| {
                            model.range(r).map(|(k, v)| (k.0.clone(), *v)).collect()
                        });
                        prop_assert_eq!(got, want, "range {:?} .. {:?}", lo, hi);
                    }
                }
                prop_assert_eq!(map.len(), model.len());
            }
            prop_assert!(map.iter().map(|(k, v)| (k, *v)).eq(model.iter().map(|(k, v)| (&k.0, *v))));
            prop_assert_eq!(map.first().map(|(k, _)| k), model.keys().next().map(|k| &k.0));
            prop_assert_eq!(map.last().map(|(k, _)| k), model.keys().next_back().map(|k| &k.0));
            prop_assert!(map.pages.iter().all(|page| !page.is_empty() && page.len() <= PAGE_FILL));
            // The start it was cloned from still reads as it was built.
            prop_assert!(base.iter().map(|(k, v)| (k.as_int(), *v)).eq(
                start.iter().collect::<std::collections::BTreeSet<_>>().into_iter().map(|&k| (Some(k), k))
            ));
        }
    }
}
