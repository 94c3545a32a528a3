//! Relationship link storage.
//!
//! The paper's OODB implements relationships as pointer attributes; we store
//! them as bidirectional adjacency lists per relationship, which gives the
//! executor O(1) pointer-chasing in either direction.
//!
//! # Canonical adjacency order
//!
//! Every snapshot assembled by `sqo-storage` keeps its adjacency lists in
//! **canonical order**, a pure function of the logical edge population (never
//! of the write history that produced it):
//!
//! * `left → right` lists keep per-left *insertion order* (edge age);
//! * `right → left` lists are stably sorted by left id, duplicates adjacent
//!   in per-left insertion order.
//!
//! [`RelLinks::from_left_lists`] establishes the invariant in a bulk build,
//! deriving the right side from the left: every bulk build (a fresh load,
//! a snapshot load and a self-relationship delete) goes through it. The
//! incremental patch operations ([`RelLinks::add_sorted`],
//! [`RelLinks::remove_edge`], [`RelLinks::delete_left`],
//! [`RelLinks::delete_right`]) maintain it edge by edge. Because the order is
//! canonical, a copy-on-write successor patched in place is **bit-for-bit
//! identical** to a from-scratch rebuild of the same logical state — the
//! property `crates/storage/tests/prop_incremental.rs` enforces.
//!
//! # Paged CSR layout
//!
//! Each side is stored in compressed-sparse-row form, cut into copy-on-write
//! pages of `PAGE_LEN` (128) consecutive objects behind an `Arc`'d page
//! table, like a column (`paged.rs`). A page is one `Arc<[ObjectId]>`: first
//! `PAGE_LEN + 1` list ends, then the targets of its objects' lists back to
//! back, so object `k` of the page lists `page[page[k]..page[k + 1]]` (an
//! end is an `ObjectId` holding a position in the page; the first is
//! `PAGE_LEN + 1`, where the targets begin). There is no allocation per
//! object: a side of `n` objects is `n / 128` rounded up allocations plus
//! its table. Slots past the side's last object hold empty lists.
//!
//! Cloning a table shares every page. A patch operation copies the page
//! table once (one pointer per page) and rebuilds or copies only the pages
//! holding the lists it edits, one allocation each. A reader that resolves
//! a side's page table once ([`Adjacency`]) reads a list with two dependent
//! loads: the page's pointer, then the list's ends beside its targets.
//!
//! # Integrity declarations
//!
//! [`RelLinks::check`] holds a table to its relationship's
//! total-participation and to-one declarations. Since a patch copies
//! exactly the pages holding the lists it edits, the lists of a successor
//! that can differ from its base's are those on pages the two do not share
//! and the slots past the base's length; a write batch reads only those.

use std::ops::Range;
use std::sync::Arc;

use sqo_catalog::{Multiplicity, RelId, RelationshipDef};

use crate::error::StorageError;
use crate::object::ObjectId;
use crate::paged::{PAGE_BITS, PAGE_LEN, PAGE_MASK};

/// One page of an adjacency side: the lists of [`PAGE_LEN`] consecutive
/// objects, ends first, then targets (see the module docs).
type Page = Arc<[ObjectId]>;

/// Where a page's targets begin: after its `PAGE_LEN + 1` list ends.
const TARGETS: usize = PAGE_LEN + 1;

/// A list end, stored as an `ObjectId` holding a position in its page.
#[inline]
fn pos(end: ObjectId) -> usize {
    end.0 as usize
}

/// A resolved read handle on one side of a link table
/// ([`crate::Database::adjacency`]): the side's page table, looked up once,
/// so that an object's list costs two dependent loads — the page's pointer,
/// then the list's two ends beside its targets.
#[derive(Debug, Clone, Copy)]
pub struct Adjacency<'a> {
    pages: &'a [Page],
}

impl<'a> Adjacency<'a> {
    /// Object `oid`'s neighbours; empty past the side's last object.
    #[inline]
    pub fn get(&self, oid: ObjectId) -> &'a [ObjectId] {
        let i = oid.index();
        let Some(page) = self.pages.get(i >> PAGE_BITS) else {
            return &[];
        };
        let k = i & PAGE_MASK;
        match page.get(k..k + 2) {
            Some(&[start, end]) => page.get(pos(start)..pos(end)).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// One adjacency side in paged CSR form (see the module docs). Unused slots
/// of the last page hold empty lists, so two sides with equal lists have
/// equal pages and the derived `PartialEq` compares lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Lists {
    pages: Arc<[Page]>,
    len: usize,
}

impl Lists {
    /// The lists `targets[offsets[i]..offsets[i + 1]]`, one per object below
    /// `offsets.len() - 1`: one allocation per page of [`PAGE_LEN`] lists.
    fn from_flat(offsets: &[usize], targets: &[ObjectId]) -> Self {
        let len = offsets.len().saturating_sub(1);
        let mut page = Vec::new();
        let pages = (0..len.div_ceil(PAGE_LEN))
            .map(|p| {
                let lo = p << PAGE_BITS;
                let hi = (lo + PAGE_LEN).min(len);
                let base = offsets[lo];
                page.clear();
                let ends = (lo..=lo + PAGE_LEN).map(|o| offsets[o.min(hi)] - base + TARGETS);
                page.extend(ends.map(|end| ObjectId(end as u32)));
                page.extend_from_slice(&targets[base..offsets[hi]]);
                Page::from(page.as_slice())
            })
            .collect();
        Self { pages, len }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn handle(&self) -> Adjacency<'_> {
        Adjacency { pages: &self.pages }
    }

    fn list(&self, i: usize) -> &[ObjectId] {
        self.handle().get(ObjectId(i as u32))
    }

    fn lists(&self) -> impl Iterator<Item = &[ObjectId]> + '_ {
        (0..self.len).map(|i| self.list(i))
    }

    /// The lists that can differ from `base`'s, each with its object: every
    /// list on a page `self` does not share with `base`, and on a shared
    /// page the lists past `base`'s length, since an object appended onto a
    /// page with room copies no page. Every list when `base` is `None`.
    fn changed_since<'a>(
        &'a self,
        base: Option<&'a Lists>,
    ) -> impl Iterator<Item = (ObjectId, &'a [ObjectId])> + 'a {
        let handle = self.handle();
        let base_len = base.map_or(0, Lists::len);
        self.pages.iter().enumerate().flat_map(move |(p, page)| {
            let shared = base.and_then(|b| b.pages.get(p)).is_some_and(|b| Arc::ptr_eq(b, page));
            let lo = p << PAGE_BITS;
            let from = if shared { base_len.max(lo) } else { lo };
            (from..(lo + PAGE_LEN).min(self.len)).map(move |i| {
                let object = ObjectId(i as u32);
                (object, handle.get(object))
            })
        })
    }

    /// Replaces `range` of list `i` (`i < len()`) with `with`, rebuilding
    /// the one page that holds the list; the page table is copied first if
    /// a clone of this side shares it.
    fn splice(&mut self, i: usize, range: Range<usize>, with: &[ObjectId]) {
        debug_assert!(i < self.len, "list {i} of {}", self.len);
        if range.is_empty() && with.is_empty() {
            return;
        }
        let k = i & PAGE_MASK;
        let Some(page) = Arc::make_mut(&mut self.pages).get_mut(i >> PAGE_BITS) else {
            return;
        };
        let (from, to) = (pos(page[k]) + range.start, pos(page[k]) + range.end);
        debug_assert!(to <= pos(page[k + 1]), "{range:?} past list {i}");
        let shift = |end: ObjectId| ObjectId((pos(end) + with.len() - (to - from)) as u32);
        let ends = page[..TARGETS]
            .iter()
            .enumerate()
            .map(|(j, &end)| if j > k { shift(end) } else { end });
        let targets = page[TARGETS..from].iter().chain(with).chain(&page[to..]).copied();
        *page = ends.chain(targets).collect();
    }

    /// List `i` mutably, for an edit that keeps its length; copies its page
    /// (and the page table) first if a clone of this side shares them.
    fn list_mut(&mut self, i: usize) -> &mut [ObjectId] {
        let k = i & PAGE_MASK;
        match Arc::make_mut(&mut self.pages).get_mut(i >> PAGE_BITS) {
            Some(page) => {
                let page = Arc::make_mut(page);
                let (start, end) = (pos(page[k]), pos(page[k + 1]));
                &mut page[start..end]
            }
            None => &mut [],
        }
    }

    /// Appends an object with no neighbours: its slot already holds an
    /// empty list unless the last page is full.
    fn push_empty(&mut self) {
        if self.len == self.pages.len() * PAGE_LEN {
            let empty = Page::from([ObjectId(TARGETS as u32); TARGETS].as_slice());
            self.pages = self.pages.iter().cloned().chain([empty]).collect();
        }
        self.len += 1;
    }

    /// Removes and returns list `i`, moving the last object's list into its
    /// place; `None` (and no change) when `i` is out of range.
    fn swap_remove(&mut self, i: usize) -> Option<Vec<ObjectId>> {
        if i >= self.len {
            return None;
        }
        let last = self.len - 1;
        let gone = self.list(i).to_vec();
        if i != last {
            let moved = self.list(last).to_vec();
            self.splice(i, 0..gone.len(), &moved);
        }
        if last & PAGE_MASK == 0 {
            // The last object was alone on its page.
            self.pages = self.pages[..last >> PAGE_BITS].iter().cloned().collect();
        } else {
            let n = self.list(last).len();
            self.splice(last, 0..n, &[]);
        }
        self.len = last;
        Some(gone)
    }

    /// The indices of the pages that are not the same allocation in `self`
    /// and `other` (diagnostics for the copy-on-write tests).
    #[cfg(test)]
    pub(crate) fn unshared_pages<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.pages.len().max(other.pages.len())).filter(move |&p| {
            !matches!((self.pages.get(p), other.pages.get(p)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
        })
    }
}

/// Groups `items` by key, keeping their order within a key: the flat lists
/// (offsets, targets) of a side of `keys` objects. Each list is placed at
/// its exact offset, so nothing is sorted or grown.
fn group(
    keys: usize,
    items: impl Iterator<Item = (usize, ObjectId)> + Clone,
) -> (Vec<usize>, Vec<ObjectId>) {
    let mut offsets = vec![0usize; keys + 1];
    for (key, _) in items.clone() {
        offsets[key + 1] += 1;
    }
    for key in 1..=keys {
        offsets[key] += offsets[key - 1];
    }
    let mut targets = vec![ObjectId(0); offsets[keys]];
    for (key, item) in items {
        targets[offsets[key]] = item;
        offsets[key] += 1;
    }
    // Each offset advanced to the next list's start; shift them back.
    offsets.rotate_right(1);
    offsets[0] = 0;
    (offsets, targets)
}

/// Links of one relationship: adjacency in both directions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelLinks {
    /// left object -> linked right objects.
    left_to_right: Lists,
    /// right object -> linked left objects.
    right_to_left: Lists,
    links: u64,
}

impl RelLinks {
    /// Builds a table in canonical order (see module docs) from flat
    /// `(left, right)` pairs, given in per-left insertion order. Every id
    /// must be below its side's cardinality.
    pub(crate) fn from_pairs(
        left_cardinality: usize,
        right_cardinality: usize,
        pairs: &[(ObjectId, ObjectId)],
    ) -> Self {
        let (offsets, targets) =
            group(left_cardinality, pairs.iter().map(|&(left, right)| (left.index(), right)));
        Self::from_left_lists(&offsets, &targets, right_cardinality)
    }

    /// Builds a table from its left lists, flat — left object `l`'s is
    /// `targets[offsets[l]..offsets[l + 1]]` — deriving the right side:
    /// walking the left lists in ascending left order fills each right list
    /// in canonical order, so nothing is sorted. Every id must be below
    /// `right_cardinality`.
    pub(crate) fn from_left_lists(
        offsets: &[usize],
        targets: &[ObjectId],
        right_cardinality: usize,
    ) -> Self {
        let left_cardinality = offsets.len().saturating_sub(1);
        let mirrored = (0..left_cardinality).flat_map(|l| {
            let rights = &targets[offsets[l]..offsets[l + 1]];
            rights.iter().map(move |right| (right.index(), ObjectId(l as u32)))
        });
        let (right_offsets, lefts) = group(right_cardinality, mirrored);
        Self {
            left_to_right: Lists::from_flat(offsets, targets),
            right_to_left: Lists::from_flat(&right_offsets, &lefts),
            links: targets.len() as u64,
        }
    }

    /// Right-side neighbours of a left object.
    pub fn from_left(&self, left: ObjectId) -> &[ObjectId] {
        self.left_to_right.list(left.index())
    }

    /// Left-side neighbours of a right object.
    pub fn from_right(&self, right: ObjectId) -> &[ObjectId] {
        self.right_to_left.list(right.index())
    }

    /// A read handle on the left → right lists ([`RelLinks::from_left`]).
    pub(crate) fn left_lists(&self) -> Adjacency<'_> {
        self.left_to_right.handle()
    }

    /// A read handle on the right → left lists ([`RelLinks::from_right`]).
    pub(crate) fn right_lists(&self) -> Adjacency<'_> {
        self.right_to_left.handle()
    }

    pub fn link_count(&self) -> u64 {
        self.links
    }

    pub fn left_cardinality(&self) -> usize {
        self.left_to_right.len()
    }

    pub fn right_cardinality(&self) -> usize {
        self.right_to_left.len()
    }

    /// The one integrity check: every object on a total end of `def` has at
    /// least one link, and every object on a to-one end at most one. Only
    /// the lists that can differ from `base`'s are read
    /// ([`Lists::changed_since`]), which is exact when `base` satisfies
    /// `def`; every list is read when `base` is `None`.
    pub(crate) fn check(
        &self,
        rel: RelId,
        def: &RelationshipDef,
        base: Option<&RelLinks>,
    ) -> Result<(), StorageError> {
        let sides = [
            (&def.left, &self.left_to_right, base.map(|b| &b.left_to_right)),
            (&def.right, &self.right_to_left, base.map(|b| &b.right_to_left)),
        ];
        for (end, side, base) in sides {
            let to_one = end.multiplicity == Multiplicity::One;
            if !end.total && !to_one {
                continue;
            }
            let broken =
                |list: &[ObjectId]| end.total && list.is_empty() || to_one && list.len() > 1;
            match side.changed_since(base).find(|(_, list)| broken(list)) {
                Some((object, [])) => {
                    return Err(StorageError::TotalParticipationViolated {
                        rel,
                        class: end.class,
                        object,
                    })
                }
                Some((object, list)) => {
                    return Err(StorageError::MultiplicityViolated {
                        rel,
                        class: end.class,
                        object,
                        links: list.len(),
                    })
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Every `(left, right)` pair, grouped by left object. The from-scratch
    /// write path ([`crate::Database::with_writes_full`]) reconstructs a
    /// mutated link population from this flat form.
    pub fn pairs(&self) -> impl Iterator<Item = (ObjectId, ObjectId)> + '_ {
        self.left_to_right
            .lists()
            .enumerate()
            .flat_map(|(l, rs)| rs.iter().map(move |&r| (ObjectId(l as u32), r)))
    }

    /// Both adjacency sides, left first (page-sharing diagnostics).
    #[cfg(test)]
    pub(crate) fn sides(&self) -> [&Lists; 2] {
        [&self.left_to_right, &self.right_to_left]
    }

    /// Extends the left side by one (unlinked) object slot.
    pub(crate) fn grow_left(&mut self) {
        self.left_to_right.push_empty();
    }

    /// Extends the right side by one (unlinked) object slot.
    pub(crate) fn grow_right(&mut self) {
        self.right_to_left.push_empty();
    }

    /// Adds one edge maintaining the canonical order: the right list gets a
    /// per-left append, the left entry lands at its sorted position (stably
    /// after existing duplicates). Both objects must be in range.
    pub(crate) fn add_sorted(&mut self, left: ObjectId, right: ObjectId) {
        let end = self.left_to_right.list(left.index()).len();
        self.left_to_right.splice(left.index(), end..end, &[right]);
        let list = self.right_to_left.list(right.index());
        let at = list.partition_point(|o| o.index() <= left.index());
        self.right_to_left.splice(right.index(), at..at, &[left]);
        self.links += 1;
    }

    /// Removes one `(left, right)` edge — the oldest in per-left order when
    /// the edge is duplicated. Returns `false` (and changes nothing) when
    /// either side lacks the edge.
    pub(crate) fn remove_edge(&mut self, left: ObjectId, right: ObjectId) -> bool {
        let (Some(r_at), Some(l_at)) = (
            self.from_left(left).iter().position(|&x| x == right),
            self.from_right(right).iter().position(|&x| x == left),
        ) else {
            return false;
        };
        self.left_to_right.splice(left.index(), r_at..r_at + 1, &[]);
        self.right_to_left.splice(right.index(), l_at..l_at + 1, &[]);
        self.links -= 1;
        true
    }

    /// Removes `object`'s entry from the mirror list of each of `neighbours`
    /// in `mirror`. Every constructor derives the right side from the left,
    /// so each neighbour's list holds the entry: a debug build asserts it,
    /// and a release build passes over one that does not.
    fn unmirror(mirror: &mut Lists, links: &mut u64, neighbours: &[ObjectId], object: ObjectId) {
        for &n in neighbours {
            let at = mirror.list(n.index()).iter().position(|&o| o == object);
            debug_assert!(at.is_some(), "{n:?}'s list does not mirror {object:?}");
            if let Some(at) = at {
                mirror.splice(n.index(), at..at + 1, &[]);
                *links -= 1;
            }
        }
    }

    /// Removes every edge of left object `object` and swap-renumbers the left
    /// side's last object onto its id, preserving the canonical order: the
    /// moved object's right-list keeps its per-left order wholesale, and its
    /// entries in the (sorted) right→left lists are re-keyed from the old id
    /// to `object`'s. `object` must be in range; not for self-relationships
    /// (left and right sides would fall out of step — delete those via a
    /// per-relationship rebuild instead).
    pub(crate) fn delete_left(&mut self, object: ObjectId) {
        let Some(gone) = self.left_to_right.swap_remove(object.index()) else {
            return;
        };
        Self::unmirror(&mut self.right_to_left, &mut self.links, &gone, object);
        let last = ObjectId(self.left_to_right.len() as u32);
        if object == last {
            return;
        }
        let moved = self.left_to_right.list(object.index());
        for (seen, &r) in moved.iter().enumerate() {
            if moved[..seen].contains(&r) {
                continue; // duplicated edges: re-key the whole run once
            }
            // The run of `last` moves down to `object`'s sorted place, ahead
            // of the ids between the two; the list keeps its length.
            let list = self.right_to_left.list_mut(r.index());
            let start = list.partition_point(|o| o.index() < last.index());
            let count = list[start..].iter().take_while(|&&o| o == last).count();
            debug_assert!(count > 0, "moved object's edges must be present");
            let at = list.partition_point(|o| o.index() <= object.index());
            list[at..start + count].rotate_right(count);
            list[at..at + count].fill(object);
        }
    }

    /// Mirror of [`RelLinks::delete_left`] for the right side. Left lists are
    /// per-left ordered, so the moved object's entries are re-keyed in place.
    pub(crate) fn delete_right(&mut self, object: ObjectId) {
        let Some(gone) = self.right_to_left.swap_remove(object.index()) else {
            return;
        };
        Self::unmirror(&mut self.left_to_right, &mut self.links, &gone, object);
        let last = ObjectId(self.right_to_left.len() as u32);
        if object == last {
            return;
        }
        let moved = self.right_to_left.list(object.index());
        for (seen, &l) in moved.iter().enumerate() {
            if moved[..seen].contains(&l) {
                continue;
            }
            for o in self.left_to_right.list_mut(l.index()) {
                if *o == last {
                    *o = object;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{ClassId, RelationshipEnd};

    fn links(left: usize, right: usize, pairs: &[(u32, u32)]) -> RelLinks {
        let pairs: Vec<_> = pairs.iter().map(|&(l, r)| (ObjectId(l), ObjectId(r))).collect();
        RelLinks::from_pairs(left, right, &pairs)
    }

    /// A table from both sides' lists as given, mirrored or not.
    fn from_adjacency(left: &[&[u32]], right: &[&[u32]]) -> RelLinks {
        let side = |lists: &[&[u32]]| {
            let mut offsets = vec![0];
            let mut targets = Vec::new();
            for list in lists {
                targets.extend(list.iter().map(|&o| ObjectId(o)));
                offsets.push(targets.len());
            }
            Lists::from_flat(&offsets, &targets)
        };
        let links = left.iter().map(|l| l.len() as u64).sum();
        RelLinks { left_to_right: side(left), right_to_left: side(right), links }
    }

    fn ids(ids: &[u32]) -> Vec<ObjectId> {
        ids.iter().map(|&o| ObjectId(o)).collect()
    }

    #[test]
    fn bidirectional_adjacency() {
        let l = links(3, 2, &[(0, 1), (2, 1), (0, 0)]);
        assert_eq!(l.from_left(ObjectId(0)), ids(&[1, 0]));
        assert_eq!(l.from_right(ObjectId(1)), ids(&[0, 2]));
        assert_eq!(l.link_count(), 3);
        assert_eq!(l.from_left(ObjectId(1)), &[] as &[ObjectId]);
        assert_eq!(l.left_lists().get(ObjectId(2)), ids(&[1]));
        assert_eq!(l.right_lists().get(ObjectId(0)), ids(&[0]));
        assert_eq!(l.left_lists().get(ObjectId(3)), &[] as &[ObjectId], "past the side");
    }

    /// A relationship from class 0 (left) to class 1 (right) with the
    /// given ends' multiplicity and totality.
    fn def(left: (Multiplicity, bool), right: (Multiplicity, bool)) -> RelationshipDef {
        let end = |class, (multiplicity, total)| RelationshipEnd { class, multiplicity, total };
        RelationshipDef {
            name: "r".into(),
            left: end(ClassId(0), left),
            right: end(ClassId(1), right),
        }
    }

    #[test]
    fn unlinked_detection() {
        use Multiplicity::Many;
        let l = links(3, 2, &[(0, 0)]);
        let unlinked = |class, object| {
            Err(StorageError::TotalParticipationViolated { rel: RelId(0), class, object })
        };
        let left_total = def((Many, true), (Many, false));
        assert_eq!(l.check(RelId(0), &left_total, None), unlinked(ClassId(0), ObjectId(1)));
        let right_total = def((Many, false), (Many, true));
        assert_eq!(l.check(RelId(0), &right_total, None), unlinked(ClassId(1), ObjectId(1)));
        assert_eq!(l.check(RelId(0), &def((Many, false), (Many, false)), None), Ok(()));
    }

    #[test]
    fn fanout_tracking() {
        use Multiplicity::{Many, One};
        let l = links(2, 2, &[(0, 0), (0, 1)]);
        let left_one = def((One, false), (Many, false));
        let overlinked = StorageError::MultiplicityViolated {
            rel: RelId(0),
            class: ClassId(0),
            object: ObjectId(0),
            links: 2,
        };
        assert_eq!(l.check(RelId(0), &left_one, None), Err(overlinked));
        assert_eq!(l.check(RelId(0), &def((Many, false), (One, false)), None), Ok(()));
    }

    #[test]
    fn a_scoped_check_reads_copied_pages_and_appended_slots() {
        use Multiplicity::Many;
        let left_total = def((Many, true), (Many, false));
        // Left object 1 of the base is unlinked; a successor that copies
        // none of its pages is not charged with it.
        let base = links(3, 1, &[(0, 0), (2, 0)]);
        let mut next = base.clone();
        assert_eq!(next.check(RelId(0), &left_total, Some(&base)), Ok(()));
        // An object appended onto the last page copies no page.
        next.grow_left();
        let unlinked = |object| {
            Err(StorageError::TotalParticipationViolated {
                rel: RelId(0),
                class: ClassId(0),
                object,
            })
        };
        assert_eq!(next.check(RelId(0), &left_total, Some(&base)), unlinked(ObjectId(3)));
        // A link onto the base's unlinked object copies its page.
        let mut linked = base.clone();
        linked.add_sorted(ObjectId(0), ObjectId(0));
        assert_eq!(linked.check(RelId(0), &left_total, Some(&base)), unlinked(ObjectId(1)));
    }

    #[test]
    fn from_pairs_sorts_right_lists_stably() {
        let l = links(3, 1, &[(2, 0), (0, 0), (2, 0)]); // one duplicate edge
        assert_eq!(l.link_count(), 3);
        assert_eq!(l.from_right(ObjectId(0)), ids(&[0, 2, 2]));
        // Left lists keep insertion order.
        assert_eq!(l.from_left(ObjectId(2)), ids(&[0, 0]));
    }

    #[test]
    fn lists_read_back_across_pages() {
        // Left object i links right objects i % 7 and, when odd, i % 5:
        // three pages a side, some lists empty.
        let n = 2 * PAGE_LEN as u32 + 9;
        let pairs: Vec<(u32, u32)> = (0..n)
            .filter(|i| i % 11 != 3)
            .flat_map(|i| [(i, i % 7)].into_iter().chain((i % 2 == 1).then_some((i, i % 5))))
            .collect();
        let l = links(n as usize, 7, &pairs);
        for i in 0..n {
            let want: Vec<u32> = pairs.iter().filter(|p| p.0 == i).map(|p| p.1).collect();
            assert_eq!(l.from_left(ObjectId(i)), ids(&want), "left {i}");
        }
        assert_eq!(l.pairs().count(), pairs.len());
        assert_eq!(l.sides()[0].pages.len(), 3);
    }

    #[test]
    fn add_sorted_maintains_the_canonical_order() {
        let mut l = links(3, 1, &[(0, 0), (2, 0)]);
        l.add_sorted(ObjectId(1), ObjectId(0));
        assert_eq!(l.from_right(ObjectId(0)), ids(&[0, 1, 2]));
        assert_eq!(l.link_count(), 3);
        // Adding in any order lands where a bulk build puts it.
        let mut grown = links(3, 2, &[]);
        for (left, right) in [(2, 1), (0, 1), (2, 1), (1, 0)] {
            grown.add_sorted(ObjectId(left), ObjectId(right));
        }
        assert_eq!(grown, links(3, 2, &[(2, 1), (0, 1), (2, 1), (1, 0)]));
        assert_eq!(grown.from_right(ObjectId(1)), ids(&[0, 2, 2]));
    }

    #[test]
    fn remove_edge_takes_the_oldest_duplicate_and_reports_missing() {
        let mut l = links(2, 2, &[]);
        l.add_sorted(ObjectId(0), ObjectId(1));
        l.add_sorted(ObjectId(0), ObjectId(1));
        assert!(l.remove_edge(ObjectId(0), ObjectId(1)));
        assert_eq!(l.from_left(ObjectId(0)), ids(&[1]));
        assert_eq!(l.link_count(), 1);
        assert!(!l.remove_edge(ObjectId(1), ObjectId(0)));
        assert!(!l.remove_edge(ObjectId(7), ObjectId(0)), "out of range is not-found, not a panic");
    }

    #[test]
    fn delete_left_renumbers_and_keeps_sorted_right_lists() {
        let mut l = links(3, 2, &[(0, 0), (1, 0), (2, 0), (2, 1)]);
        // Delete left object 0: object 2 takes its id, edges follow.
        l.delete_left(ObjectId(0));
        assert_eq!(l.left_cardinality(), 2);
        assert_eq!(l.from_left(ObjectId(0)), ids(&[0, 1]));
        assert_eq!(l.from_right(ObjectId(0)), ids(&[0, 1]));
        assert_eq!(l.from_right(ObjectId(1)), ids(&[0]));
        assert_eq!(l.link_count(), 3);
        assert_eq!(l, links(2, 2, &[(0, 0), (0, 1), (1, 0)]), "the bulk build's pages");
    }

    #[test]
    fn deletes_across_a_page_boundary_match_the_bulk_build() {
        // Left object i links right i % 3 twice and right 2 once; deleting
        // object 5 moves the first object of the last page onto it and
        // drops that page.
        let n = PAGE_LEN as u32 + 1;
        let pairs: Vec<(u32, u32)> =
            (0..n).flat_map(|i| [(i, i % 3), (i, 2), (i, i % 3)]).collect();
        let mut l = links(n as usize, 3, &pairs);
        l.delete_left(ObjectId(5));
        let renumbered: Vec<(u32, u32)> = pairs
            .iter()
            .filter(|p| p.0 != 5 && p.0 != n - 1)
            .copied()
            .chain(pairs.iter().filter(|p| p.0 == n - 1).map(|p| (5, p.1)))
            .collect();
        let mut by_left = renumbered;
        by_left.sort_by_key(|p| p.0); // stable: per-left order kept
        assert_eq!(l, links(n as usize - 1, 3, &by_left));
        assert_eq!(l.sides()[0].pages.len(), 1);
        l.delete_right(ObjectId(0));
        let moved: Vec<(u32, u32)> = by_left
            .iter()
            .filter(|p| p.1 != 0)
            .map(|&(left, right)| (left, if right == 2 { 0 } else { right }))
            .collect();
        assert_eq!(l, links(n as usize - 1, 2, &moved));
    }

    #[test]
    fn delete_right_renumbers_left_lists_in_place() {
        let mut l = links(2, 3, &[(0, 0), (0, 2), (1, 1)]);
        // Delete right object 0: right object 2 takes its id.
        l.delete_right(ObjectId(0));
        assert_eq!(l.right_cardinality(), 2);
        assert_eq!(l.from_left(ObjectId(0)), ids(&[0]));
        assert_eq!(l.from_right(ObjectId(0)), ids(&[0]));
        assert_eq!(l.from_right(ObjectId(1)), ids(&[1]));
        assert_eq!(l.link_count(), 2);
    }

    #[test]
    fn growing_a_side_copies_no_page_until_a_page_is_full() {
        let base = links(PAGE_LEN - 1, 1, &[(0, 0)]);
        let mut next = base.clone();
        next.grow_left();
        assert_eq!(next.sides()[0].unshared_pages(base.sides()[0]).count(), 0);
        next.grow_left();
        let added: Vec<usize> = next.sides()[0].unshared_pages(base.sides()[0]).collect();
        assert_eq!(added, vec![1]);
        assert_eq!(next, links(PAGE_LEN + 1, 1, &[(0, 0)]));
    }

    #[test]
    fn a_one_sided_edge_is_reported_not_a_panic() {
        // Left 0 lists right 1, whose list does not mirror it. No
        // constructor builds such a table (the right side is derived from
        // the left); an edge removal, which a request can ask for, still
        // reports one rather than panic. A delete on it fails `unmirror`'s
        // debug assertion instead (see the test below).
        let mut l = from_adjacency(&[&[1]], &[&[], &[]]);
        assert!(!l.remove_edge(ObjectId(0), ObjectId(1)));
        assert_eq!(l.from_left(ObjectId(0)), ids(&[1]), "nothing removed");
        assert_eq!(l.link_count(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not mirror")]
    fn a_delete_on_a_one_sided_table_fails_a_debug_assertion() {
        let mut r = from_adjacency(&[&[]], &[&[0]]);
        r.delete_right(ObjectId(0));
    }
}
