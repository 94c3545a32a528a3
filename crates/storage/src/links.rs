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
//! Both sides are [`PagedVec`]s: cloning a table shares every page of
//! adjacency lists, and a patch operation copies only the pages holding the
//! lists it edits.

use sqo_catalog::RelId;

use crate::object::ObjectId;
use crate::paged::PagedVec;

/// Links of one relationship: adjacency in both directions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelLinks {
    /// left object -> linked right objects.
    left_to_right: PagedVec<Vec<ObjectId>>,
    /// right object -> linked left objects.
    right_to_left: PagedVec<Vec<ObjectId>>,
    links: u64,
}

impl RelLinks {
    pub fn new(left_cardinality: usize, right_cardinality: usize) -> Self {
        Self::from_adjacency(
            vec![Vec::new(); left_cardinality],
            vec![Vec::new(); right_cardinality],
        )
    }

    /// Builds a table in canonical order (see module docs) from flat
    /// `(left, right)` pairs, given in per-left insertion order. Every id
    /// must be below its side's cardinality.
    pub(crate) fn from_pairs(
        left_cardinality: usize,
        right_cardinality: usize,
        pairs: impl IntoIterator<Item = (ObjectId, ObjectId)>,
    ) -> Self {
        let mut left_to_right = vec![Vec::new(); left_cardinality];
        for (left, right) in pairs {
            left_to_right[left.index()].push(right);
        }
        Self::from_left_lists(left_to_right, right_cardinality)
    }

    /// Builds a table from its left lists, deriving the right side: each
    /// right list is allocated at its exact size and filled in ascending
    /// left order, which is the canonical order, so nothing is sorted.
    /// Every id must be below `right_cardinality`.
    pub(crate) fn from_left_lists(
        left_to_right: Vec<Vec<ObjectId>>,
        right_cardinality: usize,
    ) -> Self {
        let mut degree = vec![0usize; right_cardinality];
        for right in left_to_right.iter().flatten() {
            degree[right.index()] += 1;
        }
        let mut right_to_left: Vec<Vec<ObjectId>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for (left, rights) in left_to_right.iter().enumerate() {
            for right in rights {
                right_to_left[right.index()].push(ObjectId(left as u32));
            }
        }
        Self::from_adjacency(left_to_right, right_to_left)
    }

    pub fn add(&mut self, left: ObjectId, right: ObjectId) {
        self.left_to_right[left.index()].push(right);
        self.right_to_left[right.index()].push(left);
        self.links += 1;
    }

    /// Right-side neighbours of a left object.
    pub fn from_left(&self, left: ObjectId) -> &[ObjectId] {
        self.left_to_right.get(left.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Left-side neighbours of a right object.
    pub fn from_right(&self, right: ObjectId) -> &[ObjectId] {
        self.right_to_left.get(right.index()).map(|v| v.as_slice()).unwrap_or(&[])
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

    /// Left objects with no links (total-participation check).
    pub fn unlinked_left(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.left_to_right
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_empty())
            .map(|(i, _)| ObjectId(i as u32))
    }

    pub fn unlinked_right(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.right_to_left
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_empty())
            .map(|(i, _)| ObjectId(i as u32))
    }

    /// Max links per left object (multiplicity check).
    pub fn max_left_fanout(&self) -> usize {
        self.left_to_right.iter().map(|v| v.len()).max().unwrap_or(0)
    }

    pub fn max_right_fanout(&self) -> usize {
        self.right_to_left.iter().map(|v| v.len()).max().unwrap_or(0)
    }

    /// The first left object with more than one link, and how many it has
    /// (to-one multiplicity check).
    pub(crate) fn overlinked_left(&self) -> Option<(ObjectId, usize)> {
        overlinked(&self.left_to_right)
    }

    pub(crate) fn overlinked_right(&self) -> Option<(ObjectId, usize)> {
        overlinked(&self.right_to_left)
    }

    /// Every `(left, right)` pair, grouped by left object. The from-scratch
    /// write path ([`crate::Database::with_writes_full`]) reconstructs a
    /// mutated link population from this flat form.
    pub fn pairs(&self) -> impl Iterator<Item = (ObjectId, ObjectId)> + '_ {
        self.left_to_right
            .iter()
            .enumerate()
            .flat_map(|(l, rs)| rs.iter().map(move |&r| (ObjectId(l as u32), r)))
    }

    /// Assembles a link table from both sides' lists, which must mirror
    /// each other in canonical order; `links` is counted from the left
    /// lists.
    fn from_adjacency(
        left_to_right: Vec<Vec<ObjectId>>,
        right_to_left: Vec<Vec<ObjectId>>,
    ) -> Self {
        let links = left_to_right.iter().map(|v| v.len() as u64).sum();
        Self {
            left_to_right: PagedVec::from_vec(left_to_right),
            right_to_left: PagedVec::from_vec(right_to_left),
            links,
        }
    }

    /// Both adjacency sides, left first (page-sharing diagnostics).
    #[cfg(test)]
    pub(crate) fn sides(&self) -> [&PagedVec<Vec<ObjectId>>; 2] {
        [&self.left_to_right, &self.right_to_left]
    }

    /// Extends the left side by one (unlinked) object slot.
    pub(crate) fn grow_left(&mut self) {
        self.left_to_right.push(Vec::new());
    }

    /// Extends the right side by one (unlinked) object slot.
    pub(crate) fn grow_right(&mut self) {
        self.right_to_left.push(Vec::new());
    }

    /// Adds one edge maintaining the canonical order: the right list gets a
    /// per-left append, the left entry lands at its sorted position (stably
    /// after existing duplicates).
    pub(crate) fn add_sorted(&mut self, left: ObjectId, right: ObjectId) {
        self.left_to_right[left.index()].push(right);
        let list = &mut self.right_to_left[right.index()];
        let at = list.partition_point(|o| o.index() <= left.index());
        list.insert(at, left);
        self.links += 1;
    }

    /// Removes one `(left, right)` edge — the oldest in per-left order when
    /// the edge is duplicated. Returns `false` (and changes nothing) when
    /// either side lacks the edge.
    pub(crate) fn remove_edge(&mut self, left: ObjectId, right: ObjectId) -> bool {
        let at = |list: Option<&Vec<ObjectId>>, o: ObjectId| list?.iter().position(|&x| x == o);
        let (Some(r_at), Some(l_at)) = (
            at(self.left_to_right.get(left.index()), right),
            at(self.right_to_left.get(right.index()), left),
        ) else {
            return false;
        };
        self.left_to_right[left.index()].remove(r_at);
        self.right_to_left[right.index()].remove(l_at);
        self.links -= 1;
        true
    }

    /// Removes `object`'s entry from the mirror list of each of `neighbours`
    /// in `mirror`. Every constructor derives the right side from the left,
    /// so each neighbour's list holds the entry: a debug build asserts it,
    /// and a release build passes over one that does not.
    fn unmirror(
        mirror: &mut PagedVec<Vec<ObjectId>>,
        links: &mut u64,
        neighbours: &[ObjectId],
        object: ObjectId,
    ) {
        for &n in neighbours {
            let at = mirror.get_mut(n.index()).and_then(|list| {
                let at = list.iter().position(|&o| o == object)?;
                Some((list, at))
            });
            debug_assert!(at.is_some(), "{n:?}'s list does not mirror {object:?}");
            if let Some((list, at)) = at {
                list.remove(at);
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
        let moved = self.left_to_right[object.index()].clone();
        let mut seen: Vec<ObjectId> = Vec::new();
        for r in moved {
            if seen.contains(&r) {
                continue; // duplicated edges: re-key the whole run once
            }
            seen.push(r);
            let list = &mut self.right_to_left[r.index()];
            let start = list.partition_point(|o| o.index() < last.index());
            let mut end = start;
            while end < list.len() && list[end] == last {
                end += 1;
            }
            let count = end - start;
            debug_assert!(count > 0, "moved object's edges must be present");
            list.drain(start..end);
            let at = list.partition_point(|o| o.index() <= object.index());
            for k in 0..count {
                list.insert(at + k, object);
            }
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
        let moved = self.right_to_left[object.index()].clone();
        let mut seen: Vec<ObjectId> = Vec::new();
        for l in moved {
            if seen.contains(&l) {
                continue;
            }
            seen.push(l);
            for o in self.left_to_right[l.index()].iter_mut() {
                if *o == last {
                    *o = object;
                }
            }
        }
    }
}

fn overlinked(side: &PagedVec<Vec<ObjectId>>) -> Option<(ObjectId, usize)> {
    side.iter().enumerate().find(|(_, v)| v.len() > 1).map(|(i, v)| (ObjectId(i as u32), v.len()))
}

/// A link endpoint reference used by the executor when walking either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Convenience wrapper naming a relationship traversal direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    pub rel: RelId,
    pub from: Side,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bidirectional_adjacency() {
        let mut l = RelLinks::new(3, 2);
        l.add(ObjectId(0), ObjectId(1));
        l.add(ObjectId(2), ObjectId(1));
        l.add(ObjectId(0), ObjectId(0));
        assert_eq!(l.from_left(ObjectId(0)), &[ObjectId(1), ObjectId(0)]);
        assert_eq!(l.from_right(ObjectId(1)), &[ObjectId(0), ObjectId(2)]);
        assert_eq!(l.link_count(), 3);
        assert_eq!(l.from_left(ObjectId(1)), &[] as &[ObjectId]);
    }

    #[test]
    fn unlinked_detection() {
        let mut l = RelLinks::new(3, 2);
        l.add(ObjectId(0), ObjectId(0));
        let unlinked: Vec<ObjectId> = l.unlinked_left().collect();
        assert_eq!(unlinked, vec![ObjectId(1), ObjectId(2)]);
        let unlinked_r: Vec<ObjectId> = l.unlinked_right().collect();
        assert_eq!(unlinked_r, vec![ObjectId(1)]);
    }

    #[test]
    fn fanout_tracking() {
        let mut l = RelLinks::new(2, 2);
        l.add(ObjectId(0), ObjectId(0));
        l.add(ObjectId(0), ObjectId(1));
        assert_eq!(l.max_left_fanout(), 2);
        assert_eq!(l.max_right_fanout(), 1);
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
    }

    #[test]
    fn from_pairs_sorts_right_lists_stably() {
        let pairs = [(2, 0), (0, 0), (2, 0)]; // one duplicate edge
        let l = RelLinks::from_pairs(3, 1, pairs.map(|(l, r)| (ObjectId(l), ObjectId(r))));
        assert_eq!(l.link_count(), 3);
        assert_eq!(l.from_right(ObjectId(0)), &[ObjectId(0), ObjectId(2), ObjectId(2)]);
        // Left lists keep insertion order.
        assert_eq!(l.from_left(ObjectId(2)), &[ObjectId(0), ObjectId(0)]);
    }

    #[test]
    fn add_sorted_maintains_the_canonical_order() {
        let mut l =
            RelLinks::from_pairs(3, 1, [(0, 0), (2, 0)].map(|(l, r)| (ObjectId(l), ObjectId(r))));
        l.add_sorted(ObjectId(1), ObjectId(0));
        assert_eq!(l.from_right(ObjectId(0)), &[ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert_eq!(l.link_count(), 3);
    }

    #[test]
    fn remove_edge_takes_the_oldest_duplicate_and_reports_missing() {
        let mut l = RelLinks::new(2, 2);
        l.add_sorted(ObjectId(0), ObjectId(1));
        l.add_sorted(ObjectId(0), ObjectId(1));
        assert!(l.remove_edge(ObjectId(0), ObjectId(1)));
        assert_eq!(l.from_left(ObjectId(0)), &[ObjectId(1)]);
        assert_eq!(l.link_count(), 1);
        assert!(!l.remove_edge(ObjectId(1), ObjectId(0)));
        assert!(!l.remove_edge(ObjectId(7), ObjectId(0)), "out of range is not-found, not a panic");
    }

    #[test]
    fn delete_left_renumbers_and_keeps_sorted_right_lists() {
        let pairs = [(0, 0), (1, 0), (2, 0), (2, 1)];
        let mut l = RelLinks::from_pairs(3, 2, pairs.map(|(l, r)| (ObjectId(l), ObjectId(r))));
        // Delete left object 0: object 2 takes its id, edges follow.
        l.delete_left(ObjectId(0));
        assert_eq!(l.left_cardinality(), 2);
        assert_eq!(l.from_left(ObjectId(0)), &[ObjectId(0), ObjectId(1)]);
        assert_eq!(l.from_right(ObjectId(0)), &[ObjectId(0), ObjectId(1)]);
        assert_eq!(l.from_right(ObjectId(1)), &[ObjectId(0)]);
        assert_eq!(l.link_count(), 3);
    }

    #[test]
    fn delete_right_renumbers_left_lists_in_place() {
        let pairs = [(0, 0), (0, 2), (1, 1)];
        let mut l = RelLinks::from_pairs(2, 3, pairs.map(|(l, r)| (ObjectId(l), ObjectId(r))));
        // Delete right object 0: right object 2 takes its id.
        l.delete_right(ObjectId(0));
        assert_eq!(l.right_cardinality(), 2);
        assert_eq!(l.from_left(ObjectId(0)), &[ObjectId(0)]);
        assert_eq!(l.from_right(ObjectId(0)), &[ObjectId(0)]);
        assert_eq!(l.from_right(ObjectId(1)), &[ObjectId(1)]);
        assert_eq!(l.link_count(), 2);
    }

    #[test]
    fn a_one_sided_edge_is_reported_not_a_panic() {
        // Left 0 lists right 1, whose list does not mirror it. No
        // constructor builds such a table (the right side is derived from
        // the left); an edge removal, which a request can ask for, still
        // reports one rather than panic. A delete on it fails `unmirror`'s
        // debug assertion instead (see the test below).
        let mut l = RelLinks::from_adjacency(vec![vec![ObjectId(1)]], vec![vec![], vec![]]);
        assert!(!l.remove_edge(ObjectId(0), ObjectId(1)));
        assert_eq!(l.from_left(ObjectId(0)), &[ObjectId(1)], "nothing removed");
        assert_eq!(l.link_count(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not mirror")]
    fn a_delete_on_a_one_sided_table_fails_a_debug_assertion() {
        let mut r = RelLinks::from_adjacency(vec![vec![]], vec![vec![ObjectId(0)]]);
        r.delete_right(ObjectId(0));
    }
}
