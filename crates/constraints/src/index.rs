//! The secondary constraint index — the cold path's fast lane.
//!
//! The paper's grouping scheme (§3) fetches whole per-class groups and then
//! filters them, which is correct but pays for every irrelevant constraint
//! riding along in a group (the E6 *waste ratio*). This module adds an exact
//! inverted index over the store's [`HornConstraint`]s so the optimizer
//! probes only by what the query actually mentions. It holds two posting
//! families, `by_class` and `by_rel`, keyed by referenced [`ClassId`] and
//! required [`RelId`]. Relevance (`classes ⊆ q.classes ∧ rels ⊆ q.rels`) is
//! decided by *counting* postings hits per constraint: a constraint is
//! relevant iff every one of its references is matched, i.e. its hit count
//! reaches `needs`. No candidate set is ever materialized, no irrelevant
//! constraint is ever touched twice.
//!
//! Lookups write into a caller-provided [`RetrievalScratch`] so a serving
//! thread performs no transient allocation after warm-up. Recall-equivalence
//! against the linear scan is property-tested in
//! `tests/prop_index_recall.rs`.

use sqo_catalog::{ClassId, RelId};
use sqo_query::Query;

use crate::horn::{ConstraintId, HornConstraint};

/// Exact inverted index over a store's constraints.
#[derive(Debug, Clone, Default)]
pub struct ConstraintIndex {
    /// class → constraints referencing that class (each listed once).
    by_class: Vec<Vec<ConstraintId>>,
    /// relationship → constraints requiring that relationship.
    by_rel: Vec<Vec<ConstraintId>>,
    /// Total references (`classes.len() + relationships.len()`) per
    /// constraint — the hit count at which a constraint becomes relevant.
    needs: Vec<u32>,
}

impl ConstraintIndex {
    /// An empty index dimensioned for `classes` object classes and `rels`
    /// relationship types.
    pub fn new(classes: usize, rels: usize) -> Self {
        Self {
            by_class: vec![Vec::new(); classes],
            by_rel: vec![Vec::new(); rels],
            needs: Vec::new(),
        }
    }

    /// Adds one constraint (`id` must equal the current
    /// [`ConstraintIndex::len`]; its classes and relationships must lie
    /// inside the index's dimensions — the store checks both against its
    /// catalog before filing).
    pub fn insert(&mut self, id: ConstraintId, c: &HornConstraint) {
        debug_assert_eq!(id.index(), self.needs.len(), "constraints indexed in id order");
        for &class in &c.classes {
            self.by_class[class.index()].push(id);
        }
        for &rel in &c.relationships {
            self.by_rel[rel.index()].push(id);
        }
        self.needs.push((c.classes.len() + c.relationships.len()) as u32);
    }

    /// Number of indexed constraints.
    pub fn len(&self) -> usize {
        self.needs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.needs.is_empty()
    }

    /// Constraints referencing `class`.
    pub fn of_class(&self, class: ClassId) -> &[ConstraintId] {
        self.by_class.get(class.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Constraints requiring `rel`.
    pub fn of_rel(&self, rel: RelId) -> &[ConstraintId] {
        self.by_rel.get(rel.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Computes the exact relevant set for `query` into `out` (ascending
    /// [`ConstraintId`] order), by counting postings hits: a constraint is
    /// relevant iff all of its `needs` references are present in the query.
    /// Equivalent to the linear `relevant_to` scan, but touches only
    /// postings of classes/relationships the query mentions.
    pub fn relevant_into(
        &self,
        query: &Query,
        scratch: &mut RetrievalScratch,
        out: &mut Vec<ConstraintId>,
    ) {
        out.clear();
        scratch.begin(self.needs.len());
        let gen = scratch.gen;
        scratch.seen_classes.clear();
        for &class in &query.classes {
            if scratch.seen_classes.contains(&class.0) {
                continue; // validated queries are duplicate-free; stay exact anyway
            }
            scratch.seen_classes.push(class.0);
            for &id in self.of_class(class) {
                scratch.hit(id, gen, &self.needs, out);
            }
        }
        scratch.seen_rels.clear();
        for &rel in &query.relationships {
            if scratch.seen_rels.contains(&rel.0) {
                continue;
            }
            scratch.seen_rels.push(rel.0);
            for &id in self.of_rel(rel) {
                scratch.hit(id, gen, &self.needs, out);
            }
        }
        out.sort_unstable();
    }
}

/// Reusable buffers for [`ConstraintIndex::relevant_into`]: a generation-
/// stamped hit counter per constraint, so consecutive queries share one
/// allocation and never pay a clearing pass.
#[derive(Debug, Default)]
pub struct RetrievalScratch {
    stamp: Vec<u64>,
    hits: Vec<u32>,
    gen: u64,
    seen_classes: Vec<u32>,
    seen_rels: Vec<u32>,
}

impl RetrievalScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, constraints: usize) {
        if self.stamp.len() < constraints {
            self.stamp.resize(constraints, 0);
            self.hits.resize(constraints, 0);
        }
        self.gen += 1;
    }

    #[inline]
    fn hit(&mut self, id: ConstraintId, gen: u64, needs: &[u32], out: &mut Vec<ConstraintId>) {
        let i = id.index();
        if self.stamp[i] != gen {
            self.stamp[i] = gen;
            self.hits[i] = 0;
        }
        self.hits[i] += 1;
        if self.hits[i] == needs[i] {
            out.push(id);
        }
    }
}
