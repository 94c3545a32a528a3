//! The predicate pool.
//!
//! §3 of the paper: "extract all the predicates into a separate structure,
//! and [modify] the constraints to contain only pointers to relevant
//! predicates in the structure". This is that structure: an interner
//! mapping canonical [`Predicate`]s to dense [`PredId`]s. The constraint
//! store keeps one, into which
//! [`ConstraintStore`](crate::ConstraintStore) files every constraint's
//! antecedents and consequent once, when the constraint is filed. A store's
//! pool is derived from its constraints and never persisted. The
//! transformation table maps store ids to its columns and looks up only the
//! query's own predicates here ([`PredicatePool::lookup`]), so a miss hashes
//! about three predicates, not every relevant constraint's.

use std::collections::HashMap;
use std::fmt;

use sqo_query::Predicate;

/// Index of a predicate within a [`PredicatePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

impl PredId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Deduplicating predicate storage. Since predicates are canonicalized by
/// `sqo-query`, structural interning equates logically equal atoms within
/// the supported fragment (e.g. `b.y > a.x` and `a.x < b.y`).
#[derive(Debug, Clone, Default)]
pub struct PredicatePool {
    preds: Vec<Predicate>,
    index: HashMap<Predicate, PredId>,
}

impl PredicatePool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a predicate, returning its id (existing or fresh). Only a
    /// predicate the pool has not seen is cloned.
    pub fn intern(&mut self, pred: &Predicate) -> PredId {
        if let Some(&id) = self.index.get(pred) {
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        self.index.insert(pred.clone(), id);
        self.preds.push(pred.clone());
        id
    }

    /// The id of a predicate equal to `pred`, if the pool holds one.
    pub fn lookup(&self, pred: &Predicate) -> Option<PredId> {
        self.index.get(pred).copied()
    }

    pub fn get(&self, id: PredId) -> &Predicate {
        &self.preds[id.index()]
    }

    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (PredId, &Predicate)> {
        self.preds.iter().enumerate().map(|(i, p)| (PredId(i as u32), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, AttrRef, ClassId};
    use sqo_query::CompOp;

    fn aref(c: u32, a: u32) -> AttrRef {
        AttrRef::new(ClassId(c), AttrId(a))
    }

    #[test]
    fn interning_deduplicates() {
        let mut pool = PredicatePool::new();
        let p1 = Predicate::sel(aref(0, 0), CompOp::Eq, "frozen food");
        let p2 = Predicate::sel(aref(0, 0), CompOp::Eq, "frozen food");
        let id1 = pool.intern(&p1);
        let id2 = pool.intern(&p2);
        assert_eq!(id1, id2);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.get(id1), &p1);
        assert_eq!(pool.lookup(&p2), Some(id1));
        assert_eq!(pool.lookup(&Predicate::sel(aref(0, 0), CompOp::Eq, "dry goods")), None);
    }

    #[test]
    fn canonicalized_joins_share_an_id() {
        let mut pool = PredicatePool::new();
        let a = Predicate::join(aref(0, 0), CompOp::Lt, aref(1, 0));
        let b = Predicate::join(aref(1, 0), CompOp::Gt, aref(0, 0));
        assert_eq!(pool.intern(&a), pool.intern(&b));
    }

    #[test]
    fn distinct_predicates_get_distinct_ids() {
        let mut pool = PredicatePool::new();
        let a = pool.intern(&Predicate::sel(aref(0, 0), CompOp::Gt, 1i64));
        let b = pool.intern(&Predicate::sel(aref(0, 0), CompOp::Gt, 2i64));
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }
}
