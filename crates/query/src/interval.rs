//! Interval algebra over attribute values.
//!
//! Each selective predicate `attr op const` denotes a set of domain values.
//! This module gives those sets a small normal form — an interval with
//! optional endpoints, or the complement of a point — together with subset
//! and intersection tests. The optimizer uses subset tests for
//! *implication-aware antecedent matching* (`sqo-core`'s
//! `MatchPolicy::Implication`): a query
//! predicate `B > 15` satisfies a constraint antecedent `B > 10` because
//! `(15, ∞) ⊆ (10, ∞)`.
//!
//! Integer intervals are normalized to closed bounds using
//! [`Value::successor`]/[`Value::predecessor`], so `x > 3` and `x >= 4`
//! compare equal.

use std::cmp::Ordering;

use sqo_catalog::Value;

/// One endpoint of an interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bound {
    Unbounded,
    Included(Value),
    Excluded(Value),
}

impl Bound {
    fn value(&self) -> Option<&Value> {
        match self {
            Bound::Unbounded => None,
            Bound::Included(v) | Bound::Excluded(v) => Some(v),
        }
    }
}

/// The set of values denoted by a predicate over one attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueSet {
    /// A contiguous range `lo..hi` (either side may be open or unbounded).
    Range { lo: Bound, hi: Bound },
    /// Everything except one point (`attr != v`).
    Hole(Value),
}

impl ValueSet {
    pub fn point(v: Value) -> Self {
        ValueSet::Range { lo: Bound::Included(v.clone()), hi: Bound::Included(v) }
    }

    pub fn everything() -> Self {
        ValueSet::Range { lo: Bound::Unbounded, hi: Bound::Unbounded }
    }

    pub fn less_than(v: Value) -> Self {
        ValueSet::Range { lo: Bound::Unbounded, hi: Bound::Excluded(v) }.normalize()
    }

    pub fn at_most(v: Value) -> Self {
        ValueSet::Range { lo: Bound::Unbounded, hi: Bound::Included(v) }
    }

    pub fn greater_than(v: Value) -> Self {
        ValueSet::Range { lo: Bound::Excluded(v), hi: Bound::Unbounded }.normalize()
    }

    pub fn at_least(v: Value) -> Self {
        ValueSet::Range { lo: Bound::Included(v), hi: Bound::Unbounded }
    }

    pub fn hole(v: Value) -> Self {
        ValueSet::Hole(v)
    }

    /// Canonicalizes discrete open bounds to closed ones (`> 3` → `>= 4`).
    pub fn normalize(self) -> Self {
        match self {
            ValueSet::Range { lo, hi } => {
                let lo = match lo {
                    Bound::Excluded(v) => match v.successor() {
                        Some(s) => Bound::Included(s),
                        None => Bound::Excluded(v),
                    },
                    other => other,
                };
                let hi = match hi {
                    Bound::Excluded(v) => match v.predecessor() {
                        Some(p) => Bound::Included(p),
                        None => Bound::Excluded(v),
                    },
                    other => other,
                };
                ValueSet::Range { lo, hi }
            }
            hole => hole,
        }
    }

    /// Membership test. Values of a foreign type are never members.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            ValueSet::Hole(h) => matches!(v.compare(h), Some(o) if o != Ordering::Equal),
            ValueSet::Range { lo, hi } => {
                let above_lo = match lo {
                    Bound::Unbounded => true,
                    Bound::Included(b) => {
                        matches!(v.compare(b), Some(Ordering::Greater) | Some(Ordering::Equal))
                    }
                    Bound::Excluded(b) => matches!(v.compare(b), Some(Ordering::Greater)),
                };
                let below_hi = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(b) => {
                        matches!(v.compare(b), Some(Ordering::Less) | Some(Ordering::Equal))
                    }
                    Bound::Excluded(b) => matches!(v.compare(b), Some(Ordering::Less)),
                };
                above_lo && below_hi
            }
        }
    }

    /// Whether the range is provably empty (e.g. `[5, 3]`).
    pub fn is_empty(&self) -> bool {
        match self {
            ValueSet::Hole(_) => false,
            ValueSet::Range { lo, hi } => match (lo.value(), hi.value()) {
                (Some(a), Some(b)) => match a.compare(b) {
                    Some(Ordering::Greater) => true,
                    Some(Ordering::Equal) => {
                        matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_))
                    }
                    _ => false,
                },
                _ => false,
            },
        }
    }

    /// Subset test: does every member of `self` belong to `other`?
    ///
    /// Sound but intentionally incomplete where the domain is unknown:
    /// `Hole(v) ⊆ Range` only holds for the unbounded range, because without
    /// domain bounds the hole's extension is unbounded on both sides.
    pub fn subset_of(&self, other: &ValueSet) -> bool {
        if self.is_empty() {
            return true;
        }
        match (self, other) {
            (ValueSet::Hole(a), ValueSet::Hole(b)) => {
                matches!(a.compare(b), Some(Ordering::Equal))
            }
            (ValueSet::Hole(_), ValueSet::Range { lo, hi }) => {
                matches!(lo, Bound::Unbounded) && matches!(hi, Bound::Unbounded)
            }
            (ValueSet::Range { lo, hi }, ValueSet::Hole(h)) => {
                // The range must exclude the hole's point.
                !ValueSet::Range { lo: lo.clone(), hi: hi.clone() }.contains(h)
            }
            (ValueSet::Range { lo: alo, hi: ahi }, ValueSet::Range { lo: blo, hi: bhi }) => {
                lo_geq(alo, blo) && hi_leq(ahi, bhi)
            }
        }
    }

    /// Intersection with another set over the same attribute; `None` when the
    /// result is not representable in this normal form (range ∩ hole with the
    /// hole strictly inside the range would need two ranges).
    pub fn intersect(&self, other: &ValueSet) -> Option<ValueSet> {
        match (self, other) {
            (ValueSet::Hole(a), ValueSet::Hole(b)) => {
                if matches!(a.compare(b), Some(Ordering::Equal)) {
                    Some(ValueSet::Hole(a.clone()))
                } else {
                    None // two distinct holes: representable only with 3 ranges
                }
            }
            (ValueSet::Range { lo, hi }, ValueSet::Hole(h))
            | (ValueSet::Hole(h), ValueSet::Range { lo, hi }) => {
                let range = ValueSet::Range { lo: lo.clone(), hi: hi.clone() };
                if !range.contains(h) {
                    Some(range)
                } else {
                    // Shrinkable when the hole sits on a closed endpoint.
                    match (&lo, &hi) {
                        (Bound::Included(l), _)
                            if matches!(l.compare(h), Some(Ordering::Equal)) =>
                        {
                            Some(
                                ValueSet::Range { lo: Bound::Excluded(h.clone()), hi: hi.clone() }
                                    .normalize(),
                            )
                        }
                        (_, Bound::Included(u))
                            if matches!(u.compare(h), Some(Ordering::Equal)) =>
                        {
                            Some(
                                ValueSet::Range { lo: lo.clone(), hi: Bound::Excluded(h.clone()) }
                                    .normalize(),
                            )
                        }
                        _ => None,
                    }
                }
            }
            (ValueSet::Range { lo: alo, hi: ahi }, ValueSet::Range { lo: blo, hi: bhi }) => {
                let lo = if lo_geq(alo, blo) { alo.clone() } else { blo.clone() };
                let hi = if hi_leq(ahi, bhi) { ahi.clone() } else { bhi.clone() };
                Some(ValueSet::Range { lo, hi })
            }
        }
    }

    /// Whether `self ∩ other = ∅` is provable.
    pub fn disjoint_from(&self, other: &ValueSet) -> bool {
        match self.intersect(other) {
            Some(s) => s.is_empty(),
            None => false, // unrepresentable intersections are never empty here
        }
    }
}

/// `a` is at least as tight a lower bound as `b`.
fn lo_geq(a: &Bound, b: &Bound) -> bool {
    match (a, b) {
        (_, Bound::Unbounded) => true,
        (Bound::Unbounded, _) => false,
        (Bound::Included(x), Bound::Included(y)) | (Bound::Excluded(x), Bound::Excluded(y)) => {
            matches!(x.compare(y), Some(Ordering::Greater) | Some(Ordering::Equal))
        }
        (Bound::Included(x), Bound::Excluded(y)) => {
            matches!(x.compare(y), Some(Ordering::Greater))
        }
        (Bound::Excluded(x), Bound::Included(y)) => {
            matches!(x.compare(y), Some(Ordering::Greater) | Some(Ordering::Equal))
        }
    }
}

/// `a` is at least as tight an upper bound as `b`.
fn hi_leq(a: &Bound, b: &Bound) -> bool {
    match (a, b) {
        (_, Bound::Unbounded) => true,
        (Bound::Unbounded, _) => false,
        (Bound::Included(x), Bound::Included(y)) | (Bound::Excluded(x), Bound::Excluded(y)) => {
            matches!(x.compare(y), Some(Ordering::Less) | Some(Ordering::Equal))
        }
        (Bound::Included(x), Bound::Excluded(y)) => matches!(x.compare(y), Some(Ordering::Less)),
        (Bound::Excluded(x), Bound::Included(y)) => {
            matches!(x.compare(y), Some(Ordering::Less) | Some(Ordering::Equal))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn normalize_discrete_bounds() {
        assert_eq!(
            ValueSet::greater_than(i(3)),
            ValueSet::Range { lo: Bound::Included(i(4)), hi: Bound::Unbounded }
        );
        assert_eq!(
            ValueSet::less_than(i(3)),
            ValueSet::Range { lo: Bound::Unbounded, hi: Bound::Included(i(2)) }
        );
        // Strings stay open.
        assert_eq!(
            ValueSet::greater_than(Value::str("m")),
            ValueSet::Range { lo: Bound::Excluded(Value::str("m")), hi: Bound::Unbounded }
        );
    }

    #[test]
    fn contains_basics() {
        let s = ValueSet::at_least(i(10));
        assert!(s.contains(&i(10)));
        assert!(s.contains(&i(11)));
        assert!(!s.contains(&i(9)));
        let h = ValueSet::hole(i(5));
        assert!(h.contains(&i(4)));
        assert!(!h.contains(&i(5)));
        // Foreign types are not members.
        assert!(!s.contains(&Value::str("10")));
    }

    #[test]
    fn emptiness() {
        let e = ValueSet::Range { lo: Bound::Included(i(5)), hi: Bound::Included(i(3)) };
        assert!(e.is_empty());
        let p = ValueSet::point(i(3));
        assert!(!p.is_empty());
        let half_open = ValueSet::Range { lo: Bound::Included(i(3)), hi: Bound::Excluded(i(3)) };
        assert!(half_open.is_empty());
    }

    #[test]
    fn subset_ranges() {
        // (15, inf) ⊆ (10, inf): the motivating example.
        assert!(ValueSet::greater_than(i(15)).subset_of(&ValueSet::greater_than(i(10))));
        assert!(!ValueSet::greater_than(i(10)).subset_of(&ValueSet::greater_than(i(15))));
        // Point in range.
        assert!(ValueSet::point(i(7)).subset_of(&ValueSet::at_most(i(7))));
        assert!(!ValueSet::point(i(8)).subset_of(&ValueSet::at_most(i(7))));
        // x > 3 ⊆ x >= 4 for ints (equality after normalization).
        assert!(ValueSet::greater_than(i(3)).subset_of(&ValueSet::at_least(i(4))));
        assert!(ValueSet::at_least(i(4)).subset_of(&ValueSet::greater_than(i(3))));
    }

    #[test]
    fn subset_holes() {
        assert!(ValueSet::hole(i(5)).subset_of(&ValueSet::hole(i(5))));
        assert!(!ValueSet::hole(i(5)).subset_of(&ValueSet::hole(i(6))));
        // point(4) ⊆ hole(5)
        assert!(ValueSet::point(i(4)).subset_of(&ValueSet::hole(i(5))));
        assert!(!ValueSet::point(i(5)).subset_of(&ValueSet::hole(i(5))));
        // range that excludes the hole point
        assert!(ValueSet::at_most(i(4)).subset_of(&ValueSet::hole(i(5))));
        assert!(!ValueSet::at_most(i(5)).subset_of(&ValueSet::hole(i(5))));
        // hole ⊆ full range only
        assert!(ValueSet::hole(i(5)).subset_of(&ValueSet::everything()));
        assert!(!ValueSet::hole(i(5)).subset_of(&ValueSet::at_least(i(0))));
    }

    #[test]
    fn empty_is_subset_of_all() {
        let e = ValueSet::Range { lo: Bound::Included(i(5)), hi: Bound::Included(i(3)) };
        assert!(e.subset_of(&ValueSet::point(i(42))));
        assert!(e.subset_of(&ValueSet::hole(i(42))));
    }

    #[test]
    fn intersect_ranges() {
        let a = ValueSet::at_least(i(5));
        let b = ValueSet::at_most(i(10));
        let got = a.intersect(&b).unwrap();
        assert!(got.contains(&i(5)) && got.contains(&i(10)) && !got.contains(&i(11)));
        let c = ValueSet::at_least(i(11));
        assert!(b.disjoint_from(&c));
        assert!(!a.disjoint_from(&b));
    }

    #[test]
    fn intersect_range_with_hole() {
        let r = ValueSet::at_least(i(5));
        // Hole outside the range: range unchanged.
        assert_eq!(r.intersect(&ValueSet::hole(i(0))), Some(r.clone()));
        // Hole on the closed endpoint: endpoint opens up (then normalizes).
        let shrunk = r.intersect(&ValueSet::hole(i(5))).unwrap();
        assert!(!shrunk.contains(&i(5)) && shrunk.contains(&i(6)));
        // Hole strictly inside: unrepresentable.
        assert_eq!(r.intersect(&ValueSet::hole(i(7))), None);
    }

    #[test]
    fn point_disjoint_from_other_point() {
        assert!(ValueSet::point(i(1)).disjoint_from(&ValueSet::point(i(2))));
        assert!(!ValueSet::point(i(1)).disjoint_from(&ValueSet::point(i(1))));
        assert!(ValueSet::point(Value::str("frozen food"))
            .disjoint_from(&ValueSet::point(Value::str("fresh food"))));
    }
}
