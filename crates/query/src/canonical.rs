//! The plan cache's key and its slot check (`sqo-service`).
//!
//! The paper's query is five lists, and each denotes a set: projections,
//! join predicates, selective predicates, relationships, classes. Two
//! spellings that list the same elements in another order, or one element
//! twice, are the same query and must find the same cache entry. Chirkova's
//! combined semantics (PAPERS.md) is why exactly those five parts are sets
//! and nothing else is one: a conjunction and a projection list do not
//! change meaning under reordering or repetition.
//!
//! * [`Query::canonical`] is the representative of a spelling's class:
//!   every part sorted and deduplicated ([`Query::normalized`]). The
//!   serving layer builds it only on a miss, to optimize it.
//! * [`Query::fingerprint`] hashes **any** spelling directly. Each part is
//!   hashed as the set of its distinct elements: an element is hashed over
//!   64-bit little-endian words (a string 8 bytes at a time, a float with
//!   its zero normalized as `Finite`'s `Hash` does, so `-0.0` and `0.0`,
//!   which are `==`, share a key), and a part combines the hashes of its
//!   distinct elements by a wrapping sum, which is order-independent and
//!   needs neither an allocation nor a sort. The constants are fixed and
//!   the words little-endian, so the key is the same in every process and
//!   on every platform, unlike `DefaultHasher`'s.
//! * [`Query::same_canonical`] is what a cache slot is verified with, to
//!   disarm 64-bit collisions: part-by-part set equality, which holds
//!   exactly when the two canonical forms are equal.
//!
//! The key used to be byte-at-a-time FNV-1a over the canonical form, so
//! every hit first built the sorted copy (four allocations) and then fed
//! it to the hash one byte per multiply. With a key and a check that read
//! any spelling, a hit reads the request once and allocates nothing.
//!
//! # Part size
//!
//! Both the key's dedup and the set check compare each element of a part
//! with the others, so their cost grows with the square of the part's
//! length, where sorting grows as `n log n`. That is the right trade for
//! the parts queries have: over the first 4,096 distinct queries of the
//! paper's generator the longest part holds 9 elements (3 projections,
//! 0 join predicates, 9 selective predicates, 4 relationships, 5
//! classes). Nothing bounds a part's length, though. In release on a
//! 2-core Xeon VM, 64 selective predicates cost 3.4 µs to key and 8.1 µs
//! to check against a reversed spelling (7.9 µs to canonicalize); 4,096
//! cost 11 ms and 23 ms (0.6 ms to canonicalize). The test
//! `a_long_part_is_compared_as_a_set` runs that size.

use std::fmt;

use sqo_catalog::{AttrRef, Value};

use crate::ast::{Projection, Query};
use crate::predicate::{CompOp, JoinPredicate, SelPredicate};

/// A stable 64-bit digest of a query's canonical form.
///
/// Equal fingerprints are intended to mean equal canonical queries; the
/// serving layer additionally pairs the fingerprint with a constraint-store
/// epoch so that cached rewrites invalidate when the semantic world changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u64);

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The start state of every hash (the golden-ratio constant).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// splitmix64's two finalizer multipliers.
const M1: u64 = 0xbf58_476d_1ce4_e5b9;
const M2: u64 = 0x94d0_49bb_1331_11eb;

/// A hash fed one 64-bit word at a time. Each step multiplies the state
/// xor the word by an odd constant and rotates the product, a bijection
/// that brings its well-mixed high bits down; [`Words::finish`] is
/// splitmix64's finalizer.
#[derive(Debug, Clone, Copy)]
struct Words(u64);

impl Words {
    fn new() -> Self {
        Self(SEED)
    }

    fn word(self, w: u64) -> Self {
        Self((self.0 ^ w).wrapping_mul(M1).rotate_left(23))
    }

    fn finish(self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(M1);
        let z = (z ^ (z >> 27)).wrapping_mul(M2);
        z ^ (z >> 31)
    }

    fn attr(self, attr: AttrRef) -> Self {
        self.word(u64::from(attr.class.0) << 32 | u64::from(attr.attr.0))
    }

    /// The type tags are the `.sqos` value tags (`docs/FORMAT.md` §3.0).
    fn value(self, v: &Value) -> Self {
        match v {
            Value::Int(i) => self.word(0).word(*i as u64),
            Value::Float(f) => {
                let bits = if f.get() == 0.0 { 0 } else { f.get().to_bits() };
                self.word(1).word(bits)
            }
            Value::Str(s) => {
                let chunks = s.as_bytes().chunks_exact(8);
                // The tail, zero-padded to a little-endian word.
                let tail = chunks.remainder().iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
                let h = chunks.fold(self.word(2).word(s.len() as u64), |h, chunk| {
                    h.word(chunk.first_chunk().map_or(0, |w| u64::from_le_bytes(*w)))
                });
                h.word(tail)
            }
            Value::Bool(b) => self.word(3).word(u64::from(*b)),
        }
    }

    fn op(self, op: CompOp) -> Self {
        self.word(match op {
            CompOp::Eq => 0,
            CompOp::Ne => 1,
            CompOp::Lt => 2,
            CompOp::Le => 3,
            CompOp::Gt => 4,
            CompOp::Ge => 5,
        })
    }

    /// Folds in one part as the set of its distinct elements: how many
    /// there are and the wrapping sum of their hashes. An element equal to
    /// an earlier one adds nothing, so neither order nor repetition moves
    /// the result.
    fn part<T: PartialEq>(self, items: &[T], element: impl Fn(Words, &T) -> Words) -> Self {
        let (mut distinct, mut sum) = (0u64, 0u64);
        for (i, x) in items.iter().enumerate() {
            if !items[..i].contains(x) {
                distinct += 1;
                sum = sum.wrapping_add(element(Words::new(), x).finish());
            }
        }
        self.word(distinct).word(sum)
    }
}

fn projection(h: Words, p: &Projection) -> Words {
    let h = h.attr(p.attr);
    match &p.binding {
        None => h.word(0),
        Some(v) => h.word(1).value(v),
    }
}

fn join(h: Words, p: &JoinPredicate) -> Words {
    h.attr(p.left).op(p.op).attr(p.right)
}

fn selective(h: Words, p: &SelPredicate) -> Words {
    h.attr(p.attr).op(p.op).value(&p.value)
}

/// Whether `a` and `b` hold the same distinct elements: in order first,
/// which is all two canonical parts need, then as sets. The set pass has
/// each element of `a` mark every equal element of `b` in one word: `a ⊆ b`
/// when every element marks one, `b ⊆ a` when every element is marked.
///
/// One pass answers both directions and scans all of `b`, so no branch
/// depends on where a match sits; `a ⊆ b && b ⊆ a` over `contains` makes
/// as many comparisons but exits each scan at the match. In release on a
/// 2-core Xeon VM the mark pass checks a shuffled spelling of one of the
/// paper's queries against its canonical form in 132 ns, the `contains`
/// pair in 197 ns, and `warm_zipf` serves 14 % more hits with it by
/// calibrated medians (six alternating pairs, ahead in all six). A part
/// longer than the word takes the `contains` pair (module docs, *Part
/// size*).
fn same_set<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    if a == b {
        return true;
    }
    if b.len() > 64 {
        return a.iter().all(|x| b.contains(x)) && b.iter().all(|y| a.contains(y));
    }
    let mut marked = 0u64;
    for x in a {
        let hits = b.iter().enumerate().fold(0, |hits, (j, y)| hits | u64::from(y == x) << j);
        if hits == 0 {
            return false;
        }
        marked |= hits;
    }
    marked.count_ones() as usize == b.len()
}

impl Query {
    /// The canonical representative of this query's equivalence class under
    /// list reordering and duplication: every part sorted deterministically
    /// and deduplicated. Canonicalization is idempotent and does not change
    /// the query's meaning (conjunctions and projection sets are
    /// order-insensitive).
    pub fn canonical(&self) -> Query {
        self.clone().normalized()
    }

    /// Whether the query already is its own canonical form.
    pub fn is_canonical(&self) -> bool {
        *self == self.canonical()
    }

    /// Stable fingerprint of the canonical form (see [`QueryFingerprint`]),
    /// computed from any spelling without building it (module docs).
    ///
    /// Queries differing only in list order or duplicated entries share a
    /// fingerprint; queries with different predicates, projections, classes
    /// or relationships get different fingerprints (modulo 64-bit hash
    /// collisions, which the cache tolerates by checking the cached query
    /// with [`Query::same_canonical`]).
    pub fn fingerprint(&self) -> QueryFingerprint {
        let h = Words::new()
            .part(&self.projections, projection)
            .part(&self.join_predicates, join)
            .part(&self.selective_predicates, selective)
            .part(&self.relationships, |h, r| h.word(u64::from(r.0)))
            .part(&self.classes, |h, c| h.word(u64::from(c.0)));
        QueryFingerprint(h.finish())
    }

    /// [`Query::fingerprint`], under the name callers that hold a
    /// canonical query use. Every spelling has the same key, so there is
    /// nothing for a canonical one to skip.
    pub fn fingerprint_canonical(&self) -> QueryFingerprint {
        self.fingerprint()
    }

    /// Whether `self` and `other` have the same canonical form, checked on
    /// the spellings as given: each part holds the same distinct elements.
    /// A canonical pair pays one in-order comparison per part; any other
    /// spelling, one set comparison. Allocates nothing.
    pub fn same_canonical(&self, other: &Query) -> bool {
        same_set(&self.classes, &other.classes)
            && same_set(&self.relationships, &other.relationships)
            && same_set(&self.selective_predicates, &other.selective_predicates)
            && same_set(&self.join_predicates, &other.join_predicates)
            && same_set(&self.projections, &other.projections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use sqo_catalog::example::figure21;

    fn sample() -> (sqo_catalog::Catalog, Query) {
        let catalog = figure21().unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "SFI")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        (catalog, q)
    }

    #[test]
    fn canonical_is_idempotent() {
        let (_, q) = sample();
        let c = q.canonical();
        assert_eq!(c, c.canonical());
        assert!(c.is_canonical());
    }

    #[test]
    fn fingerprint_ignores_list_order() {
        let (_, q) = sample();
        let mut shuffled = q.clone();
        shuffled.projections.reverse();
        shuffled.selective_predicates.reverse();
        shuffled.relationships.reverse();
        shuffled.classes.reverse();
        assert_eq!(q.fingerprint(), shuffled.fingerprint());
        assert_eq!(q.canonical(), shuffled.canonical());
        assert!(q.same_canonical(&shuffled) && shuffled.same_canonical(&q.canonical()));
    }

    #[test]
    fn fingerprint_distinguishes_different_queries() {
        let (catalog, q) = sample();
        let other = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .filter("vehicle.desc", CompOp::Eq, "flatbed")
            .build()
            .unwrap();
        assert_ne!(q.fingerprint(), other.fingerprint());
        assert!(!q.same_canonical(&other));
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let (_, q) = sample();
        assert_eq!(q.fingerprint(), q.clone().fingerprint());
        assert_eq!(q.fingerprint(), q.canonical().fingerprint_canonical());
        // Pin the algorithm: the key must not depend on the process, the
        // platform or the build, so its values are fixed.
        assert_eq!(Query::new().fingerprint(), QueryFingerprint(0x13bd_6663_c7ae_2c92));
        assert_eq!(q.fingerprint(), QueryFingerprint(0x8cfa_e9fa_f0d4_9906));
    }

    #[test]
    fn value_kinds_do_not_alias() {
        let (catalog, _) = sample();
        let a = QueryBuilder::new(&catalog)
            .select("cargo.desc")
            .filter("cargo.quantity", CompOp::Eq, 1i64)
            .build()
            .unwrap();
        let mut b = a.clone();
        b.selective_predicates[0].value = Value::Bool(true);
        // Not a valid query (type mismatch), but the fingerprint must still
        // discriminate the raw value encodings.
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(!a.same_canonical(&b));
    }

    #[test]
    fn a_repeated_element_is_counted_once() {
        let (_, q) = sample();
        let mut twice = q.clone();
        twice.selective_predicates.push(q.selective_predicates[0].clone());
        twice.classes.insert(0, q.classes[1]);
        assert_eq!(twice.fingerprint(), q.fingerprint());
        assert!(twice.same_canonical(&q) && q.same_canonical(&twice));
        // A part that holds an element twice is not one that holds it and
        // another element.
        let mut other = q.clone();
        other.classes.retain(|c| *c != q.classes[0]);
        other.classes.push(q.classes[1]);
        assert!(!other.same_canonical(&q) && !q.same_canonical(&other));
    }

    /// The part size the module docs quote a cost for: 4,096 selective
    /// predicates, one spelling reversed against the other. A part this
    /// long is past the mark word and takes the `contains` pair.
    #[test]
    fn a_long_part_is_compared_as_a_set() {
        let (catalog, _) = sample();
        let attr = catalog.attr_ref("cargo", "quantity").unwrap();
        let mut long = Query::new();
        long.selective_predicates =
            (0..4096).map(|i| SelPredicate::new(attr, CompOp::Gt, Value::Int(i))).collect();
        let mut reversed = long.clone();
        reversed.selective_predicates.reverse();
        assert_eq!(long.fingerprint(), reversed.fingerprint());
        assert!(long.same_canonical(&reversed) && reversed.same_canonical(&long));
        let mut short = reversed.clone();
        short.selective_predicates[0] = short.selective_predicates[1].clone();
        assert_ne!(long.fingerprint(), short.fingerprint());
        assert!(!long.same_canonical(&short) && !short.same_canonical(&long));
    }

    #[test]
    fn signed_zeros_are_one_query() {
        let (catalog, _) = sample();
        let spelled = |zero: f64| {
            let mut q = QueryBuilder::new(&catalog).select("cargo.desc").build().unwrap();
            let attr = catalog.attr_ref("cargo", "quantity").unwrap();
            q.selective_predicates.push(SelPredicate::new(
                attr,
                CompOp::Gt,
                Value::float(zero).unwrap(),
            ));
            q
        };
        let (positive, negative) = (spelled(0.0), spelled(-0.0));
        assert_eq!(positive.canonical(), negative.canonical());
        assert_eq!(positive.fingerprint(), negative.fingerprint());
        assert!(positive.same_canonical(&negative));
    }
}
