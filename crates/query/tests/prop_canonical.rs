//! Property tests for query canonicalization and fingerprinting — the
//! contract the `sqo-service` plan cache rests on:
//!
//! * canonicalization is **idempotent** (`canonical(canonical(q)) ==
//!   canonical(q)`), so re-canonicalizing a cached query is a no-op;
//! * canonicalization is **order-insensitive**: any permutation (and any
//!   duplication) of a query's list parts canonicalizes to the same value
//!   and therefore to the same fingerprint;
//! * the **lookup** needs no canonical form: any spelling's fingerprint is
//!   its canonical form's, and `same_canonical` — the check a cache slot
//!   is verified with — holds exactly when two canonical forms are equal,
//!   and is symmetric.

use proptest::prelude::*;
use sqo_catalog::{AttrId, AttrRef, ClassId, RelId, Value};
use sqo_query::{CompOp, JoinPredicate, Projection, Query, SelPredicate};

fn any_op() -> impl Strategy<Value = CompOp> {
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Ne),
        Just(CompOp::Lt),
        Just(CompOp::Le),
        Just(CompOp::Gt),
        Just(CompOp::Ge),
    ]
}

fn float(f: f64) -> Value {
    Value::float(f).expect("finite")
}

/// Floats that print like integers (`1.0` as `1`, `-1.0` as `-1`) and both
/// zeros, which are `==` and print differently.
fn any_float() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(float(0.0)),
        Just(float(-0.0)),
        Just(float(1.0)),
        Just(float(-1.0)),
        Just(float(2.5)),
    ]
}

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (0usize..8).prop_map(|i| Value::str(format!("v{i}"))),
        prop_oneof![Just(Value::Bool(false)), Just(Value::Bool(true))],
        any_float(),
    ]
}

fn any_attr() -> impl Strategy<Value = AttrRef> {
    (0u32..5, 0u32..4).prop_map(|(c, a)| AttrRef::new(ClassId(c), AttrId(a)))
}

fn any_projection() -> impl Strategy<Value = Projection> {
    (any_attr(), prop_oneof![Just(None), any_value().prop_map(Some)])
        .prop_map(|(attr, binding)| Projection { attr, binding })
}

fn any_sel() -> impl Strategy<Value = SelPredicate> {
    (any_attr(), any_op(), any_value()).prop_map(|(a, op, v)| SelPredicate::new(a, op, v))
}

fn any_join() -> impl Strategy<Value = JoinPredicate> {
    (any_attr(), any_op(), any_attr()).prop_map(|(l, op, r)| JoinPredicate::new(l, op, r))
}

/// A structurally arbitrary query (not necessarily catalog-valid, which
/// canonicalization must not require).
fn any_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(any_projection(), 0..5),
        prop::collection::vec(any_join(), 0..4),
        prop::collection::vec(any_sel(), 0..5),
        prop::collection::vec(0u32..6, 0..4),
        prop::collection::vec(0u32..5, 1..5),
    )
        .prop_map(|(projections, joins, sels, rels, classes)| Query {
            projections,
            join_predicates: joins,
            selective_predicates: sels,
            relationships: rels.into_iter().map(RelId).collect(),
            classes: classes.into_iter().map(ClassId).collect(),
        })
}

/// A query over a deliberately small domain — two attributes, two
/// operators, five values (`0`, `1`, `0.0`, `-0.0`, `1.0`), two
/// relationships, three classes — so that two draws often hold equal
/// sets in a part, and sets that differ by one element.
fn small_query() -> impl Strategy<Value = Query> {
    let value = || {
        prop_oneof![
            Just(Value::Int(0)),
            Just(Value::Int(1)),
            Just(float(0.0)),
            Just(float(-0.0)),
            Just(float(1.0)),
        ]
    };
    let attr = || (0u32..2).prop_map(|a| AttrRef::new(ClassId(0), AttrId(a)));
    let op = || prop_oneof![Just(CompOp::Eq), Just(CompOp::Lt)];
    (
        prop::collection::vec(
            (attr(), prop_oneof![Just(None), value().prop_map(Some)])
                .prop_map(|(attr, binding)| Projection { attr, binding }),
            0..3,
        ),
        prop::collection::vec(
            (attr(), op(), attr()).prop_map(|(l, op, r)| JoinPredicate::new(l, op, r)),
            0..3,
        ),
        prop::collection::vec(
            (attr(), op(), value()).prop_map(|(a, op, v)| SelPredicate::new(a, op, v)),
            0..4,
        ),
        prop::collection::vec(0u32..2, 0..3),
        prop::collection::vec(0u32..3, 1..4),
    )
        .prop_map(|(projections, joins, sels, rels, classes)| Query {
            projections,
            join_predicates: joins,
            selective_predicates: sels,
            relationships: rels.into_iter().map(RelId).collect(),
            classes: classes.into_iter().map(ClassId).collect(),
        })
}

/// A pair of small queries: `b` takes each part from a respelling of `a`
/// or, where `mask` has the part's bit, from an independent draw — so
/// pairs with equal canonical forms, and pairs one part away from them,
/// are both common.
fn small_pair() -> impl Strategy<Value = (Query, Query)> {
    (small_query(), small_query(), 0u8..32, 0usize..7, 0usize..9).prop_map(
        |(a, other, mask, k, dup)| {
            let spelled = respell(&a, k, k % 2 == 0, dup);
            let pick = |bit: u8| mask & (1 << bit) != 0;
            let b = Query {
                projections: if pick(0) { other.projections } else { spelled.projections },
                join_predicates: if pick(1) {
                    other.join_predicates
                } else {
                    spelled.join_predicates
                },
                selective_predicates: if pick(2) {
                    other.selective_predicates
                } else {
                    spelled.selective_predicates
                },
                relationships: if pick(3) { other.relationships } else { spelled.relationships },
                classes: if pick(4) { other.classes } else { spelled.classes },
            };
            (a, b)
        },
    )
}

/// A deterministic permutation: rotate by `k` and optionally reverse.
fn permute<T: Clone>(xs: &[T], k: usize, rev: bool) -> Vec<T> {
    if xs.is_empty() {
        return Vec::new();
    }
    let k = k % xs.len();
    let mut out: Vec<T> = xs[k..].iter().chain(xs[..k].iter()).cloned().collect();
    if rev {
        out.reverse();
    }
    out
}

/// `xs` permuted, with the element at `dup` listed a second time.
fn respelled<T: Clone>(xs: &[T], k: usize, rev: bool, dup: usize) -> Vec<T> {
    let mut out = permute(xs, k, rev);
    if let Some(x) = xs.get(dup % xs.len().max(1)) {
        out.insert(dup % (out.len() + 1), x.clone());
    }
    out
}

/// Another spelling of `q`: every part permuted, one element of each
/// listed twice.
fn respell(q: &Query, k: usize, rev: bool, dup: usize) -> Query {
    Query {
        projections: respelled(&q.projections, k, rev, dup),
        join_predicates: respelled(&q.join_predicates, k + 1, !rev, dup + 1),
        selective_predicates: respelled(&q.selective_predicates, k + 2, rev, dup + 2),
        relationships: respelled(&q.relationships, k + 3, !rev, dup + 3),
        classes: respelled(&q.classes, k + 4, rev, dup + 4),
    }
}

proptest! {
    #[test]
    fn canonicalization_is_idempotent(q in any_query()) {
        let once = q.canonical();
        let twice = once.canonical();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.is_canonical());
        prop_assert_eq!(once.fingerprint(), q.fingerprint());
    }

    #[test]
    fn canonicalization_is_order_insensitive(
        q in any_query(),
        k in 0usize..7,
        rev in prop_oneof![Just(false), Just(true)],
    ) {
        let shuffled = Query {
            projections: permute(&q.projections, k, rev),
            join_predicates: permute(&q.join_predicates, k.wrapping_add(1), !rev),
            selective_predicates: permute(&q.selective_predicates, k.wrapping_add(2), rev),
            relationships: permute(&q.relationships, k.wrapping_add(3), !rev),
            classes: permute(&q.classes, k.wrapping_add(4), rev),
        };
        prop_assert_eq!(q.canonical(), shuffled.canonical());
        prop_assert_eq!(q.fingerprint(), shuffled.fingerprint());
    }

    #[test]
    fn duplication_does_not_change_the_canonical_form(q in any_query(), k in 0usize..4) {
        let mut dup = q.clone();
        if let Some(p) = dup.selective_predicates.get(k % dup.selective_predicates.len().max(1)) {
            let p = p.clone();
            dup.selective_predicates.push(p);
        }
        if let Some(&c) = dup.classes.first() {
            dup.classes.push(c);
        }
        prop_assert_eq!(q.canonical(), dup.canonical());
        prop_assert_eq!(q.fingerprint(), dup.fingerprint());
    }

    /// The cache looks a request up as spelled: its key must be the one
    /// the canonical form was stored under, and the slot check must accept
    /// it.
    #[test]
    fn any_spelling_finds_the_canonical_key(
        q in any_query(),
        k in 0usize..7,
        rev in prop_oneof![Just(false), Just(true)],
        dup in 0usize..9,
    ) {
        let spelling = respell(&q, k, rev, dup);
        let canonical = q.canonical();
        prop_assert_eq!(spelling.fingerprint(), canonical.fingerprint_canonical());
        prop_assert!(spelling.same_canonical(&canonical), "{:?} vs {:?}", spelling, canonical);
        prop_assert!(spelling.same_canonical(&q));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Over a small domain, where equal and nearly equal parts are common,
    /// the slot check is exactly canonical equality, and the key separates
    /// the pairs the check separates.
    #[test]
    fn the_slot_check_is_canonical_equality(pair in small_pair()) {
        let (a, b) = pair;
        let same = a.same_canonical(&b);
        prop_assert_eq!(same, a.canonical() == b.canonical(), "{:?} vs {:?}", a, b);
        prop_assert_eq!(same, a.fingerprint() == b.fingerprint(), "{:?} vs {:?}", a, b);
    }

    #[test]
    fn the_slot_check_is_symmetric(pair in small_pair()) {
        let (a, b) = pair;
        prop_assert_eq!(a.same_canonical(&b), b.same_canonical(&a), "{:?} vs {:?}", a, b);
    }
}
