//! Property tests of [`ResultSet`].
//!
//! By hand: a set built with `push_row` behaves like the `Vec<Vec<Value>>`
//! it replaced. For arities 0 to 4, rows drawn with duplicates from a pool
//! that holds strings containing the old rendering's cell separator
//! `\u{1f}` and both signed zeros, `len`, `rows()` and `row(i)` give back
//! the rows pushed, `==` is row-by-row equality in order, and
//! `same_multiset` is multiset equality under `Value`'s own `==` — checked
//! against a quadratic matching over the reference rows.
//!
//! Across layouts: an executor's answer, whose cells are typed words and
//! per-answer string codes, equals a `push_row` copy of the rows it should
//! hold. The generated class has a column of each type and a second string
//! column over the same strings, which storage keeps in allocations of its
//! own; its floats include both signed zeros, its strings repeat over many
//! rows, and projections may be bound (to a literal of any type). The copy
//! is built from fresh values, every zero's sign flipped: `==`,
//! `same_multiset`, `fingerprint`, `value(i, k)` and `row(i)` must all
//! agree with it, and so must a shuffled copy under the order-insensitive
//! three.

use std::sync::Arc;

use proptest::prelude::*;

use sqo_catalog::{AttrId, AttrRef, AttributeDef, Catalog, ClassId, DataType, Value};
use sqo_exec::{execute, AccessPath, ClassAccess, PhysicalPlan, ResultSet};
use sqo_query::{CompOp, Projection, SelPredicate};
use sqo_storage::{Database, IntegrityOptions};

const MAX_ARITY: usize = 4;
/// Distinct rows a case draws its rows from, so that duplicates are common.
const BASE_ROWS: usize = 3;
const MAX_ROWS: usize = 10;

/// Cell `code` of the value pool.
fn cell(code: u8) -> Value {
    let zero = |sign: f64| Value::float(sign * 0.0).unwrap();
    match code {
        0 => zero(1.0),
        1 => zero(-1.0),
        2 => Value::Int(0),
        3 => Value::Int(-1),
        4 => Value::float(1.5).unwrap(),
        5 => Value::str(""),
        6 => Value::str("a"),
        7 => Value::str("a\u{1f}"),
        8 => Value::str("\u{1f}a"),
        9 => Value::str("a\u{1f}b"),
        10 => Value::Bool(false),
        _ => Value::Bool(true),
    }
}

const CELLS: u8 = 12;

/// The same value with the other sign when it is a zero.
fn flip_zero(v: &Value) -> Value {
    match v {
        Value::Float(f) if f.get() == 0.0 => Value::float(-f.get()).unwrap(),
        other => other.clone(),
    }
}

fn columns(arity: usize) -> Vec<AttrRef> {
    (0..arity).map(|a| AttrRef::new(ClassId(0), AttrId(a as u32))).collect()
}

/// `picks` rows of `arity` values, each one of `BASE_ROWS` rows drawn from
/// `codes`.
fn reference(arity: usize, codes: &[u8], picks: &[usize]) -> Vec<Vec<Value>> {
    picks.iter().map(|&p| (0..arity).map(|a| cell(codes[p * MAX_ARITY + a])).collect()).collect()
}

fn build(columns: Vec<AttrRef>, rows: &[Vec<Value>]) -> ResultSet {
    let mut set = ResultSet::new(columns);
    for row in rows {
        set.push_row(row);
    }
    set
}

/// Multiset equality by a quadratic matching under `Value`'s `==`.
fn same_multiset(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let mut unmatched: Vec<&Vec<Value>> = b.iter().collect();
    a.len() == b.len()
        && a.iter().all(|row| match unmatched.iter().position(|other| *other == row) {
            Some(at) => {
                unmatched.swap_remove(at);
                true
            }
            None => false,
        })
}

/// The cells of the `BASE_ROWS` rows; half of them signed zeros, so that
/// rows differing only in a zero's sign are common.
fn codes() -> impl Strategy<Value = Vec<u8>> {
    let code = prop_oneof![0..2u8, 0..CELLS];
    prop::collection::vec(code, BASE_ROWS * MAX_ARITY..BASE_ROWS * MAX_ARITY + 1)
}

fn picks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..BASE_ROWS, 0..MAX_ROWS)
}

proptest! {
    #[test]
    fn rows_round_trip(arity in 0..MAX_ARITY + 1, codes in codes(), picks in picks()) {
        let rows = reference(arity, &codes, &picks);
        let set = build(columns(arity), &rows);
        prop_assert_eq!(set.len(), rows.len());
        prop_assert_eq!(set.is_empty(), rows.is_empty());
        prop_assert_eq!(set.rows().len(), rows.len());
        prop_assert!(set.rows().eq(rows.iter().map(Vec::as_slice)));
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(set.row(i), row.as_slice());
        }
        prop_assert_eq!(&set, &set.clone());
        prop_assert!(set.same_multiset(&set.clone()));
    }

    /// `b` is `a` shuffled, with every zero's sign flipped, and then maybe
    /// one edit: drop a row, repeat a row, change a cell, or change the
    /// columns.
    #[test]
    fn equality_agrees_with_the_reference(
        arity in 0..MAX_ARITY + 1,
        codes in codes(),
        picks in picks(),
        keys in prop::collection::vec(0u32..1000, MAX_ROWS..MAX_ROWS + 1),
        flip in 0u8..2,
        edit in (0u8..5, 0..MAX_ROWS * MAX_ARITY, 0..CELLS),
    ) {
        let (edit, at, code) = edit;
        let a = reference(arity, &codes, &picks);
        let mut order: Vec<usize> = (0..a.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut b: Vec<Vec<Value>> = order
            .iter()
            .map(|&i| a[i].iter().map(|v| if flip == 1 { flip_zero(v) } else { v.clone() }).collect())
            .collect();
        let mut b_columns = columns(arity);
        prop_assert!(same_multiset(&a, &b));
        let n = b.len();
        match edit {
            1 if n > 0 => { b.remove(at % n); }
            2 if n > 0 => b.push(b[at % n].clone()),
            3 if n > 0 && arity > 0 => b[at % n][at % arity] = cell(code),
            4 => b_columns.iter_mut().for_each(|c| c.class = ClassId(1)),
            _ => {}
        }
        let (sa, sb) = (build(columns(arity), &a), build(b_columns.clone(), &b));
        let same_columns = b_columns == columns(arity);
        prop_assert_eq!(sa == sb, same_columns && a == b);
        prop_assert_eq!(sa.same_multiset(&sb), same_columns && same_multiset(&a, &b));
        prop_assert_eq!(sb.same_multiset(&sa), sa.same_multiset(&sb));
        if sa.same_multiset(&sb) {
            prop_assert_eq!(sa.fingerprint(), sb.fingerprint());
        }
    }
}

/// The class's attributes: `i` (Int), `f` (Float), `s` and `t` (Str, over
/// the same strings), `b` (Bool).
const TYPES: [DataType; 5] =
    [DataType::Int, DataType::Float, DataType::Str, DataType::Str, DataType::Bool];
const STRINGS: [&str; 4] = ["", "a", "a\u{1f}", "ab"];
/// Objects a case generates at most: past one executor block (1,024).
const MAX_OBJECTS: usize = 1_500;

/// A mixed word for object `j`'s attribute `a` under `seed` (SplitMix64).
fn mix(seed: u64, j: usize, a: usize) -> u64 {
    let mut z = seed ^ ((j as u64) << 3 | a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Object `j`'s value of attribute `a`, freshly allocated: an integer in
/// -2..=2, one of `±0.0`, 1.5 and -2.25, one of `STRINGS`, or a boolean.
fn generated(seed: u64, j: usize, a: usize) -> Value {
    let w = mix(seed, j, a);
    match TYPES[a] {
        DataType::Int => Value::Int((w % 5) as i64 - 2),
        DataType::Float => Value::float([0.0, -0.0, 1.5, -2.25][(w % 4) as usize]).unwrap(),
        DataType::Str => Value::str(STRINGS[(w % 4) as usize]),
        DataType::Bool => Value::Bool(w % 2 == 0),
    }
}

fn typed_catalog() -> Arc<Catalog> {
    let mut b = Catalog::builder();
    let attrs = ["i", "f", "s", "t", "b"].iter().zip(TYPES);
    b.class("c", attrs.map(|(name, ty)| AttributeDef::new(*name, ty)).collect()).unwrap();
    Arc::new(b.build().unwrap())
}

fn typed_db(catalog: &Arc<Catalog>, seed: u64, objects: usize) -> Database {
    let mut b = Database::builder(Arc::clone(catalog));
    for j in 0..objects {
        b.insert(ClassId(0), (0..TYPES.len()).map(|a| generated(seed, j, a)).collect()).unwrap();
    }
    b.finalize(IntegrityOptions).unwrap()
}

/// Literal `code` (0 to 3), one of each type, for a bound projection.
fn literal(code: u8) -> Value {
    [Value::Int(-1), Value::float(-0.0).unwrap(), Value::str("a"), Value::Bool(true)][code as usize]
        .clone()
}

proptest! {
    #[test]
    fn executor_answers_equal_their_hand_built_copies(
        seed in 0..u64::MAX,
        objects in prop_oneof![0..40usize, 0..MAX_OBJECTS + 1],
        projected in prop::collection::vec((0..TYPES.len(), 0u8..8), 0..7),
        filter in (0..8usize, -2i64..3),
        keys in prop::collection::vec(0..u32::MAX, MAX_OBJECTS..MAX_OBJECTS + 1),
    ) {
        let catalog = typed_catalog();
        let db = typed_db(&catalog, seed, objects);
        let attr = |a: usize| AttrRef::new(ClassId(0), AttrId(a as u32));
        let projections: Vec<Projection> = projected
            .iter()
            .map(|&(a, code)| match code {
                0..4 => Projection::bound(attr(a), literal(code)),
                _ => Projection::plain(attr(a)),
            })
            .collect();
        let ops = [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];
        // A residual `i <op> x` for the first six codes, none for the rest.
        let (op, x) = filter;
        let residual: Vec<SelPredicate> =
            ops.get(op).map(|&op| SelPredicate::new(attr(0), op, Value::Int(x))).into_iter().collect();
        let kept: Vec<usize> = (0..objects)
            .filter(|&j| residual.iter().all(|p| p.eval(&generated(seed, j, 0))))
            .collect();
        let plan = PhysicalPlan {
            root: ClassAccess { class: ClassId(0), path: AccessPath::SeqScan, residual },
            steps: vec![],
            projections,
            estimated_cost: 0.0,
            estimated_rows: 0.0,
        };
        let (answer, _) = execute(&db, &plan).unwrap();

        // The rows the answer should hold, from fresh values.
        let rows: Vec<Vec<Value>> = kept
            .iter()
            .map(|&j| {
                plan.projections
                    .iter()
                    .map(|p| p.binding.clone().unwrap_or_else(|| generated(seed, j, p.attr.attr.index())))
                    .collect()
            })
            .collect();
        let columns: Vec<AttrRef> = plan.projections.iter().map(|p| p.attr).collect();
        prop_assert!(answer.columns().eq(columns.iter().copied()));
        prop_assert_eq!(answer.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            for (k, v) in row.iter().enumerate() {
                prop_assert_eq!(&answer.value(i, k), v);
            }
            prop_assert_eq!(&answer.row(i), row);
        }

        let flipped: Vec<Vec<Value>> = rows.iter().map(|r| r.iter().map(flip_zero).collect()).collect();
        let copy = build(columns.clone(), &flipped);
        prop_assert_eq!(&answer, &copy);
        prop_assert_eq!(&copy, &answer);
        prop_assert!(answer.same_multiset(&copy) && copy.same_multiset(&answer));
        prop_assert_eq!(answer.fingerprint(), copy.fingerprint());

        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let shuffled: Vec<Vec<Value>> = order.iter().map(|&i| flipped[i].clone()).collect();
        let shuffled = build(columns.clone(), &shuffled);
        prop_assert!(answer.same_multiset(&shuffled) && shuffled.same_multiset(&answer));
        prop_assert_eq!(answer.fingerprint(), shuffled.fingerprint());
        prop_assert_eq!(answer == shuffled, order.iter().enumerate().all(|(i, &o)| rows[i] == rows[o]));

        // A row pushed by hand onto a copy of the answer turns its columns
        // into value columns, and keeps every row.
        if let Some(first) = rows.first() {
            let (mut grown, mut grown_copy) = (answer.clone(), copy.clone());
            grown.push_row(first);
            grown_copy.push_row(first);
            prop_assert!(grown == grown_copy);
            prop_assert!(grown != answer);
        }
    }
}
