//! Property test: the row-major [`ResultSet`] behaves like the
//! `Vec<Vec<Value>>` it replaced. For arities 0 to 4, rows drawn with
//! duplicates from a pool that holds strings containing the old rendering's
//! cell separator `\u{1f}` and both signed zeros, `len`, `rows()` and
//! `row(i)` give back the rows pushed, `==` is row-by-row equality in
//! order, and `same_multiset` is multiset equality under `Value`'s own
//! `==` — checked against a quadratic matching over the reference rows.

use proptest::prelude::*;

use sqo_catalog::{AttrId, AttrRef, ClassId, Value};
use sqo_exec::ResultSet;

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
