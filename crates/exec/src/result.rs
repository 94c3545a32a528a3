//! Query results with multiset-equality support.
//!
//! Semantic query optimization's correctness contract is *result
//! equivalence*: the optimized query must return the same answer as the
//! original in every database state. The integration and property tests
//! enforce it through [`ResultSet::same_multiset`].
//!
//! # Layout
//!
//! A [`ResultSet`] is one row-major `Vec<Value>` and a row count: row `i`
//! is `values[i * arity..(i + 1) * arity]`, where the arity is
//! `columns.len()`. The count is what keeps an answer with no projected
//! columns (a bare class access) exact. An executor fills its worker's
//! scratch buffer and moves the values out with one allocation of exactly
//! their size (`executor.rs`), so an answer costs two allocations — its
//! columns and its values — however many rows it holds, and dropping one
//! frees two blocks.
//!
//! # Multiset equality
//!
//! Bag semantics compare values with their multiplicities. Both answers'
//! row indices are sorted under one total order over [`Value`] — type rank,
//! then [`Value::compare`] — and the sorted rows are compared with
//! `Value`'s own `==`. The order agrees with that `==`: the two signed
//! zeros are one value to both, so an answer holding `-0.0` and one
//! holding `0.0` are the same multiset. Nothing is rendered to text.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use sqo_catalog::{AttrRef, Catalog, ClassId, Value};
use sqo_storage::{Database, WriteEpochs};

use crate::plan::PhysicalPlan;

/// A materialized result: projected columns and row-major rows.
///
/// Equality compares columns and rows in order; where the rows were read
/// from is not part of a result's value.
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub columns: Vec<AttrRef>,
    /// Row-major: `len` rows of `columns.len()` values.
    values: Vec<Value>,
    len: usize,
    /// The write epochs of the snapshot lineage an executor read these rows
    /// from; `None` for a set built by hand.
    read_from: Option<WriteEpochs>,
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.len == other.len && self.values == other.values
    }
}

impl ResultSet {
    pub fn new(columns: Vec<AttrRef>) -> Self {
        Self { columns, values: Vec::new(), len: 0, read_from: None }
    }

    /// The answer of `plan` on `db`: `len` rows, row-major in `values`.
    pub(crate) fn of_plan(
        db: &Database,
        plan: &PhysicalPlan,
        values: Vec<Value>,
        len: usize,
    ) -> Self {
        Self {
            columns: plan.projections.iter().map(|p| p.attr).collect(),
            values,
            len,
            read_from: Some(db.write_epochs().clone()),
        }
    }

    /// Appends one row by hand.
    ///
    /// # Panics
    /// If `row` does not hold one value per column.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.columns.len(), "a row holds one value per column");
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Whether any of `classes` was written after data epoch `epoch` in
    /// the snapshot lineage these rows were read from
    /// ([`sqo_storage::WriteEpochs`]). `None` — unknown — for a set no
    /// executor produced.
    pub fn written_after(
        &self,
        epoch: u64,
        classes: impl IntoIterator<Item = ClassId>,
    ) -> Option<bool> {
        let written = self.read_from.as_ref()?;
        Some(classes.into_iter().any(|class| written.written_after(class, epoch)))
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, one value per column.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of a result of {} rows", self.len);
        let arity = self.columns.len();
        &self.values[i * arity..(i + 1) * arity]
    }

    /// The rows in emission order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Row indices sorted into the multiset normal form (module docs).
    fn sorted_rows(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| {
            let pairs = self.row(a).iter().zip(self.row(b));
            pairs.fold(Ordering::Equal, |o, (x, y)| o.then_with(|| total_cmp(x, y)))
        });
        order
    }

    /// Multiset equality: same columns, same rows with multiplicities.
    pub fn same_multiset(&self, other: &ResultSet) -> bool {
        self.columns == other.columns
            && self.len == other.len
            && self
                .sorted_rows()
                .into_iter()
                .zip(other.sorted_rows())
                .all(|(a, b)| self.row(a) == other.row(b))
    }

    /// Order-insensitive content hash, handy for cross-run assertions:
    /// equal for two answers [`ResultSet::same_multiset`] calls equal.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.columns.hash(&mut h);
        self.len.hash(&mut h);
        for i in self.sorted_rows() {
            self.row(i).hash(&mut h);
        }
        h.finish()
    }

    /// Human-oriented rendering (header + first `limit` rows).
    pub fn render(&self, catalog: &Catalog, limit: usize) -> String {
        let mut out = String::new();
        let header: Vec<String> =
            self.columns.iter().map(|c| catalog.qualified_attr_name(*c)).collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        for row in self.rows().take(limit) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.len > limit {
            out.push_str(&format!("... ({} rows total)\n", self.len));
        }
        out
    }
}

/// A total order over [`Value`] that agrees with its `==`: type rank, then
/// the within-type order.
fn total_cmp(a: &Value, b: &Value) -> Ordering {
    (a.data_type() as u8)
        .cmp(&(b.data_type() as u8))
        .then_with(|| a.compare(b).unwrap_or(Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, ClassId};

    fn cols() -> Vec<AttrRef> {
        vec![AttrRef::new(ClassId(0), AttrId(0)), AttrRef::new(ClassId(1), AttrId(2))]
    }

    fn set(rows: &[&[Value]]) -> ResultSet {
        let mut s = ResultSet::new(cols());
        for row in rows {
            s.push_row(row);
        }
        s
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let a = set(&[&[Value::Int(1), Value::str("x")], &[Value::Int(2), Value::str("y")]]);
        let b = set(&[&[Value::Int(2), Value::str("y")], &[Value::Int(1), Value::str("x")]]);
        assert!(a.same_multiset(&b));
        assert_ne!(a, b, "`==` compares emission order");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn multiset_equality_respects_multiplicity() {
        let a = set(&[&[Value::Int(1), Value::str("x")], &[Value::Int(1), Value::str("x")]]);
        let b = set(&[&[Value::Int(1), Value::str("x")]]);
        assert!(!a.same_multiset(&b));
    }

    #[test]
    fn different_columns_never_equal() {
        let a = ResultSet::new(cols());
        let b = ResultSet::new(vec![AttrRef::new(ClassId(0), AttrId(0))]);
        assert!(!a.same_multiset(&b));
    }

    #[test]
    fn separator_prevents_cell_bleed() {
        // ("ab", "c") must differ from ("a", "bc").
        let a = set(&[&[Value::str("ab"), Value::str("c")]]);
        let b = set(&[&[Value::str("a"), Value::str("bc")]]);
        assert!(!a.same_multiset(&b));
    }

    #[test]
    fn signed_zeros_are_one_value() {
        // Equal values that `format!` renders as `-0` and `0`; a sort that
        // told them apart would pair ("b" with "a") below.
        let zero = |sign: f64| Value::float(sign * 0.0).unwrap();
        let a = set(&[&[zero(-1.0), Value::str("b")], &[zero(1.0), Value::str("a")]]);
        let b = set(&[&[zero(1.0), Value::str("b")], &[zero(-1.0), Value::str("a")]]);
        assert!(a.same_multiset(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn zero_arity_rows_are_counted() {
        let mut a = ResultSet::new(vec![]);
        a.push_row(&[]);
        a.push_row(&[]);
        assert_eq!((a.len(), a.rows().len()), (2, 2));
        assert!(!a.same_multiset(&ResultSet::new(vec![])));
    }
}
