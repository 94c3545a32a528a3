//! Query results with multiset-equality support.
//!
//! Semantic query optimization's correctness contract is *result
//! equivalence*: the optimized query must return the same answer as the
//! original in every database state. The integration and property tests
//! enforce it through [`ResultSet::same_multiset`].
//!
//! # Layout
//!
//! A [`ResultSet`] is one typed column per projection and a row count. The
//! count is what keeps an answer with no projected columns (a bare class
//! access) exact. An executor-built answer keeps the cells of all its
//! columns in two buffers:
//!
//! - one `u64` word per cell of every unbound column, column after column:
//!   an `Int` cell holds the integer, a `Float` cell the float's bits and a
//!   `Bool` cell 0 or 1, each copied raw from the storage column; a `Str`
//!   cell holds an index into
//! - the answer's list of distinct strings, one `Arc<str>` each, told apart
//!   by pointer. Storage keeps each distinct string of an attribute once, so
//!   an answer holds one reference count per distinct string, not one per
//!   row, and dropping it touches only those strings.
//!
//! A bound projection — pinned to one value by an entailed equality, which
//! is what the paper's restriction introduction buys — is that one
//! [`Value`], with no cells per row.
//!
//! So an executor-built answer makes at most three allocations however many
//! rows it holds: its columns, its words (once a row of an unbound column is
//! emitted) and its strings (once one of those is a string column);
//! `tests/result_alloc.rs` holds that. A set built by hand
//! ([`ResultSet::new`], [`ResultSet::push_row`]) keeps a column of
//! [`Value`]s per projection, so its columns may mix types.
//!
//! [`ResultSet::value`], [`ResultSet::row`] and [`ResultSet::rows`] build
//! owned values. Equality, multiset equality and the fingerprint compare
//! cells in place and by value, so an executor's answer equals a hand-built
//! copy of it.
//!
//! # Multiset equality
//!
//! Bag semantics compare values with their multiplicities. Both answers'
//! row indices are sorted under one total order over cells — type rank,
//! then the within-type order of [`Value::compare`] — and the sorted rows
//! are compared cell by cell with `Value`'s `==`. The order agrees with
//! that `==`: the two signed zeros are one value to both, so an answer
//! holding `-0.0` and one holding `0.0` are the same multiset. Nothing is
//! rendered to text.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sqo_catalog::{AttrRef, Catalog, DataType, Finite, Value};
use sqo_storage::{Database, WriteEpochs};

/// A materialized result: one column per projection (module docs).
///
/// Equality compares columns and rows in order, by value; where the rows
/// were read from, and how their cells are laid out, is not part of a
/// result's value.
#[derive(Debug, Clone)]
pub struct ResultSet {
    columns: Vec<Projected>,
    /// The cells of the [`Cells::Words`] columns.
    words: Vec<u64>,
    /// The strings a `Str` word indexes, each allocation once.
    strings: Vec<Arc<str>>,
    len: usize,
    /// The write epochs of the snapshot lineage an executor read these rows
    /// from; `None` for a set built by hand.
    read_from: Option<WriteEpochs>,
}

/// One projected column: its attribute and where its cells are.
#[derive(Debug, Clone)]
pub(crate) struct Projected {
    pub(crate) attr: AttrRef,
    pub(crate) cells: Cells,
}

/// Where a column's cells are.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    /// One cell per row in the answer's words from `start`, of type `ty`
    /// (module docs).
    Words { ty: DataType, start: usize },
    /// Every row holds this value.
    Bound(Value),
    /// One value per row: a column built by hand.
    Values(Vec<Value>),
}

/// A cell read in place: a [`Value`] that borrows its string. The derived
/// order is the type rank (the declaration order, `Value`'s), then the
/// order of [`Value::compare`]; it agrees with `==` and with the hash, for
/// the signed zeros are one [`Finite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Cell<'a> {
    Int(i64),
    Float(Finite),
    Str(&'a Arc<str>),
    Bool(bool),
}

impl<'a> Cell<'a> {
    fn of(value: &'a Value) -> Self {
        match value {
            Value::Int(x) => Cell::Int(*x),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(s) => Cell::Str(s),
            Value::Bool(b) => Cell::Bool(*b),
        }
    }

    /// The cell a word of type `ty` holds; a string word indexes `strings`.
    fn word(ty: DataType, word: u64, strings: &'a [Arc<str>]) -> Self {
        match ty {
            DataType::Int => Cell::Int(word as i64),
            // A float word was written from a `Finite`, so it is never NaN
            // and the default is never taken.
            DataType::Float => Cell::Float(Finite::new(f64::from_bits(word)).unwrap_or_default()),
            DataType::Str => Cell::Str(&strings[word as usize]),
            DataType::Bool => Cell::Bool(word != 0),
        }
    }

    fn to_value(self) -> Value {
        match self {
            Cell::Int(x) => Value::Int(x),
            Cell::Float(x) => Value::Float(x),
            Cell::Str(s) => Value::Str(Arc::clone(s)),
            Cell::Bool(b) => Value::Bool(b),
        }
    }
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns().eq(other.columns())
            && self.len == other.len
            && (0..self.len).all(|i| self.cells(i).eq(other.cells(i)))
    }
}

impl ResultSet {
    /// An empty set of `columns`, to push rows into by hand.
    pub fn new(columns: Vec<AttrRef>) -> Self {
        Self::empty(&columns)
    }

    /// An empty set of `columns` in one allocation, its column list: a
    /// provably empty answer.
    pub fn empty(columns: &[AttrRef]) -> Self {
        let columns = columns
            .iter()
            .map(|&attr| Projected { attr, cells: Cells::Values(Vec::new()) })
            .collect();
        Self { columns, words: Vec::new(), strings: Vec::new(), len: 0, read_from: None }
    }

    /// An executor's answer of `len` rows read from `db` (module docs).
    pub(crate) fn emitted(
        db: &Database,
        columns: Vec<Projected>,
        words: Vec<u64>,
        strings: Vec<Arc<str>>,
        len: usize,
    ) -> Self {
        Self { columns, words, strings, len, read_from: Some(db.write_epochs().clone()) }
    }

    /// Appends one row by hand.
    ///
    /// # Panics
    /// If `row` does not hold one value per column.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.columns.len(), "a row holds one value per column");
        for (k, v) in row.iter().enumerate() {
            if !matches!(self.columns[k].cells, Cells::Values(_)) {
                let values = (0..self.len).map(|i| self.value(i, k)).collect();
                self.columns[k].cells = Cells::Values(values);
            }
            if let Cells::Values(values) = &mut self.columns[k].cells {
                values.push(v.clone());
            }
        }
        self.len += 1;
    }

    /// The write epochs and write log of the snapshot lineage these rows
    /// were read from ([`sqo_storage::WriteEpochs`]). `None` — unknown —
    /// for a set no executor produced.
    pub fn lineage(&self) -> Option<&WriteEpochs> {
        self.read_from.as_ref()
    }

    /// The projected attributes, one per column.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = AttrRef> + '_ {
        self.columns.iter().map(|c| c.attr)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s cell in column `k`, read in place.
    fn cell(&self, i: usize, k: usize) -> Cell<'_> {
        match &self.columns[k].cells {
            &Cells::Words { ty, start } => Cell::word(ty, self.words[start + i], &self.strings),
            Cells::Bound(v) => Cell::of(v),
            Cells::Values(values) => Cell::of(&values[i]),
        }
    }

    /// Row `i`'s cells, read in place.
    fn cells(&self, i: usize) -> impl Iterator<Item = Cell<'_>> + '_ {
        (0..self.columns.len()).map(move |k| self.cell(i, k))
    }

    /// Row `i`'s value in column `k`.
    ///
    /// # Panics
    /// If `i >= self.len()` or `k` is not a column.
    pub fn value(&self, i: usize, k: usize) -> Value {
        assert!(i < self.len, "row {i} of a result of {} rows", self.len);
        self.cell(i, k).to_value()
    }

    /// Row `i`, one value per column.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        assert!(i < self.len, "row {i} of a result of {} rows", self.len);
        self.cells(i).map(Cell::to_value).collect()
    }

    /// The rows in emission order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Vec<Value>> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Row indices sorted into the multiset normal form (module docs).
    fn sorted_rows(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| self.cells(a).cmp(self.cells(b)));
        order
    }

    /// Multiset equality: same columns, same rows with multiplicities.
    pub fn same_multiset(&self, other: &ResultSet) -> bool {
        self.columns().eq(other.columns())
            && self.len == other.len
            && self
                .sorted_rows()
                .into_iter()
                .zip(other.sorted_rows())
                .all(|(a, b)| self.cells(a).eq(other.cells(b)))
    }

    /// Order-insensitive content hash, handy for cross-run assertions:
    /// equal for two answers [`ResultSet::same_multiset`] calls equal.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.columns().for_each(|c| c.hash(&mut h));
        self.len.hash(&mut h);
        for i in self.sorted_rows() {
            self.cells(i).for_each(|c| c.hash(&mut h));
        }
        h.finish()
    }

    /// Human-oriented rendering (header + first `limit` rows).
    pub fn render(&self, catalog: &Catalog, limit: usize) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns().map(|c| catalog.qualified_attr_name(c)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, ClassId};

    impl ResultSet {
        /// The bytes this set's own buffers hold on the heap, the strings they
        /// share with storage aside.
        pub(crate) fn heap_bytes(&self) -> usize {
            use std::mem::size_of;
            let values = |c: &Projected| match &c.cells {
                Cells::Values(values) => values.capacity() * size_of::<Value>(),
                _ => 0,
            };
            self.columns.capacity() * size_of::<Projected>()
                + self.columns.iter().map(values).sum::<usize>()
                + self.words.capacity() * size_of::<u64>()
                + self.strings.capacity() * size_of::<Arc<str>>()
        }
    }

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
