//! Query results with multiset-equality support.
//!
//! Semantic query optimization's correctness contract is *result
//! equivalence*: the optimized query must return the same answer as the
//! original in every database state. The integration and property tests
//! enforce it through [`ResultSet::same_multiset`].

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use sqo_catalog::{AttrRef, Catalog, ClassId, Value};
use sqo_storage::{Database, WriteEpochs};

use crate::plan::PhysicalPlan;

/// A materialized result: projected columns and rows.
///
/// Equality compares columns and rows; where the rows were read from is
/// not part of a result's value.
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub columns: Vec<AttrRef>,
    pub rows: Vec<Vec<Value>>,
    /// The write epochs of the snapshot lineage an executor read these rows
    /// from; `None` for a set built by hand.
    read_from: Option<WriteEpochs>,
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl ResultSet {
    pub fn new(columns: Vec<AttrRef>) -> Self {
        Self { columns, rows: Vec::new(), read_from: None }
    }

    /// The empty result of `plan`, to be filled by executing it on `db`.
    pub(crate) fn of_plan(db: &Database, plan: &PhysicalPlan) -> Self {
        Self {
            columns: plan.projections.iter().map(|p| p.attr).collect(),
            rows: Vec::new(),
            read_from: Some(db.write_epochs().clone()),
        }
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
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows sorted into a canonical order (multiset normal form).
    pub fn canonical_rows(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let mut s = String::new();
                for v in r {
                    s.push_str(&format!("{v}\u{1f}"));
                }
                s
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Multiset equality: same columns, same rows with multiplicities.
    pub fn same_multiset(&self, other: &ResultSet) -> bool {
        self.columns == other.columns && self.canonical_rows() == other.canonical_rows()
    }

    /// Order-insensitive content hash, handy for cross-run assertions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.columns.hash(&mut h);
        for k in self.canonical_rows() {
            k.hash(&mut h);
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
        for row in self.rows.iter().take(limit) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, ClassId};

    fn cols() -> Vec<AttrRef> {
        vec![AttrRef::new(ClassId(0), AttrId(0)), AttrRef::new(ClassId(1), AttrId(2))]
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let mut a = ResultSet::new(cols());
        a.rows.push(vec![Value::Int(1), Value::str("x")]);
        a.rows.push(vec![Value::Int(2), Value::str("y")]);
        let mut b = ResultSet::new(cols());
        b.rows.push(vec![Value::Int(2), Value::str("y")]);
        b.rows.push(vec![Value::Int(1), Value::str("x")]);
        assert!(a.same_multiset(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn multiset_equality_respects_multiplicity() {
        let mut a = ResultSet::new(cols());
        a.rows.push(vec![Value::Int(1), Value::str("x")]);
        a.rows.push(vec![Value::Int(1), Value::str("x")]);
        let mut b = ResultSet::new(cols());
        b.rows.push(vec![Value::Int(1), Value::str("x")]);
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
        let cols = vec![AttrRef::new(ClassId(0), AttrId(0)), AttrRef::new(ClassId(0), AttrId(1))];
        let mut a = ResultSet::new(cols.clone());
        a.rows.push(vec![Value::str("ab"), Value::str("c")]);
        let mut b = ResultSet::new(cols);
        b.rows.push(vec![Value::str("a"), Value::str("bc")]);
        assert!(!a.same_multiset(&b));
    }
}
