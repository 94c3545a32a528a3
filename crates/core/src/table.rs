//! The transformation table `T` (§3.1).
//!
//! Rows are the relevant constraints `C`, columns the predicate set `P`
//! (query predicates plus all predicates of relevant constraints, interned
//! into a per-query [`PredicatePool`] so structural duplicates share a
//! column). What the table stores is one [`ColumnPresence`] and one optional
//! [`PredicateTag`] per column — everything the fixpoint and formulation
//! decide from. The paper's matrix of [`CellState`]s is a *view* over that
//! state ([`TransformationTable::cell`]), not a second copy of it, and
//! [`TransformationTable::render`] prints the view.
//!
//! Two deliberate refinements over the paper's literal pseudocode, both
//! required to make the claimed order-immateriality a theorem
//! (`tests/order_immaterial.rs` checks it):
//!
//! 1. tag assignment is a *meet* (`min`) on the lattice, so concurrent
//!    lowerings from different constraints can never raise a tag;
//! 2. all consequent cells of a column agree (the paper leaves
//!    `AbsentConsequent` rows stale after an introduction) — by
//!    construction, since every one of them is read from the column's tag.
//!
//! Because the table is rebuilt for every optimized query, construction can
//! run against a reusable [`TableBuffers`]: the previous query's table,
//! handed back by [`TransformationTable::recycle`] and refilled in place by
//! [`TransformationTable::build_with`], so every vector and the predicate
//! pool keep their capacity and a warmed-up serving thread builds tables
//! with near-zero transient allocation.

use sqo_catalog::Catalog;
use sqo_constraints::{ConstraintClass, ConstraintId, ConstraintStore, PredId, PredicatePool};
use sqo_query::{Predicate, Query};

use crate::config::MatchPolicy;
use crate::tag::{CellState, ColumnPresence, PredicateTag};

/// One row: a relevant constraint compiled against the table's own pool.
#[derive(Debug, Clone)]
pub struct Row {
    pub constraint: ConstraintId,
    pub antecedents: Vec<PredId>,
    pub consequent: PredId,
    pub classification: ConstraintClass,
    /// Whether the consequent predicate sits on an indexed attribute —
    /// the branch condition of Tables 3.1/3.2.
    pub consequent_indexed: bool,
    /// Still a member of `C` (not yet fired or discarded).
    pub active: bool,
}

/// Recyclable storage for [`TransformationTable`]: a spent table whose pool
/// and vectors the next build refills. Obtain one with
/// `TableBuffers::default()`, thread it through
/// [`TransformationTable::build_with`], and return the table with
/// [`TransformationTable::recycle`] when it is no longer needed.
#[derive(Debug, Default)]
pub struct TableBuffers(TransformationTable);

/// The transformation table.
#[derive(Debug, Default)]
pub struct TransformationTable {
    rows: Vec<Row>,
    pool: PredicatePool,
    presence: Vec<ColumnPresence>,
    tags: Vec<Option<PredicateTag>>,
    /// Columns of the original query's predicates, in query order.
    query_columns: Vec<PredId>,
    /// antecedent column -> rows listing it (for incremental wake-ups).
    /// Indexed by column; may be longer than the pool when recycled from a
    /// wider query (the excess lists are empty).
    antecedent_rows: Vec<Vec<usize>>,
    /// consequent column -> rows whose consequent it is (for targeted
    /// eligibility rechecks).
    consequent_rows: Vec<Vec<usize>>,
}

impl TransformationTable {
    /// Builds and initializes the table for `query` and the given relevant
    /// constraints — the paper's *Initialization* algorithm. Allocates
    /// fresh storage; use [`TransformationTable::build_with`] on a hot path.
    pub fn build(
        catalog: &Catalog,
        store: &ConstraintStore,
        relevant: &[ConstraintId],
        query: &Query,
        match_policy: MatchPolicy,
    ) -> Self {
        Self::build_with(
            catalog,
            store,
            relevant,
            query,
            match_policy,
            &mut TableBuffers::default(),
        )
    }

    /// [`TransformationTable::build`] against recycled storage: the table
    /// held by `buf` is taken and refilled (clearing, not freeing, its
    /// vectors and pool). Pass the table back through
    /// [`TransformationTable::recycle`] to reuse the storage again.
    pub fn build_with(
        catalog: &Catalog,
        store: &ConstraintStore,
        relevant: &[ConstraintId],
        query: &Query,
        match_policy: MatchPolicy,
        buf: &mut TableBuffers,
    ) -> Self {
        let mut t = std::mem::take(&mut buf.0);
        t.pool.clear();
        // Query predicates first: stable, paper-like column order.
        t.query_columns.clear();
        t.query_columns.extend(query.predicates().map(|p| t.pool.intern(&p)));
        t.rows.clear();
        t.rows.extend(relevant.iter().map(|&id| {
            let c = store.constraint(id);
            Row {
                constraint: id,
                antecedents: c.antecedents.iter().map(|p| t.pool.intern(p)).collect(),
                consequent: t.pool.intern(&c.consequent),
                classification: c.classification(),
                consequent_indexed: c.consequent.is_indexed(catalog),
                active: true,
            }
        }));
        let cols = t.pool.len();

        // Column presence and initial tags: every query predicate starts
        // imperative ("unless proven otherwise, we have to assume that all
        // the predicates contribute to the results").
        t.presence.clear();
        t.presence.resize(cols, ColumnPresence::Absent);
        t.tags.clear();
        t.tags.resize(cols, None);
        for &qc in &t.query_columns {
            t.presence[qc.index()] = ColumnPresence::InQuery;
            t.tags[qc.index()] = Some(PredicateTag::Imperative);
        }
        if match_policy == MatchPolicy::Implication {
            for (id, pred) in t.pool.iter() {
                if t.presence[id.index()] == ColumnPresence::Absent
                    && query.satisfies_predicate(pred)
                {
                    t.presence[id.index()] = ColumnPresence::Implied;
                }
            }
        }

        // The column → rows postings.
        for list in t.antecedent_rows.iter_mut().chain(t.consequent_rows.iter_mut()) {
            list.clear();
        }
        if t.antecedent_rows.len() < cols {
            t.antecedent_rows.resize_with(cols, Vec::new);
        }
        if t.consequent_rows.len() < cols {
            t.consequent_rows.resize_with(cols, Vec::new);
        }
        for (ri, row) in t.rows.iter().enumerate() {
            for &a in &row.antecedents {
                t.antecedent_rows[a.index()].push(ri);
            }
            t.consequent_rows[row.consequent.index()].push(ri);
        }
        t
    }

    /// Returns the table to `buf` as the storage of the next
    /// [`TransformationTable::build_with`] call.
    pub fn recycle(self, buf: &mut TableBuffers) {
        buf.0 = self;
    }

    // ---- basic accessors ---------------------------------------------------

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn column_count(&self) -> usize {
        self.pool.len()
    }

    pub fn row(&self, ri: usize) -> &Row {
        &self.rows[ri]
    }

    pub fn rows(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows.iter().enumerate()
    }

    pub fn pool(&self) -> &PredicatePool {
        &self.pool
    }

    /// The paper's cell `t(cᵢ, pⱼ)`, read off the column's state. A
    /// consequent without a tag is an introduction candidate whether the
    /// column is absent or merely implied (the introduction will be vacuous
    /// and the cost model will reject it, but chaining through it is
    /// legitimate).
    pub fn cell(&self, ri: usize, col: PredId) -> CellState {
        let row = &self.rows[ri];
        if col == row.consequent {
            self.tag(col).map_or(CellState::AbsentConsequent, CellState::Tagged)
        } else if !row.antecedents.contains(&col) {
            CellState::NotPresent
        } else if self.presence(col).satisfies_antecedent() {
            CellState::PresentAntecedent
        } else {
            CellState::AbsentAntecedent
        }
    }

    pub fn presence(&self, col: PredId) -> ColumnPresence {
        self.presence[col.index()]
    }

    pub fn tag(&self, col: PredId) -> Option<PredicateTag> {
        self.tags[col.index()]
    }

    pub fn query_columns(&self) -> &[PredId] {
        &self.query_columns
    }

    pub fn deactivate(&mut self, ri: usize) {
        self.rows[ri].active = false;
    }

    /// Rows that list `col` among their antecedents.
    pub fn rows_watching(&self, col: PredId) -> &[usize] {
        self.antecedent_rows.get(col.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Rows whose consequent is `col` — the only rows whose eligibility can
    /// change when `col`'s tag moves.
    pub fn rows_with_consequent(&self, col: PredId) -> &[usize] {
        self.consequent_rows.get(col.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All antecedents of row `ri` present/implied/introduced?
    pub fn antecedents_satisfied(&self, ri: usize) -> bool {
        self.rows[ri].antecedents.iter().all(|a| self.presence[a.index()].satisfies_antecedent())
    }

    // ---- mutation (the transformation primitives) -------------------------

    /// Introduces the column's predicate into the (virtual) query.
    /// Returns columns whose presence changed (for wake-ups).
    pub fn introduce(&mut self, col: PredId, match_policy: MatchPolicy) -> Vec<PredId> {
        let mut changed = Vec::new();
        self.introduce_into(col, match_policy, &mut changed);
        changed
    }

    /// Allocation-free [`TransformationTable::introduce`]: columns whose
    /// presence changed are written into `changed` (cleared first).
    pub fn introduce_into(
        &mut self,
        col: PredId,
        match_policy: MatchPolicy,
        changed: &mut Vec<PredId>,
    ) {
        changed.clear();
        if self.presence[col.index()] == ColumnPresence::Absent
            || self.presence[col.index()] == ColumnPresence::Implied
        {
            self.presence[col.index()] = ColumnPresence::Introduced;
            changed.push(col);
        }
        if match_policy == MatchPolicy::Implication {
            // The introduced predicate may satisfy weaker antecedents
            // elsewhere in the pool.
            let start = changed.len();
            let introduced = self.pool.get(col);
            changed.extend(
                self.pool
                    .iter()
                    .filter(|(id, q)| {
                        *id != col
                            && self.presence[id.index()] == ColumnPresence::Absent
                            && introduced.implies(q)
                    })
                    .map(|(id, _)| id),
            );
            for &w in &changed[start..] {
                self.presence[w.index()] = ColumnPresence::Implied;
            }
        }
    }

    /// Meet-assigns `new_tag` to the column. Returns the resulting tag.
    pub fn assign_tag(&mut self, col: PredId, new_tag: PredicateTag) -> PredicateTag {
        let merged = match self.tags[col.index()] {
            Some(old) => old.min(new_tag),
            None => new_tag,
        };
        self.tags[col.index()] = Some(merged);
        merged
    }

    /// Renders the matrix in the paper's §3.5 style.
    pub fn render(&self, catalog: &Catalog, store: &ConstraintStore) -> String {
        let mut out = String::new();
        out.push_str("T =\n");
        // Header.
        out.push_str("        ");
        for (id, _) in self.pool.iter() {
            out.push_str(&format!("{:>4} ", format!("p{}", id.0 + 1)));
        }
        out.push('\n');
        for (ri, row) in self.rows.iter().enumerate() {
            let name = &store.constraint(row.constraint).name;
            out.push_str(&format!("{name:>6}: "));
            for (id, _) in self.pool.iter() {
                out.push_str(&format!("{:>4} ", self.cell(ri, id).code()));
            }
            if !row.active {
                out.push_str("  (inactive)");
            }
            out.push('\n');
        }
        out.push_str("where\n");
        for (id, pred) in self.pool.iter() {
            out.push_str(&format!(
                "  p{} = {}   [{:?}, tag {:?}]\n",
                id.0 + 1,
                pred.display(catalog),
                self.presence(id),
                self.tag(id)
            ));
        }
        out
    }

    /// The final classification of a predicate column for query formulation
    /// (§3.4): tagged columns report their tag; untouched query predicates
    /// stay imperative; absent columns report `None`.
    pub fn final_tag(&self, col: PredId) -> Option<PredicateTag> {
        match self.presence[col.index()] {
            ColumnPresence::InQuery | ColumnPresence::Introduced => {
                Some(self.tags[col.index()].unwrap_or(PredicateTag::Imperative))
            }
            ColumnPresence::Implied | ColumnPresence::Absent => None,
        }
    }

    /// Clones the predicate behind a column.
    pub fn predicate(&self, col: PredId) -> &Predicate {
        self.pool.get(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;
    use sqo_constraints::figure22;
    use sqo_query::{CompOp, QueryBuilder};
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, ConstraintStore, Query) {
        let catalog = Arc::new(figure21().unwrap());
        // No closure: keep rows exactly c1..c5 for §3.5 comparisons.
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            sqo_constraints::StoreOptions { closure: sqo_constraints::ClosureOptions::none() },
        )
        .unwrap();
        let query = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "SFI")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        (catalog, store, query)
    }

    /// Reproduces the exact initialization matrix of §3.5:
    /// T = (PresentAntecedent  _           AbsentConsequent)
    ///     (_                  Imperative  AbsentAntecedent)
    #[test]
    fn initialization_matches_section_3_5() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        assert_eq!(relevant.len(), 2, "c1 and c2");
        let t = TransformationTable::build(
            &catalog,
            &store,
            &relevant,
            &query,
            MatchPolicy::Implication,
        );
        assert_eq!(t.row_count(), 2);
        // Columns: p1 = vehicle.desc = "refrigerated truck",
        //          p2 = supplier.name = "SFI",
        //          p3 = cargo.desc = "frozen food".
        assert_eq!(t.column_count(), 3);
        let p1 = PredId(0);
        let p2 = PredId(1);
        let p3 = PredId(2);
        // Row order follows `relevant`; find c1's row.
        let c1_row =
            t.rows().position(|(_, r)| store.constraint(r.constraint).name == "c1").unwrap();
        let c2_row = 1 - c1_row;
        assert_eq!(t.cell(c1_row, p1), CellState::PresentAntecedent);
        assert_eq!(t.cell(c1_row, p2), CellState::NotPresent);
        assert_eq!(t.cell(c1_row, p3), CellState::AbsentConsequent);
        assert_eq!(t.cell(c2_row, p1), CellState::NotPresent);
        assert_eq!(t.cell(c2_row, p2), CellState::Tagged(PredicateTag::Imperative));
        assert_eq!(t.cell(c2_row, p3), CellState::AbsentAntecedent);
        // Query predicates start imperative.
        assert_eq!(t.tag(p1), Some(PredicateTag::Imperative));
        assert_eq!(t.tag(p2), Some(PredicateTag::Imperative));
        assert_eq!(t.tag(p3), None);
    }

    #[test]
    fn introduce_flips_presence_and_wakes_antecedents() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let mut t = TransformationTable::build(
            &catalog,
            &store,
            &relevant,
            &query,
            MatchPolicy::Implication,
        );
        let p3 = PredId(2);
        let c2_row =
            t.rows().position(|(_, r)| store.constraint(r.constraint).name == "c2").unwrap();
        assert!(!t.antecedents_satisfied(c2_row));
        let changed = t.introduce(p3, MatchPolicy::Implication);
        assert!(changed.contains(&p3));
        assert_eq!(t.presence(p3), ColumnPresence::Introduced);
        assert_eq!(t.cell(c2_row, p3), CellState::PresentAntecedent);
        assert!(t.antecedents_satisfied(c2_row));
    }

    #[test]
    fn assign_tag_is_monotone_meet() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let mut t = TransformationTable::build(
            &catalog,
            &store,
            &relevant,
            &query,
            MatchPolicy::Implication,
        );
        let p2 = PredId(1);
        assert_eq!(t.assign_tag(p2, PredicateTag::Optional), PredicateTag::Optional);
        // A later attempt to "raise" is absorbed by the meet.
        assert_eq!(t.assign_tag(p2, PredicateTag::Imperative), PredicateTag::Optional);
        assert_eq!(t.assign_tag(p2, PredicateTag::Redundant), PredicateTag::Redundant);
        assert_eq!(t.tag(p2), Some(PredicateTag::Redundant));
    }

    #[test]
    fn final_tags_default_to_imperative_for_query_predicates() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let t = TransformationTable::build(
            &catalog,
            &store,
            &relevant,
            &query,
            MatchPolicy::Implication,
        );
        for &qc in t.query_columns() {
            assert_eq!(t.final_tag(qc), Some(PredicateTag::Imperative));
        }
        // Absent constraint predicates have no final tag.
        assert_eq!(t.final_tag(PredId(2)), None);
    }

    #[test]
    fn render_contains_matrix_and_legend() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let t = TransformationTable::build(
            &catalog,
            &store,
            &relevant,
            &query,
            MatchPolicy::Implication,
        );
        let s = t.render(&catalog, &store);
        assert!(s.contains("PA"), "{s}");
        assert!(s.contains("AC"), "{s}");
        assert!(s.contains("cargo.desc = \"frozen food\""), "{s}");
    }

    /// The §3.5 / Figure 2.3 walk-through as the paper prints it, whole: the
    /// matrix at initialisation and at the fixpoint (c1 introduced p3 as
    /// optional, which enabled c2 to lower p2).
    #[test]
    fn render_golden_section_3_5() {
        let (catalog, store, query) = setup();
        let relevant = store.relevant_for(&query);
        let config = crate::OptimizerConfig::paper();
        let mut t =
            TransformationTable::build(&catalog, &store, &relevant, &query, config.match_policy);
        assert_eq!(
            t.render(&catalog, &store),
            concat!(
                "T =\n",
                "          p1   p2   p3 \n",
                "    c1:   PA    _   AC \n",
                "    c2:    _    I   AA \n",
                "where\n",
                "  p1 = vehicle.desc = \"refrigerated truck\"   [InQuery, tag Some(Imperative)]\n",
                "  p2 = supplier.name = \"SFI\"   [InQuery, tag Some(Imperative)]\n",
                "  p3 = cargo.desc = \"frozen food\"   [Absent, tag None]\n",
            )
        );
        crate::run_transformations(&mut t, &config);
        assert_eq!(
            t.render(&catalog, &store),
            concat!(
                "T =\n",
                "          p1   p2   p3 \n",
                "    c1:   PA    _    O   (inactive)\n",
                "    c2:    _    O   PA   (inactive)\n",
                "where\n",
                "  p1 = vehicle.desc = \"refrigerated truck\"   [InQuery, tag Some(Imperative)]\n",
                "  p2 = supplier.name = \"SFI\"   [InQuery, tag Some(Optional)]\n",
                "  p3 = cargo.desc = \"frozen food\"   [Introduced, tag Some(Optional)]\n",
            )
        );
    }

    #[test]
    fn syntactic_policy_ignores_implication() {
        let (catalog, store, _) = setup();
        // Query with a *stronger* predicate than c-antecedent would need.
        let query = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.quantity", CompOp::Gt, 20i64)
            .build()
            .unwrap();
        let c = sqo_constraints::ConstraintBuilder::new(&catalog, "cx")
            .when("cargo.quantity", CompOp::Gt, 10i64)
            .then("cargo.desc", CompOp::Eq, "bulk")
            .build()
            .unwrap();
        let store2 = ConstraintStore::build(
            Arc::clone(&catalog),
            vec![c],
            sqo_constraints::StoreOptions { closure: sqo_constraints::ClosureOptions::none() },
        )
        .unwrap();
        let relevant = store2.relevant_for(&query);
        assert_eq!(relevant.len(), 1);
        let t_imp = TransformationTable::build(
            &catalog,
            &store2,
            &relevant,
            &query,
            MatchPolicy::Implication,
        );
        assert!(t_imp.antecedents_satisfied(0), "quantity > 20 implies quantity > 10");
        let t_syn = TransformationTable::build(
            &catalog,
            &store2,
            &relevant,
            &query,
            MatchPolicy::Syntactic,
        );
        assert!(!t_syn.antecedents_satisfied(0));
        let _ = store.len(); // keep `store` used
    }

    /// Recycled buffers must reproduce byte-identical tables: build twice
    /// through one `TableBuffers` (interleaving a differently-shaped query)
    /// and compare against a fresh build.
    #[test]
    fn recycled_buffers_build_identical_tables() {
        let (catalog, store, query) = setup();
        let other = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.quantity", CompOp::Gt, 20i64)
            .build()
            .unwrap();
        let relevant = store.relevant_for(&query);
        let relevant_other = store.relevant_for(&other);
        let mut buf = TableBuffers::default();
        for _ in 0..3 {
            let wide = TransformationTable::build_with(
                &catalog,
                &store,
                &relevant,
                &query,
                MatchPolicy::Implication,
                &mut buf,
            );
            let fresh = TransformationTable::build(
                &catalog,
                &store,
                &relevant,
                &query,
                MatchPolicy::Implication,
            );
            assert_eq!(wide.row_count(), fresh.row_count());
            assert_eq!(wide.column_count(), fresh.column_count());
            for ri in 0..wide.row_count() {
                for c in 0..wide.column_count() {
                    assert_eq!(wide.cell(ri, PredId(c as u32)), fresh.cell(ri, PredId(c as u32)));
                }
            }
            for c in 0..wide.column_count() {
                let col = PredId(c as u32);
                assert_eq!(wide.presence(col), fresh.presence(col));
                assert_eq!(wide.tag(col), fresh.tag(col));
                assert_eq!(wide.rows_watching(col), fresh.rows_watching(col));
                assert_eq!(wide.rows_with_consequent(col), fresh.rows_with_consequent(col));
                assert_eq!(wide.predicate(col), fresh.predicate(col));
            }
            assert_eq!(wide.query_columns(), fresh.query_columns());
            wide.recycle(&mut buf);
            // A narrower query in between must not leave stale state behind.
            let narrow = TransformationTable::build_with(
                &catalog,
                &store,
                &relevant_other,
                &other,
                MatchPolicy::Implication,
                &mut buf,
            );
            assert_eq!(narrow.row_count(), relevant_other.len());
            narrow.recycle(&mut buf);
        }
    }
}
