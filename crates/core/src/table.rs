//! The transformation table `T` (§3.1).
//!
//! Rows are the relevant constraints `C`, columns the predicate set `P`
//! (query predicates plus all predicates of relevant constraints, each
//! structural duplicate in one column). What the table stores is one
//! [`ColumnPresence`] and one optional [`PredicateTag`] per column —
//! everything the fixpoint and formulation decide from. The paper's matrix
//! of [`CellState`]s is a *view* over that state
//! ([`TransformationTable::cell`]), not a second copy of it, and
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
//! # Building from the store's pool
//!
//! The constraint store interned every constraint's predicates once, when
//! it filed the constraint (§3's "separate structure";
//! [`ConstraintStore::filed`]). A build maps those store ids to columns
//! through a dense remap array, so a relevant constraint's predicates are
//! never hashed again. Only the query's own predicates are looked up by
//! hash in the store's pool: a query predicate equal to a constraint
//! predicate shares its column, and one the store does not hold gets a
//! column of its own. Columns are numbered in first-seen order — the query's
//! predicates, then each row's antecedents and consequent — the order a
//! per-query interner would give. A column points into the store's pool,
//! which the table shares, so a build clones no constraint predicate.
//!
//! Rows are flat: every row's antecedent columns sit in one buffer, and the
//! column → rows postings are offset-indexed lists. Because the table is
//! rebuilt for every optimized query, construction runs against a reusable
//! [`TableBuffers`]: the previous query's table, handed back by
//! [`TransformationTable::recycle`] and refilled in place by
//! [`TransformationTable::build_with`], so every vector keeps its capacity
//! and a warmed-up serving thread builds tables with near-zero transient
//! allocation.

use std::sync::Arc;

use sqo_catalog::Catalog;
use sqo_constraints::{ConstraintClass, ConstraintId, ConstraintStore, PredId, PredicatePool};
use sqo_query::{Predicate, Query};

use crate::config::MatchPolicy;
use crate::tag::{CellState, ColumnPresence, PredicateTag};

/// One row: a relevant constraint compiled against the table's columns.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub constraint: ConstraintId,
    pub consequent: PredId,
    pub classification: ConstraintClass,
    /// Whether the consequent predicate sits on an indexed attribute —
    /// the branch condition of Tables 3.1/3.2.
    pub consequent_indexed: bool,
    /// Still a member of `C` (not yet fired or discarded).
    pub active: bool,
    /// The row's antecedent columns: this range of the table's buffer
    /// ([`TransformationTable::antecedents`]).
    antecedents: (u32, u32),
}

/// Column → rows lists, flat: column `c`'s rows are
/// `rows[offsets[c]..offsets[c + 1]]`, ascending.
#[derive(Debug, Default)]
struct Postings {
    offsets: Vec<u32>,
    rows: Vec<usize>,
}

impl Postings {
    /// Refills the lists of `cols` columns from `(column, row)` pairs in
    /// ascending row order: count, prefix-sum, then place back to front.
    fn fill(
        &mut self,
        cols: usize,
        pairs: impl DoubleEndedIterator<Item = (PredId, usize)> + Clone,
    ) {
        self.offsets.clear();
        self.offsets.resize(cols + 1, 0);
        for (col, _) in pairs.clone() {
            self.offsets[col.index()] += 1;
        }
        let mut end = 0;
        for offset in &mut self.offsets {
            end += *offset;
            *offset = end;
        }
        self.rows.clear();
        self.rows.resize(end as usize, 0);
        for (col, ri) in pairs.rev() {
            self.offsets[col.index()] -= 1;
            self.rows[self.offsets[col.index()] as usize] = ri;
        }
    }

    fn of(&self, col: PredId) -> &[usize] {
        match (self.offsets.get(col.index()), self.offsets.get(col.index() + 1)) {
            (Some(&start), Some(&end)) => &self.rows[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// No column yet, in [`TransformationTable`]'s remap array.
const NO_COLUMN: u32 = u32::MAX;

/// Where a column's predicate lives.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// In the store's pool, under this id.
    Pooled(PredId),
    /// A query predicate the store does not hold: this entry of
    /// [`TransformationTable`]'s own list.
    Unpooled(usize),
}

/// Recyclable storage for [`TransformationTable`]: a spent table whose
/// vectors the next build refills. Obtain one with
/// `TableBuffers::default()`, thread it through
/// [`TransformationTable::build_with`], and return the table with
/// [`TransformationTable::recycle`] when it is no longer needed.
#[derive(Debug, Default)]
pub struct TableBuffers(Option<TransformationTable>);

/// The transformation table.
#[derive(Debug, Default)]
pub struct TransformationTable {
    rows: Vec<Row>,
    /// Every row's antecedent columns, end to end.
    antecedents: Vec<PredId>,
    /// Column → where its predicate lives.
    columns: Vec<Column>,
    /// The pool of the store the table was built from.
    pool: Arc<PredicatePool>,
    /// The query predicates the store does not hold, with their columns.
    unpooled: Vec<(PredId, Predicate)>,
    /// Store id → column, [`NO_COLUMN`] everywhere between builds (a build
    /// resets the entries it set).
    remap: Vec<u32>,
    presence: Vec<ColumnPresence>,
    tags: Vec<Option<PredicateTag>>,
    /// Columns of the original query's predicates, in query order.
    query_columns: Vec<PredId>,
    /// antecedent column -> rows listing it (for incremental wake-ups).
    antecedent_rows: Postings,
    /// consequent column -> rows whose consequent it is (for targeted
    /// eligibility rechecks).
    consequent_rows: Postings,
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
    /// vectors). Pass the table back through
    /// [`TransformationTable::recycle`] to reuse the storage again.
    ///
    /// Whether a consequent is indexed was settled against the store's
    /// catalog when the store filed it, so `_catalog` is not read; the
    /// parameter keeps the signature `benches/e2e`'s shadow pipeline calls.
    pub fn build_with(
        _catalog: &Catalog,
        store: &ConstraintStore,
        relevant: &[ConstraintId],
        query: &Query,
        match_policy: MatchPolicy,
        buf: &mut TableBuffers,
    ) -> Self {
        let mut t = buf.0.take().unwrap_or_default();
        t.pool = Arc::clone(store.pool());
        if t.remap.len() < t.pool.len() {
            t.remap.resize(t.pool.len(), NO_COLUMN);
        }
        t.columns.clear();
        t.unpooled.clear();
        // Query predicates first: stable, paper-like column order.
        t.query_columns.clear();
        for pred in query.predicates() {
            let col = match t.pool.lookup(&pred) {
                Some(id) => t.column_of(id),
                None => match t.unpooled.iter().find(|(_, p)| *p == pred) {
                    Some(&(col, _)) => col,
                    None => {
                        let col = t.push_column(Column::Unpooled(t.unpooled.len()));
                        t.unpooled.push((col, pred));
                        col
                    }
                },
            };
            t.query_columns.push(col);
        }
        t.rows.clear();
        t.antecedents.clear();
        for &id in relevant {
            let filed = store.filed(id);
            let start = t.antecedents.len() as u32;
            for &a in filed.antecedents {
                let col = t.column_of(a);
                t.antecedents.push(col);
            }
            let consequent = t.column_of(filed.consequent);
            t.rows.push(Row {
                constraint: id,
                consequent,
                classification: filed.classification,
                consequent_indexed: filed.consequent_indexed,
                active: true,
                antecedents: (start, t.antecedents.len() as u32),
            });
        }
        for column in &t.columns {
            if let Column::Pooled(id) = column {
                t.remap[id.index()] = NO_COLUMN;
            }
        }
        let cols = t.columns.len();

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
            for col in 0..cols {
                if t.presence[col] == ColumnPresence::Absent
                    && query.satisfies_predicate(t.predicate(PredId(col as u32)))
                {
                    t.presence[col] = ColumnPresence::Implied;
                }
            }
        }

        // The column → rows postings.
        let (rows, antecedents) = (&t.rows, &t.antecedents);
        t.antecedent_rows.fill(
            cols,
            rows.iter().enumerate().flat_map(|(ri, row)| {
                antecedents[row.antecedents.0 as usize..row.antecedents.1 as usize]
                    .iter()
                    .map(move |&a| (a, ri))
            }),
        );
        t.consequent_rows.fill(cols, rows.iter().enumerate().map(|(ri, row)| (row.consequent, ri)));
        t
    }

    /// The column of the store's predicate `id`, opening one on first sight.
    fn column_of(&mut self, id: PredId) -> PredId {
        match self.remap[id.index()] {
            NO_COLUMN => {
                let col = self.push_column(Column::Pooled(id));
                self.remap[id.index()] = col.0;
                col
            }
            col => PredId(col),
        }
    }

    fn push_column(&mut self, column: Column) -> PredId {
        let col = PredId(self.columns.len() as u32);
        self.columns.push(column);
        col
    }

    /// Returns the table to `buf` as the storage of the next
    /// [`TransformationTable::build_with`] call.
    pub fn recycle(self, buf: &mut TableBuffers) {
        buf.0 = Some(self);
    }

    // ---- basic accessors ---------------------------------------------------

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    pub fn row(&self, ri: usize) -> &Row {
        &self.rows[ri]
    }

    pub fn rows(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows.iter().enumerate()
    }

    /// Row `ri`'s antecedent columns, in the constraint's order.
    pub fn antecedents(&self, ri: usize) -> &[PredId] {
        let (start, end) = self.rows[ri].antecedents;
        &self.antecedents[start as usize..end as usize]
    }

    /// Every column with its predicate, in column order.
    pub fn columns(&self) -> impl Iterator<Item = (PredId, &Predicate)> {
        (0..self.columns.len() as u32).map(|c| (PredId(c), self.predicate(PredId(c))))
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
        } else if !self.antecedents(ri).contains(&col) {
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
        self.antecedent_rows.of(col)
    }

    /// Rows whose consequent is `col` — the only rows whose eligibility can
    /// change when `col`'s tag moves.
    pub fn rows_with_consequent(&self, col: PredId) -> &[usize] {
        self.consequent_rows.of(col)
    }

    /// All antecedents of row `ri` present/implied/introduced?
    pub fn antecedents_satisfied(&self, ri: usize) -> bool {
        self.antecedents(ri).iter().all(|a| self.presence[a.index()].satisfies_antecedent())
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
            let introduced = self.predicate(col);
            changed.extend(
                self.columns()
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
        for (id, _) in self.columns() {
            out.push_str(&format!("{:>4} ", format!("p{}", id.0 + 1)));
        }
        out.push('\n');
        for (ri, row) in self.rows.iter().enumerate() {
            let name = &store.constraint(row.constraint).name;
            out.push_str(&format!("{name:>6}: "));
            for (id, _) in self.columns() {
                out.push_str(&format!("{:>4} ", self.cell(ri, id).code()));
            }
            if !row.active {
                out.push_str("  (inactive)");
            }
            out.push('\n');
        }
        out.push_str("where\n");
        for (id, pred) in self.columns() {
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

    /// The predicate behind a column.
    pub fn predicate(&self, col: PredId) -> &Predicate {
        match self.columns[col.index()] {
            Column::Pooled(id) => self.pool.get(id),
            Column::Unpooled(at) => &self.unpooled[at].1,
        }
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
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            sqo_constraints::StoreOptions::paper_defaults(),
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
            sqo_constraints::StoreOptions::paper_defaults(),
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

    /// Everything a table is: its columns in order, its rows, presence and
    /// tags per column, and the rendered matrix.
    fn assert_same_table(
        catalog: &Catalog,
        (a, store_a): (&TransformationTable, &ConstraintStore),
        (b, store_b): (&TransformationTable, &ConstraintStore),
    ) {
        let columns = |t: &TransformationTable| -> Vec<Predicate> {
            t.columns().map(|(_, p)| p.clone()).collect()
        };
        assert_eq!(columns(a), columns(b));
        let rows = |t: &TransformationTable| {
            t.rows()
                .map(|(ri, r)| {
                    let at = (r.constraint, r.consequent, r.classification, r.consequent_indexed);
                    (at, r.active, t.antecedents(ri).to_vec())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(a), rows(b));
        for (col, _) in a.columns() {
            assert_eq!((a.presence(col), a.tag(col)), (b.presence(col), b.tag(col)));
        }
        assert_eq!(a.query_columns(), b.query_columns());
        assert_eq!(a.render(catalog, store_a), b.render(catalog, store_b));
    }

    /// A store that gained constraints by copy files them into its pool as
    /// a store built from the same list at once does: every
    /// table is the same, before and after the fixpoint.
    #[test]
    fn grown_stores_build_the_tables_of_a_fresh_store() {
        let (catalog, _, query) = setup();
        let grown = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            sqo_constraints::StoreOptions::paper_defaults(),
        )
        .unwrap();
        // One constraint whose antecedent the query states and whose
        // consequent no other constraint has, one that repeats c1.
        let extra = sqo_constraints::ConstraintBuilder::new(&catalog, "cx")
            .when("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .via("collects")
            .then("cargo.quantity", CompOp::Gt, 10i64)
            .build()
            .unwrap();
        let (grown, _) = grown.with_constraint(extra).unwrap();
        let c1 = grown.constraint(ConstraintId(0)).clone();
        let (grown, _) = grown.with_constraint(c1).unwrap();
        let fresh = ConstraintStore::build(
            Arc::clone(&catalog),
            grown.constraints().map(|(_, c)| c.clone()).collect(),
            sqo_constraints::StoreOptions::paper_defaults(),
        )
        .unwrap();
        let other = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.quantity", CompOp::Gt, 10i64)
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .via("collects")
            .build()
            .unwrap();
        let config = crate::OptimizerConfig::paper();
        for q in [&query, &other] {
            let relevant = grown.relevant_for(q);
            assert_eq!(relevant, fresh.relevant_for(q));
            let mut tables = [&grown, &fresh].map(|store| {
                TransformationTable::build(&catalog, store, &relevant, q, config.match_policy)
            });
            assert_same_table(&catalog, (&tables[0], &grown), (&tables[1], &fresh));
            for t in &mut tables {
                crate::run_transformations(t, &config);
            }
            assert_same_table(&catalog, (&tables[0], &grown), (&tables[1], &fresh));
        }
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
