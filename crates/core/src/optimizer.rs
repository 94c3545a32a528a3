//! The semantic query optimizer facade — Figure 3.1's four components wired
//! together:
//!
//! ```text
//! Initialization -> Update Transformation Queue <-> Transformation
//!                -> Formulate Transformed Query
//! ```

use std::sync::Arc;

use sqo_catalog::Catalog;
use sqo_constraints::ConstraintStore;
use sqo_query::{Query, QueryError};

use crate::config::OptimizerConfig;
use crate::formulate::formulate_with;
use crate::oracle::ProfitOracle;
use crate::report::OptimizationReport;
use crate::scratch::OptimizerScratch;
use crate::table::TransformationTable;
use crate::transform::run_transformations_with;

/// The optimized query plus the full report.
#[derive(Debug, Clone)]
pub struct Optimized {
    pub query: Query,
    pub report: OptimizationReport,
}

/// The semantic query optimizer.
///
/// Holds a reference to the (shared, precompiled) constraint store; each
/// [`SemanticOptimizer::optimize`] call is independent and thread-safe.
#[derive(Debug)]
pub struct SemanticOptimizer<'a> {
    store: &'a ConstraintStore,
    config: OptimizerConfig,
}

impl<'a> SemanticOptimizer<'a> {
    /// Paper-default configuration.
    pub fn new(store: &'a ConstraintStore) -> Self {
        Self::with_config(store, OptimizerConfig::paper())
    }

    pub fn with_config(store: &'a ConstraintStore, config: OptimizerConfig) -> Self {
        Self { store, config }
    }

    /// The constraint store the optimizer consults.
    pub fn store(&self) -> &ConstraintStore {
        self.store
    }

    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        self.store.catalog()
    }

    /// Optimizes `query` (which must validate against the catalog),
    /// delegating cost–benefit decisions to `oracle`.
    ///
    /// Allocates fresh working memory per call; long-lived callers that
    /// optimize repeatedly should hold an [`OptimizerScratch`] and use
    /// [`SemanticOptimizer::optimize_with`] instead.
    pub fn optimize(
        &self,
        query: &Query,
        oracle: &dyn ProfitOracle,
    ) -> Result<Optimized, QueryError> {
        self.optimize_with(query, oracle, &mut OptimizerScratch::new())
    }

    /// [`SemanticOptimizer::optimize`] against reusable working memory: the
    /// indexed constraint retrieval, the transformation table and the
    /// fixpoint loop all run out of `scratch`'s buffers, so a warmed-up
    /// caller pays near-zero transient allocation per query — the exact
    /// pattern the serving layer hits on every cache miss.
    pub fn optimize_with(
        &self,
        query: &Query,
        oracle: &dyn ProfitOracle,
        scratch: &mut OptimizerScratch,
    ) -> Result<Optimized, QueryError> {
        let store = self.store;
        let catalog = store.catalog().clone();
        query.validate(&catalog)?;

        // Phase 0: constraint retrieval via the store's index (exact).
        let OptimizerScratch { retrieval, relevant, table: table_buf, transform, formulation } =
            scratch;
        store.relevant_into(query, retrieval, relevant);

        // Phase 1: initialization (§3.1).
        let mut table = TransformationTable::build_with(
            &catalog,
            store,
            relevant,
            query,
            self.config.match_policy,
            table_buf,
        );

        // Phases 2+3: queue updates and transformations (§3.2, §3.3).
        let log = run_transformations_with(&mut table, &self.config, transform);

        // Phase 4: query formulation (§3.4).
        let mut formulation_result =
            formulate_with(&catalog, query, &table, &self.config, oracle, formulation);

        debug_assert!(
            formulation_result.query.validate(&catalog).is_ok(),
            "formulated query must validate: {:?}",
            formulation_result.query
        );

        let optimized_query = std::mem::take(&mut formulation_result.query);
        let report = OptimizationReport::from_parts(
            relevant.len(),
            table.column_count(),
            query.classes.len(),
            log,
            formulation_result,
        );
        table.recycle(table_buf);
        Ok(Optimized { query: optimized_query, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::StructuralOracle;
    use sqo_catalog::example::figure21;
    use sqo_constraints::{figure22, StoreOptions};
    use sqo_query::{parse_query, CompOp, QueryBuilder, QueryExt};

    fn store() -> ConstraintStore {
        let catalog = Arc::new(figure21().unwrap());
        ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions::paper_defaults(),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_figure23() {
        let store = store();
        let catalog = store.catalog().clone();
        let optimizer = SemanticOptimizer::new(&store);
        let query = parse_query(
            r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
                {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
                {collects, supplies} {supplier, cargo, vehicle})"#,
            &catalog,
        )
        .unwrap();
        let out = optimizer.optimize(&query, &StructuralOracle).unwrap();
        let printed = out.query.display(&catalog).to_string();
        assert!(printed.contains("{collects} {cargo, vehicle})"), "{printed}");
        assert!(printed.contains("cargo.desc=\"frozen food\""), "{printed}");
        assert!(out.report.changed_query());
        assert!(out.report.relevant_constraints >= 2);
        assert_eq!(out.report.query_classes, 3);
    }

    #[test]
    fn no_constraints_means_identity() {
        let catalog = Arc::new(figure21().unwrap());
        let empty =
            ConstraintStore::build(Arc::clone(&catalog), vec![], StoreOptions::paper_defaults())
                .unwrap();
        let optimizer = SemanticOptimizer::new(&empty);
        let query = QueryBuilder::new(&catalog)
            .select("cargo.desc")
            .filter("cargo.quantity", CompOp::Gt, 10i64)
            .build()
            .unwrap();
        let out = optimizer.optimize(&query, &StructuralOracle).unwrap();
        assert!(!out.report.changed_query());
        assert_eq!(out.query.normalized(), query.normalized());
    }

    #[test]
    fn shared_optimizer_is_send_and_matches_borrowed() {
        let store = Arc::new(store());
        let catalog = store.catalog().clone();
        let query = parse_query(
            r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
                {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
                {collects, supplies} {supplier, cargo, vehicle})"#,
            &catalog,
        )
        .unwrap();
        let borrowed = SemanticOptimizer::new(&store);
        let expected = borrowed.optimize(&query, &StructuralOracle).unwrap().query;

        // The way the serving layer holds it: the store behind an `Arc`, an
        // optimizer borrowing it moved into a worker thread.
        let shared = SemanticOptimizer::new(&store);
        let got = std::thread::scope(|s| {
            s.spawn(move || shared.optimize(&query, &StructuralOracle).unwrap().query)
                .join()
                .unwrap()
        });
        assert_eq!(got.normalized(), expected.normalized());
        assert_eq!(SemanticOptimizer::new(&store).store().len(), 5);
    }

    #[test]
    fn invalid_query_rejected() {
        let store = store();
        let optimizer = SemanticOptimizer::new(&store);
        let bad = Query::new();
        assert!(optimizer.optimize(&bad, &StructuralOracle).is_err());
    }

    #[test]
    fn irrelevant_constraints_do_not_fire() {
        let store = store();
        let catalog = store.catalog().clone();
        let optimizer = SemanticOptimizer::new(&store);
        // Query touching only engine: none of c1..c5 reference it.
        let query = QueryBuilder::new(&catalog)
            .select("engine.capacity")
            .filter("engine.engine_no", CompOp::Eq, 5i64)
            .build()
            .unwrap();
        let out = optimizer.optimize(&query, &StructuralOracle).unwrap();
        assert_eq!(out.report.relevant_constraints, 0);
        assert!(!out.report.changed_query());
    }

    #[test]
    fn report_renders() {
        let store = store();
        let catalog = store.catalog().clone();
        let optimizer = SemanticOptimizer::new(&store);
        let query = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .via("collects")
            .build()
            .unwrap();
        let out = optimizer.optimize(&query, &StructuralOracle).unwrap();
        let s = out.report.render(&catalog);
        assert!(s.contains("semantic optimization:"), "{s}");
    }
}
