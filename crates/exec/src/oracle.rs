//! The cost-based profitability oracle (§3.4's `profitable(pⱼ)`).
//!
//! Implements `sqo-core`'s [`ProfitOracle`] by comparing the conventional
//! optimizer's estimated work units for the working query and for the
//! working query less the predicate or class in question — precisely the
//! paper's "estimating the possible cost savings and overhead of retaining
//! pⱼ, using a cost model and conventional query optimization techniques".
//! No candidate query and no plan is built: `planner.rs` explains how a
//! difference is costed and why the estimate is the candidate plan's.
//!
//! An oracle runs on its thread's warm estimator (`planner.rs`, *A warm
//! estimator per thread*): [`CostBasedOracle::with_model`] takes it from the
//! thread's slot and dropping the oracle gives it back, so building one
//! oracle per miss, as the serving layer does, allocates no estimator
//! buffer once the thread is warm.

use std::cell::RefCell;

use sqo_catalog::ClassId;
use sqo_core::ProfitOracle;
use sqo_query::{Predicate, Query};
use sqo_storage::Database;

use crate::cost::CostModel;
use crate::error::ExecError;
use crate::plan::PhysicalPlan;
use crate::planner::{Rule, Warm, Without};

/// Plan-cost-comparing oracle over one immutable database snapshot.
///
/// Between two [`ProfitOracle::begin`]s the oracle carries the working
/// query's statistics and estimated cost from one decision to the next (the
/// snapshot never changes under it, so neither goes stale); a caller
/// serving a mutable database builds a fresh oracle per snapshot, which is
/// what the serving layer does on every miss. That state makes the oracle
/// `!Sync` — use one oracle per thread. The state lives in the thread's
/// warm estimator, held from construction to drop.
#[derive(Debug)]
pub struct CostBasedOracle<'db> {
    db: &'db Database,
    model: CostModel,
    formulation: RefCell<Warm>,
}

impl<'db> CostBasedOracle<'db> {
    pub fn new(db: &'db Database) -> Self {
        Self::with_model(db, CostModel::default())
    }

    pub fn with_model(db: &'db Database, model: CostModel) -> Self {
        Self { db, model, formulation: RefCell::new(Warm::take()) }
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The planner's cost estimate for `q` less `without` — what the
    /// oracle's decisions compare, exposed for diagnostics. `None` when
    /// that query cannot be planned. Leaves an open formulation alone.
    pub fn estimated_cost(&self, q: &Query, without: Option<Without<'_>>) -> Option<f64> {
        Warm::take().estimate(self.db, q, &self.model, without)
    }

    /// The plan of `formulated`, the query the open formulation ended with
    /// — the working query of its last question — built from what the
    /// oracle carried instead of loading and ordering it again (`planner.rs`,
    /// *Planning once*). It equals `plan_query(db, formulated, model)`,
    /// costs to the bit; a debug build checks that. After a formulation
    /// that asked nothing, it is `plan_query`.
    ///
    /// `formulated` must be that query: an oracle serving a formulation
    /// (`formulate_with` calls [`ProfitOracle::begin`] first) asked about
    /// no other query since.
    pub fn plan_formulated(&self, formulated: &Query) -> Result<PhysicalPlan, ExecError> {
        let plan = self.formulation.borrow_mut().plan(self.db, formulated, &self.model);
        debug_assert_eq!(
            plan,
            crate::plan_query(self.db, formulated, &self.model),
            "the carried plan is plan_query's"
        );
        plan
    }

    /// One decision of the open formulation (`Estimator::decide`).
    fn decide(&self, working: &Query, without: Without<'_>, adopting: bool, rule: Rule) -> bool {
        self.formulation.borrow_mut().decide(self.db, working, &self.model, without, adopting, rule)
    }
}

impl ProfitOracle for CostBasedOracle<'_> {
    fn begin(&self) {
        self.formulation.borrow_mut().reset();
    }

    fn retain_optional(&self, working: &Query, pred: &Predicate) -> bool {
        let without = match pred {
            Predicate::Sel(s) => Without::Sel(s),
            Predicate::Join(j) => Without::Join(j),
        };
        // If either candidate fails to plan, keep the predicate: a
        // superfluous implied predicate is harmless, a lost one is not
        // recoverable here.
        self.decide(working, without, false, |with, without| with <= without)
    }

    fn eliminate_class(&self, working: &Query, class: ClassId) -> bool {
        // If the reduced query cannot be planned, keep the class.
        self.decide(working, Without::Class(class), true, |with, without| without <= with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_query;
    use sqo_catalog::{example::figure21, Value};
    use sqo_constraints::{figure22, ConstraintStore, StoreOptions};
    use sqo_core::SemanticOptimizer;
    use sqo_query::{parse_query, QueryExt};
    use sqo_storage::{IntegrityOptions, ObjectId};
    use std::sync::Arc;

    /// A Figure 2.1 instance where the Figure 2.3 query has work to save.
    fn fig_db() -> Database {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        for i in 0..50 {
            let name = if i == 0 { "SFI".to_string() } else { format!("s{i}") };
            b.insert(supplier, vec![Value::str(name), Value::str("addr")]).unwrap();
        }
        for i in 0..40 {
            let desc = if i % 4 == 0 { "refrigerated truck" } else { "flatbed" };
            b.insert(vehicle, vec![Value::Int(i), Value::str(desc), Value::Int(i % 5)]).unwrap();
        }
        crate::executor::tests::equip_vehicles(&mut b, 40);
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        for i in 0..200i64 {
            // Cargo on a refrigerated truck is frozen food (c1) and then
            // comes from SFI (c2); everything else is spread around.
            let v = (i % 40) as u32;
            let frozen = v % 4 == 0;
            let desc = if frozen { "frozen food" } else { "dry goods" };
            let oid =
                b.insert(cargo, vec![Value::Int(i), Value::str(desc), Value::Int(i % 97)]).unwrap();
            let s = if frozen { 0u32 } else { 1 + (i as u32 % 49) };
            b.link(supplies, oid, ObjectId(s)).unwrap();
            b.link(collects, oid, ObjectId(v)).unwrap();
        }
        b.finalize(IntegrityOptions).unwrap()
    }

    fn fig23_query(catalog: &sqo_catalog::Catalog) -> Query {
        parse_query(
            r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
                {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
                {collects, supplies} {supplier, cargo, vehicle})"#,
            catalog,
        )
        .unwrap()
    }

    #[test]
    fn instance_satisfies_paper_constraints() {
        let db = fig_db();
        let catalog = db.catalog().clone();
        for c in figure22(&catalog).unwrap() {
            // c3..c5 reference empty classes and hold vacuously.
            assert!(db.check_constraint(&c).is_empty(), "{} violated", c.name);
        }
    }

    #[test]
    fn optimized_query_returns_same_answer_and_costs_less() {
        let db = fig_db();
        let catalog = db.catalog().clone();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        let optimizer = SemanticOptimizer::new(&store);
        let oracle = CostBasedOracle::new(&db);
        let query = fig23_query(&catalog);
        let out = optimizer.optimize(&query, &oracle).unwrap();

        let model = CostModel::default();
        let plan_orig = plan_query(&db, &query, &model).unwrap();
        let plan_opt = plan_query(&db, &out.query, &model).unwrap();
        let (res_orig, cnt_orig) = crate::execute(&db, &plan_orig).unwrap();
        let (res_opt, cnt_opt) = crate::execute(&db, &plan_opt).unwrap();

        assert!(
            res_orig.same_multiset(&res_opt),
            "semantic optimization must preserve results:\noriginal: {}\noptimized: {}",
            res_orig.render(&catalog, 10),
            res_opt.render(&catalog, 10)
        );
        // The cost model may legitimately keep the indexed supplier probe
        // as the driving access (elimination not profitable here); what it
        // must never do is make things meaningfully worse — the paper's
        // small-DB overhead stayed within ~10%.
        let cost_orig = model.measured(&cnt_orig);
        let cost_opt = model.measured(&cnt_opt);
        assert!(
            cost_opt <= cost_orig * 1.10,
            "optimized {cost_opt} should stay within 10% of original {cost_orig}\n{}",
            out.query.display(&catalog)
        );
    }

    #[test]
    fn forced_elimination_preserves_results_on_real_data() {
        // StructuralOracle always eliminates: the supplier class goes away,
        // and because `supplies` is total + to-one from cargo, the answer is
        // unchanged on the loaded instance.
        let db = fig_db();
        let catalog = db.catalog().clone();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        let optimizer = SemanticOptimizer::new(&store);
        let query = fig23_query(&catalog);
        let out = optimizer.optimize(&query, &sqo_core::StructuralOracle).unwrap();
        assert_eq!(out.report.eliminated_classes.len(), 1);

        let model = CostModel::default();
        let plan_orig = plan_query(&db, &query, &model).unwrap();
        let plan_opt = plan_query(&db, &out.query, &model).unwrap();
        let (res_orig, _) = crate::execute(&db, &plan_orig).unwrap();
        let (res_opt, _) = crate::execute(&db, &plan_opt).unwrap();
        assert!(res_orig.same_multiset(&res_opt));
    }

    #[test]
    fn estimates_agree_between_patched_and_rebuilt_snapshots() {
        // What the incremental storage rewrite must guarantee is that an
        // `Arc`-patched successor yields bit-identical statistics — and
        // therefore identical plan cost estimates — to a from-scratch
        // rebuild of the same state.
        use sqo_storage::DataWrite;

        let db = fig_db();
        let catalog = db.catalog().clone();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        let src = ObjectId(1); // dry goods
        let tuple = db.tuple(cargo, src).unwrap();
        let links = vec![
            (supplies, db.traverse(supplies, cargo, src).unwrap()[0]),
            (collects, db.traverse(collects, cargo, src).unwrap()[0]),
        ];
        let batch = vec![
            DataWrite::Insert { class: cargo, tuple: tuple.clone(), links: links.clone() },
            DataWrite::Insert { class: cargo, tuple, links },
            DataWrite::Delete { class: cargo, object: ObjectId(3) },
        ];
        let (patched, _) = db.with_writes(&batch, None).unwrap();
        let (rebuilt, _) = db.with_writes_full(&batch).unwrap();
        assert_eq!(patched.stats(), rebuilt.stats());
        let o_patched = CostBasedOracle::new(&patched);
        let o_rebuilt = CostBasedOracle::new(&rebuilt);
        let queries = [
            fig23_query(&catalog),
            parse_query(
                r#"(SELECT {cargo.desc} {} {cargo.desc = "dry goods"} {} {cargo})"#,
                &catalog,
            )
            .unwrap(),
        ];
        for q in &queries {
            let a = o_patched.estimated_cost(q, None).expect("plannable");
            let b = o_rebuilt.estimated_cost(q, None).expect("plannable");
            assert_eq!(a, b, "estimates diverged between patched and rebuilt snapshots");
        }
    }

    #[test]
    fn oracle_keeps_class_when_planning_fails() {
        let db = fig_db();
        let oracle = CostBasedOracle::new(&db);
        let catalog = db.catalog().clone();
        let good = fig23_query(&catalog);
        // Without cargo, supplier and vehicle are unreachable from one
        // another: the reduced query cannot be planned.
        oracle.begin();
        assert!(!oracle.eliminate_class(&good, catalog.class_id("cargo").unwrap()));
        // And keeps predicates under the same failure.
        let broken = Query::new(); // unplannable
        let p = Predicate::sel(
            catalog.attr_ref("cargo", "desc").unwrap(),
            sqo_query::CompOp::Eq,
            "frozen food",
        );
        oracle.begin();
        assert!(oracle.retain_optional(&broken, &p));
    }
}
