//! Batch execution: K probe bindings of one plan.
//!
//! [`execute_batch_with`] runs K probes of the same [`PhysicalPlan`] one
//! after another on one [`ExecScratch`], each through the one executor
//! ([`crate::execute_with`]'s loop), so per probe the rows, their order and
//! the [`CostCounters`] are those of a stand-alone execution. It is kept as
//! an entry point, not as a second executor: the end-to-end benchmark calls
//! it.
//!
//! A probe is either the plan run [`ProbeBinding::AsPlanned`] or the plan
//! with its root index probe re-keyed ([`ProbeBinding::RootSet`]), the
//! parameterized-batch shape: one plan skeleton, K distinct keys.

use sqo_query::ValueSet;
use sqo_storage::{CostCounters, Database};

use crate::error::ExecError;
use crate::executor::{execute_rekeyed, ExecScratch};
use crate::plan::{AccessPath, PhysicalPlan};
use crate::result::ResultSet;

/// How one probe of a batch binds the shared plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeBinding {
    /// Run the plan exactly as planned.
    AsPlanned,
    /// Run the plan with its root index probe re-keyed to this value set —
    /// one plan skeleton serving K distinct keys. The plan's root must be
    /// an [`AccessPath::Index`]; a sequential-scan root has no probe key to
    /// override and fails with [`ExecError::RootOverrideNeedsIndex`].
    RootSet(ValueSet),
}

impl ProbeBinding {
    /// The equivalent stand-alone plan of this probe: `plan` itself for
    /// [`ProbeBinding::AsPlanned`], or `plan` with the root probe set
    /// substituted. This is the sequential-path counterpart the
    /// equivalence tests (and the benchmark cross-checks) execute via
    /// [`crate::execute_with`].
    pub fn apply(&self, plan: &PhysicalPlan) -> Result<PhysicalPlan, ExecError> {
        let mut plan = plan.clone();
        if let ProbeBinding::RootSet(set) = self {
            let AccessPath::Index { set: planned, .. } = &mut plan.root.path else {
                return Err(ExecError::RootOverrideNeedsIndex(plan.root.class));
            };
            planned.clone_from(set);
        }
        Ok(plan)
    }
}

/// Reusable state of [`execute_batch_with`]: the one [`ExecScratch`] its
/// probes run on. Keep one per worker thread.
#[derive(Debug, Default)]
pub struct BatchExecScratch {
    exec: ExecScratch,
}

impl BatchExecScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Executes `probes.len()` probes of `plan` against `db`, returning each
/// probe's result set and operation counters in probe order. Allocates
/// fresh state; hot callers should hold a [`BatchExecScratch`] and use
/// [`execute_batch_with`].
pub fn execute_batch(
    db: &Database,
    plan: &PhysicalPlan,
    probes: &[ProbeBinding],
) -> Result<Vec<(ResultSet, CostCounters)>, ExecError> {
    execute_batch_with(db, plan, probes, &mut BatchExecScratch::new())
}

/// [`execute_batch`] against reusable state.
///
/// Per probe, the emitted rows (in emission order) and the counters are
/// exactly those of [`crate::execute_with`] on that probe's equivalent
/// stand-alone plan ([`ProbeBinding::apply`]). An error in any probe fails
/// the whole call.
pub fn execute_batch_with(
    db: &Database,
    plan: &PhysicalPlan,
    probes: &[ProbeBinding],
    scratch: &mut BatchExecScratch,
) -> Result<Vec<(ResultSet, CostCounters)>, ExecError> {
    probes
        .iter()
        .map(|probe| {
            let rekey = match probe {
                ProbeBinding::AsPlanned => None,
                ProbeBinding::RootSet(set) => Some(set),
            };
            execute_rekeyed(db, plan, rekey, &mut scratch.exec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::executor::execute_with;
    use crate::executor::tests::db;
    use crate::planner::plan_query;
    use sqo_catalog::example::figure21;
    use sqo_catalog::Value;
    use sqo_query::{CompOp, Query, QueryBuilder};
    use sqo_storage::IntegrityOptions;
    use std::sync::Arc;

    /// A large supplier extent so the planner roots at an index probe.
    fn indexed_db() -> Database {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        for i in 0..500 {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
        }
        b.finalize(IntegrityOptions).unwrap()
    }

    fn assert_batch_matches_sequential(db: &Database, q: &Query, probes: &[ProbeBinding]) {
        let plan = plan_query(db, q, &CostModel::default()).unwrap();
        let batched = execute_batch_with(db, &plan, probes, &mut BatchExecScratch::new()).unwrap();
        assert_eq!(batched.len(), probes.len());
        let mut seq_scratch = ExecScratch::new();
        for (probe, (rows, counters)) in probes.iter().zip(&batched) {
            let solo = probe.apply(&plan).unwrap();
            let (want_rows, want_counters) = execute_with(db, &solo, &mut seq_scratch).unwrap();
            assert_eq!(
                rows.rows().collect::<Vec<_>>(),
                want_rows.rows().collect::<Vec<_>>(),
                "emission order must match the sequential path"
            );
            assert_eq!(counters, &want_counters, "per-probe counters must match");
        }
    }

    #[test]
    fn k1_degenerate_batch_matches_sequential() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        assert_batch_matches_sequential(&db, &q, &[ProbeBinding::AsPlanned]);
    }

    #[test]
    fn duplicate_probes_each_match_sequential() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "s0")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        let probes = vec![ProbeBinding::AsPlanned; 8];
        assert_batch_matches_sequential(&db, &q, &probes);
    }

    #[test]
    fn rekeyed_root_probes_match_their_standalone_plans() {
        let db = indexed_db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s1")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        assert!(matches!(plan.root.path, AccessPath::Index { .. }), "fixture must root at index");
        let probes: Vec<ProbeBinding> = (0..16)
            .map(|i| ProbeBinding::RootSet(ValueSet::point(Value::str(format!("s{}", i * 7)))))
            .collect();
        assert_batch_matches_sequential(&db, &q, &probes);
    }

    #[test]
    fn scratch_recycles_across_widths_and_shapes() {
        let db = db();
        let catalog = db.catalog().clone();
        let chain = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .select("vehicle.vehicle_no")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .via("collects")
            .build()
            .unwrap();
        let single = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let mut scratch = BatchExecScratch::new();
        for (q, width) in [(&chain, 16), (&single, 3), (&chain, 1), (&single, 9)] {
            let plan = plan_query(&db, q, &CostModel::default()).unwrap();
            let probes = vec![ProbeBinding::AsPlanned; width];
            let batched = execute_batch_with(&db, &plan, &probes, &mut scratch).unwrap();
            let (want, _) = execute_with(&db, &plan, &mut ExecScratch::new()).unwrap();
            for (rows, _) in &batched {
                assert_eq!(rows.rows().collect::<Vec<_>>(), want.rows().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn empty_probe_list_is_empty() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog).select("cargo.code").build().unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        assert!(execute_batch(&db, &plan, &[]).unwrap().is_empty());
    }

    #[test]
    fn root_override_on_scan_root_errors() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        assert!(matches!(plan.root.path, AccessPath::SeqScan));
        let probe = ProbeBinding::RootSet(ValueSet::point(Value::str("x")));
        let err = execute_batch(&db, &plan, &[probe]).unwrap_err();
        assert!(matches!(err, ExecError::RootOverrideNeedsIndex(_)));
    }
}
