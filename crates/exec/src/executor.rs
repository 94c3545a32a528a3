//! Batched iterative executor for pointer-join plans.
//!
//! Every operation is counted in [`CostCounters`], which the cost model folds
//! into the work-unit figure the benchmarks report as "execution cost". The
//! traversal is depth-first over batched candidate vectors: each plan step
//! owns one reusable buffer that is filled with the link targets of the
//! current parent, filtered **as a slice** (residuals, then join filters,
//! then cycle edges), and then walked by cursor. Rows are emitted in exactly
//! the order — and the counters count exactly the operations — of the
//! natural recursive formulation; what changes is the allocation profile:
//! via [`execute_with`] and a long-lived [`ExecScratch`], a serving thread
//! executes plans with no per-binding allocation at all.
//!
//! The traversal step is written once, as [`ExecScratch::advance`]:
//! [`execute_with`] loops one machine to completion, and
//! [`crate::execute_batch_with`] advances K of them round-robin.
//!
//! The answer is built in the scratch too: each emitted row's projected
//! values are pushed onto one row-major buffer the machine keeps warm
//! across executions, and the finished answer moves them out with one
//! allocation of exactly their size (`drain(..).collect()`), so an
//! execution allocates the same whether it returns ten rows or ten
//! thousand ([`ResultSet`]'s layout; `tests/result_alloc.rs` holds that).
//! A sequential-scan root reads the extent page by page
//! ([`Database::tuples`]) and evaluates its residuals on each tuple, rather
//! than looking every candidate's values up through the page table.

use sqo_catalog::{AttrRef, ClassId, Value};
use sqo_query::{Projection, ValueSet};
use sqo_storage::{CostCounters, Database, ObjectId};

use crate::error::ExecError;
use crate::plan::{AccessPath, ClassAccess, JoinStep, PhysicalPlan};
use crate::result::ResultSet;

/// One resumable depth-first traversal machine and its reusable buffers:
/// a candidate vector and cursor per plan level, the binding stack, the
/// level currently being walked, and the answer's emission buffer. Keep
/// one per worker thread; any plan
/// shape can run against any scratch (levels grow on demand and are
/// cleared before use).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// levels[d] = surviving candidates of plan level `d` (root = 0).
    levels: Vec<Vec<ObjectId>>,
    /// cursors[d] = next candidate of `levels[d]` to bind.
    cursors: Vec<usize>,
    binding: Vec<(ClassId, ObjectId)>,
    /// The level the machine is walking.
    depth: usize,
    /// The projected values of the rows emitted so far, row-major.
    values: Vec<Value>,
    /// The rows emitted so far (a row may have no values).
    emitted: usize,
}

impl ExecScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the machine for `plan` and hands out its (cleared) root
    /// level for the caller to fill with the driving candidates.
    pub(crate) fn start(&mut self, plan: &PhysicalPlan) -> &mut Vec<ObjectId> {
        let depths = plan.steps.len() + 1;
        if self.levels.len() < depths {
            self.levels.resize_with(depths, Vec::new);
        }
        self.cursors.clear();
        self.cursors.resize(depths, 0);
        for level in &mut self.levels {
            level.clear();
        }
        self.binding.clear();
        self.depth = 0;
        self.values.clear();
        self.emitted = 0;
        &mut self.levels[0]
    }

    /// One traversal step: bind the next candidate of the current level
    /// and either emit a row (last level) or fill the child level from it
    /// — or pop a level when the current one is exhausted. Returns `false`
    /// once the root level is exhausted (and on every call after that).
    ///
    /// The visit order is that of the recursive formulation, but the
    /// per-step candidate vectors are reused across the whole traversal
    /// instead of reallocated per parent binding.
    #[inline]
    pub(crate) fn advance(
        &mut self,
        db: &Database,
        plan: &PhysicalPlan,
        counters: &mut CostCounters,
    ) -> Result<bool, ExecError> {
        let depth = self.depth;
        let Some(&oid) = self.levels[depth].get(self.cursors[depth]) else {
            self.depth = depth.saturating_sub(1);
            return Ok(depth > 0);
        };
        self.cursors[depth] += 1;
        let class = if depth == 0 { plan.root.class } else { plan.steps[depth - 1].access.class };
        self.binding.truncate(depth);
        self.binding.push((class, oid));

        let Some(step) = plan.steps.get(depth) else {
            for p in &plan.projections {
                self.values.push(project_value(db, p, &self.binding)?.clone());
            }
            counters.tuples_out += 1;
            self.emitted += 1;
            return Ok(true);
        };
        // Fill the child level: link targets of `oid`, filtered as a batch.
        fill_step_level(db, step, &self.binding, counters, &mut self.levels[depth + 1])?;
        self.cursors[depth + 1] = 0;
        self.depth = depth + 1;
        Ok(true)
    }

    /// The answer of the traversal just run: the emitted values, moved out
    /// of the warm buffer at their exact size.
    pub(crate) fn finish(&mut self, db: &Database, plan: &PhysicalPlan) -> ResultSet {
        ResultSet::of_plan(db, plan, self.values.drain(..).collect(), self.emitted)
    }
}

/// Executes `plan` against `db`, returning the result set and the operation
/// counters. Allocates fresh traversal buffers; hot callers should hold an
/// [`ExecScratch`] and use [`execute_with`].
pub fn execute(db: &Database, plan: &PhysicalPlan) -> Result<(ResultSet, CostCounters), ExecError> {
    execute_with(db, plan, &mut ExecScratch::new())
}

/// [`execute`] against reusable traversal buffers.
pub fn execute_with(
    db: &Database,
    plan: &PhysicalPlan,
    scratch: &mut ExecScratch,
) -> Result<(ResultSet, CostCounters), ExecError> {
    let mut counters = CostCounters::new();
    // Root candidates: batch-produce, residual-filter the batch.
    produce(db, &plan.root, None, &mut counters, scratch.start(plan))?;
    while scratch.advance(db, plan, &mut counters)? {}
    Ok((scratch.finish(db, plan), counters))
}

/// Produces the candidate objects of the driving class access into `out`,
/// counting work and applying the residual filter over the batch. `rekey`
/// substitutes the index probe's value set (a batch probe's own key); a
/// sequential scan has no probe key to override.
pub(crate) fn produce(
    db: &Database,
    access: &ClassAccess,
    rekey: Option<&ValueSet>,
    counters: &mut CostCounters,
    out: &mut Vec<ObjectId>,
) -> Result<(), ExecError> {
    out.clear();
    match &access.path {
        AccessPath::SeqScan if rekey.is_some() => {
            return Err(ExecError::RootOverrideNeedsIndex(access.class));
        }
        AccessPath::SeqScan => {
            let n = db.cardinality(access.class);
            counters.seq_tuples += n as u64;
            if access.residual.is_empty() {
                out.extend((0..n as u32).map(ObjectId));
            } else {
                for (oid, tuple) in (0..).map(ObjectId).zip(db.tuples(access.class)) {
                    if eval_residual(access, tuple, counters)? {
                        out.push(oid);
                    }
                }
            }
            return Ok(());
        }
        AccessPath::Index { attr, set } => {
            let index = db.index(*attr).ok_or(ExecError::MissingIndex(*attr))?;
            let scan =
                index.probe(rekey.unwrap_or(set)).ok_or(ExecError::UnsupportedProbe(*attr))?;
            counters.index_probes += 1;
            counters.index_entries += scan.probes.saturating_sub(1);
            out.extend(scan.oids);
        }
    }
    retain_residual(db, access, counters, out)
}

/// Residual evaluation over a candidate slice: compacts `out` in place to
/// the objects passing every residual predicate.
fn retain_residual(
    db: &Database,
    access: &ClassAccess,
    counters: &mut CostCounters,
    out: &mut Vec<ObjectId>,
) -> Result<(), ExecError> {
    if access.residual.is_empty() {
        return Ok(());
    }
    let mut kept = 0usize;
    for i in 0..out.len() {
        let oid = out[i];
        if eval_residual(access, db.tuple(access.class, oid)?, counters)? {
            out[kept] = oid;
            kept += 1;
        }
    }
    out.truncate(kept);
    Ok(())
}

/// Whether `tuple`, an object of the accessed class, passes every residual
/// predicate.
fn eval_residual(
    access: &ClassAccess,
    tuple: &[Value],
    counters: &mut CostCounters,
) -> Result<bool, ExecError> {
    for p in &access.residual {
        counters.predicate_evals += 1;
        let v = match tuple.get(p.attr.attr.index()) {
            Some(v) if p.attr.class == access.class => v,
            _ => return Err(ExecError::MalformedPlan("residual is not on the accessed class")),
        };
        if !p.eval(v) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Fills `out` with the surviving bindings of one pointer-join step from the
/// current parent binding: link traversal, then batch residual evaluation,
/// then join and cycle-edge filters.
pub(crate) fn fill_step_level(
    db: &Database,
    step: &JoinStep,
    binding: &[(ClassId, ObjectId)],
    counters: &mut CostCounters,
    out: &mut Vec<ObjectId>,
) -> Result<(), ExecError> {
    let &(_, from_oid) = binding
        .iter()
        .find(|(c, _)| *c == step.from_class)
        .ok_or(ExecError::MalformedPlan("join step's from_class is not bound"))?;
    let targets = db.traverse(step.rel, step.from_class, from_oid)?;
    counters.link_traversals += targets.len() as u64;
    out.clear();
    out.extend_from_slice(targets);
    retain_residual(db, &step.access, counters, out)?;

    // Join filters: both sides bound now.
    if !step.join_filters.is_empty() {
        let mut kept = 0usize;
        'target: for i in 0..out.len() {
            let oid = out[i];
            for j in &step.join_filters {
                counters.predicate_evals += 1;
                let l = value_of(db, binding, step.access.class, oid, j.left)?;
                let r = value_of(db, binding, step.access.class, oid, j.right)?;
                if !j.eval(l, r) {
                    continue 'target;
                }
            }
            out[kept] = oid;
            kept += 1;
        }
        out.truncate(kept);
    }

    // Cycle edges: the pair must be linked in the extra relationship.
    if !step.link_filters.is_empty() {
        let mut kept = 0usize;
        'cycle: for i in 0..out.len() {
            let oid = out[i];
            for &(rel, a, b) in &step.link_filters {
                let (pivot_class, pivot_oid) = if a == step.access.class {
                    (a, oid)
                } else if b == step.access.class {
                    (b, oid)
                } else {
                    return Err(ExecError::MalformedPlan(
                        "link filter does not involve the step's class",
                    ));
                };
                let other_class = if pivot_class == a { b } else { a };
                let &(_, other_oid) = binding
                    .iter()
                    .find(|(c, _)| *c == other_class)
                    .ok_or(ExecError::MalformedPlan("link filter endpoint is not bound"))?;
                counters.link_traversals += 1;
                let neigh = db.traverse(rel, pivot_class, pivot_oid)?;
                if !neigh.contains(&other_oid) {
                    continue 'cycle;
                }
            }
            out[kept] = oid;
            kept += 1;
        }
        out.truncate(kept);
    }
    Ok(())
}

fn value_of<'db>(
    db: &'db Database,
    binding: &[(ClassId, ObjectId)],
    current_class: ClassId,
    current_oid: ObjectId,
    attr: AttrRef,
) -> Result<&'db Value, ExecError> {
    let oid = if attr.class == current_class {
        current_oid
    } else {
        binding
            .iter()
            .find(|(c, _)| *c == attr.class)
            .map(|(_, o)| *o)
            .ok_or(ExecError::MalformedPlan("join filter endpoint is not bound"))?
    };
    Ok(db.value(attr, oid)?)
}

fn project_value<'a>(
    db: &'a Database,
    projection: &'a Projection,
    binding: &[(ClassId, ObjectId)],
) -> Result<&'a Value, ExecError> {
    // A bound projection's value is known without touching the database —
    // exactly the saving the paper's restriction introduction enables.
    if let Some(v) = &projection.binding {
        return Ok(v);
    }
    let (_, oid) = binding
        .iter()
        .find(|(c, _)| *c == projection.attr.class)
        .ok_or(ExecError::MalformedPlan("projection class is not bound"))?;
    Ok(db.value(projection.attr, *oid)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::planner::plan_query;
    use sqo_catalog::example::figure21;
    use sqo_query::{CompOp, QueryBuilder};
    use sqo_storage::IntegrityOptions;
    use std::sync::Arc;

    fn db() -> Database {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        for i in 0..4 {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
        }
        for i in 0..6 {
            let desc = if i < 2 { "refrigerated truck" } else { "flatbed" };
            b.insert(vehicle, vec![Value::Int(i), Value::str(desc), Value::Int(i % 3)]).unwrap();
        }
        for i in 0..12i64 {
            let desc = if i % 2 == 0 { "frozen food" } else { "dry goods" };
            b.insert(cargo, vec![Value::Int(i), Value::str(desc), Value::Int(i)]).unwrap();
        }
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        for i in 0..12u32 {
            b.link(supplies, ObjectId(i), ObjectId(i % 4)).unwrap();
            b.link(collects, ObjectId(i), ObjectId(i % 6)).unwrap();
        }
        b.finalize(IntegrityOptions {
            enforce_total_participation: false,
            enforce_multiplicity: true,
        })
        .unwrap()
    }

    fn run(db: &Database, q: &sqo_query::Query) -> (ResultSet, CostCounters) {
        let plan = plan_query(db, q, &CostModel::default()).unwrap();
        execute(db, &plan).unwrap()
    }

    #[test]
    fn single_class_filter() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        assert_eq!(res.len(), 6);
        assert!(counters.seq_tuples >= 12, "{counters}");
        assert!(counters.predicate_evals >= 12);
    }

    #[test]
    fn index_probe_counts_less_work() {
        // Big enough that the planner prefers the index over a scan.
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        for i in 0..500 {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
        }
        let db = b
            .finalize(IntegrityOptions {
                enforce_total_participation: false,
                enforce_multiplicity: true,
            })
            .unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s1")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(counters.seq_tuples, 0);
        assert_eq!(counters.index_probes, 1);
    }

    #[test]
    fn tiny_extent_prefers_scan() {
        // On a 4-row extent the 2-page index descent loses to a 1-page scan;
        // the planner must notice.
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s1")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(counters.index_probes, 0);
        assert!(counters.seq_tuples > 0);
    }

    #[test]
    fn two_class_pointer_join() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .select("vehicle.vehicle_no")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .via("collects")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        // vehicles 0 and 1 are refrigerated; cargoes i with i%6 in {0,1}.
        assert_eq!(res.len(), 4);
        assert!(counters.link_traversals > 0);
    }

    #[test]
    fn three_class_chain_returns_consistent_rows() {
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
        let (res, _) = run(&db, &q);
        // cargoes with i%6 in {0,1} and i%4 == 0: i in {0, 4, 12...} ∩ [0,12): {0} i%6=0 ok; {4} i%6=4 no; {8} i%6=2 no.
        assert_eq!(res.len(), 1);
        assert_eq!(res.row(0)[1], Value::str("frozen food"));
    }

    #[test]
    fn bound_projection_emits_constant_without_fetch() {
        let db = db();
        let catalog = db.catalog().clone();
        let mut q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        q.projections.push(sqo_query::Projection::bound(
            catalog.attr_ref("cargo", "desc").unwrap(),
            Value::str("frozen food"),
        ));
        let (res, _) = run(&db, &q);
        assert_eq!(res.len(), 6);
        for row in res.rows() {
            assert_eq!(row[1], Value::str("frozen food"));
        }
    }

    #[test]
    fn join_filter_applies() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .join("cargo.quantity", CompOp::Lt, "vehicle.vehicle_no")
            .via("collects")
            .build()
            .unwrap();
        let (res, _) = run(&db, &q);
        // cargo i collected by vehicle i%6; need i < i%6 → i in {}: for i<6,
        // i%6 == i (never i<i); for i>=6, i%6 = i-6 < i. So no rows... wait:
        // condition is quantity < vehicle_no, quantity = i, vehicle_no = i%6.
        // i < i%6 is impossible, so empty.
        assert!(res.is_empty());
    }

    #[test]
    fn zero_projection_query_counts_the_extent() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog).access("cargo").build().unwrap();
        assert!(q.projections.is_empty());
        let (res, counters) = run(&db, &q);
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(res.len(), db.cardinality(cargo));
        assert_eq!(counters.tuples_out, 12);
    }

    #[test]
    fn deterministic_counters() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let (_, c1) = run(&db, &q);
        let (_, c2) = run(&db, &q);
        assert_eq!(c1, c2);
    }
}
