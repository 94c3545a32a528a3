//! Level-at-a-time executor for pointer-join plans.
//!
//! Every operation is counted in [`CostCounters`], which the cost model folds
//! into the work-unit figure the benchmarks report as "execution cost".
//!
//! A plan runs one level at a time. The root access fills level 0. For each
//! [`JoinStep`], one loop gathers the link targets of every binding of the
//! level above, each tagged with its parent's index there, and the gathered
//! candidates are filtered in place: by each residual in turn, then by the
//! join filters and cycle edges. The last level is emitted in order, each
//! projection read through its row's parent chain. No binding of a loop
//! waits on the one before it, so their link lookups and value reads overlap
//! in the memory system, where a depth-first walk would chain them one
//! binding at a time.
//!
//! Children are appended parent by parent, so the rows come out in exactly
//! the order — and the counters count exactly the operations — of the
//! natural recursive formulation (`tests/prop_reference.rs` holds both
//! against one). Root bindings are taken in blocks of [`BLOCK`], so the
//! levels below the root are bounded by the block rather than the extent.
//!
//! Before reading any data, an execution resolves which level binds each
//! class, and that resolution is the plan's shape check
//! ([`PhysicalPlan::check`]): a plan the executor cannot run fails with
//! [`ExecError::MalformedPlan`] whatever the data.
//!
//! The answer is built in the scratch too: each emitted row's projected
//! values are pushed onto one row-major buffer kept warm across executions,
//! and the finished answer moves them out with one allocation of exactly
//! their size (`drain(..).collect()`), so an execution allocates the same
//! whether it returns ten rows or ten thousand ([`ResultSet`]'s layout;
//! `tests/result_alloc.rs` holds that).
//!
//! Extents are stored a column per attribute, so every value read —
//! residuals, join filters, projections ([`Database::value`]) — is one hop
//! into the attribute's column. A sequential-scan root streams its first
//! residual's column page by page ([`Database::column`]); each further
//! residual, at the root as at a step, filters the survivors of the one
//! before it. A binding is tested by exactly the residuals a short-circuit
//! conjunction would test it by, so rows, their order and every counter are
//! those of evaluating the residuals binding by binding.

use std::ops::Range;

use sqo_catalog::{ClassId, Value};
use sqo_query::{SelPredicate, ValueSet};
use sqo_storage::{CostCounters, Database, ObjectId};

use crate::error::ExecError;
use crate::plan::{AccessPath, ClassAccess, JoinStep, PhysicalPlan};
use crate::result::ResultSet;

/// Root bindings run down the plan together: the levels below the root hold
/// the descendants of at most this many.
const BLOCK: usize = 1024;

/// The bindings of one plan level: each object with the index of its parent
/// binding in the level above (0 at the root).
type Level = Vec<(ObjectId, u32)>;

/// The reusable buffers of an execution: one level of bindings per plan
/// level, the class→level resolution, and the answer's emission buffer.
/// Keep one per worker thread; any plan shape can run against any scratch
/// (levels grow on demand and are cleared before use).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// levels[d] = the bindings of plan level `d` (root = 0); below the
    /// root, those of the current block.
    levels: Vec<Level>,
    /// level_of[class] = the plan level binding `class`.
    level_of: Vec<usize>,
    /// The projected values of the rows emitted so far, row-major.
    values: Vec<Value>,
}

impl ExecScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Executes `plan` against `db`, returning the result set and the operation
/// counters. Allocates fresh buffers; hot callers should hold an
/// [`ExecScratch`] and use [`execute_with`].
pub fn execute(db: &Database, plan: &PhysicalPlan) -> Result<(ResultSet, CostCounters), ExecError> {
    execute_with(db, plan, &mut ExecScratch::new())
}

/// [`execute`] against reusable buffers.
pub fn execute_with(
    db: &Database,
    plan: &PhysicalPlan,
    scratch: &mut ExecScratch,
) -> Result<(ResultSet, CostCounters), ExecError> {
    execute_rekeyed(db, plan, None, scratch)
}

/// [`execute_with`], with the root index probe's value set replaced by
/// `rekey` when given (a batch probe's own key).
pub(crate) fn execute_rekeyed(
    db: &Database,
    plan: &PhysicalPlan,
    rekey: Option<&ValueSet>,
    scratch: &mut ExecScratch,
) -> Result<(ResultSet, CostCounters), ExecError> {
    let ExecScratch { levels, level_of, values } = scratch;
    plan.resolve_levels(db.catalog(), level_of)?;
    let depths = plan.steps.len() + 1;
    if levels.len() < depths {
        levels.resize_with(depths, Vec::new);
    }
    let levels = &mut levels[..depths];
    let mut counters = CostCounters::new();
    values.clear();
    produce(db, &plan.root, rekey, &mut counters, &mut levels[0])?;
    let roots = levels[0].len();
    let mut rows = 0;
    for start in (0..roots).step_by(BLOCK) {
        let block = start..roots.min(start + BLOCK);
        rows += run_block(db, plan, levels, level_of, block, &mut counters, values)?;
    }
    counters.tuples_out += rows as u64;
    // Moved out at their exact size; `mem::take` would hand the warm
    // buffer's capacity to the answer instead.
    #[allow(clippy::drain_collect)]
    let values = values.drain(..).collect();
    Ok((ResultSet::of_plan(db, plan, values, rows), counters))
}

/// Runs the root bindings `block` down every step of `plan`, pushes the
/// projected values of the rows they reach onto `values`, and returns how
/// many rows that is.
fn run_block(
    db: &Database,
    plan: &PhysicalPlan,
    levels: &mut [Level],
    level_of: &[usize],
    block: Range<usize>,
    counters: &mut CostCounters,
    values: &mut Vec<Value>,
) -> Result<usize, ExecError> {
    let mut span = block;
    for (depth, step) in plan.steps.iter().enumerate() {
        let (above, below) = levels.split_at_mut(depth + 1);
        let out = &mut below[0];
        fill_level(db, step, above, level_of, span, counters, out)?;
        span = 0..out.len();
    }
    let last = plan.steps.len();
    for row in span.clone() {
        for p in &plan.projections {
            // A bound projection's value is known without touching the
            // database — exactly the saving the paper's restriction
            // introduction enables.
            let value = match &p.binding {
                Some(v) => v,
                None => {
                    db.value(p.attr, bound_at(levels, last, row, level_of[p.attr.class.index()]))?
                }
            };
            values.push(value.clone());
        }
    }
    Ok(span.len())
}

/// The object bound at level `want` in the parent chain of binding `index`
/// of level `level` (`want <= level`).
#[inline]
fn bound_at(levels: &[Level], mut level: usize, mut index: usize, want: usize) -> ObjectId {
    while level > want {
        index = levels[level][index].1 as usize;
        level -= 1;
    }
    levels[level][index].0
}

/// Fills `out` with the bindings of `step` below the bindings `parents` of
/// the last level of `above`: one loop gathers every parent's link targets,
/// parent by parent; the step's residuals filter them one predicate at a
/// time, and a last loop keeps those that pass its join filters, then its
/// cycle edges.
fn fill_level(
    db: &Database,
    step: &JoinStep,
    above: &[Level],
    level_of: &[usize],
    parents: Range<usize>,
    counters: &mut CostCounters,
    out: &mut Level,
) -> Result<(), ExecError> {
    let (class, depth, from) = (step.access.class, above.len() - 1, step.from_class);
    let forward = db.catalog().relationship(step.rel)?.left.class == from;
    let links = db.links(step.rel);
    out.clear();
    for parent in parents {
        let oid = bound_at(above, depth, parent, level_of[from.index()]);
        let targets = if forward { links.from_left(oid) } else { links.from_right(oid) };
        counters.link_traversals += targets.len() as u64;
        out.extend(targets.iter().map(|&target| (target, parent as u32)));
    }
    keep_passing(db, &step.access.residual, out, counters)?;
    if step.join_filters.is_empty() && step.link_filters.is_empty() {
        return Ok(());
    }

    // The object `c` is bound to in the chain of candidate `oid`.
    let bound = |c: ClassId, oid: ObjectId, parent: u32| {
        if c == class {
            oid
        } else {
            bound_at(above, depth, parent as usize, level_of[c.index()])
        }
    };
    let mut kept = 0usize;
    'candidate: for i in 0..out.len() {
        let (oid, parent) = out[i];
        for j in &step.join_filters {
            counters.predicate_evals += 1;
            let l = db.value(j.left, bound(j.left.class, oid, parent))?;
            let r = db.value(j.right, bound(j.right.class, oid, parent))?;
            if !j.eval(l, r) {
                continue 'candidate;
            }
        }
        // Cycle edges: the pair must be linked in the extra relationship.
        for &(rel, a, b) in &step.link_filters {
            let other = bound(if a == class { b } else { a }, oid, parent);
            counters.link_traversals += 1;
            if !db.traverse(rel, class, oid)?.contains(&other) {
                continue 'candidate;
            }
        }
        out[kept] = (oid, parent);
        kept += 1;
    }
    out.truncate(kept);
    Ok(())
}

/// Produces the candidate objects of the driving class access into `out`,
/// counting work and applying the residual filter over the batch. `rekey`
/// substitutes the index probe's value set (a batch probe's own key); a
/// sequential scan has no probe key to override.
fn produce(
    db: &Database,
    access: &ClassAccess,
    rekey: Option<&ValueSet>,
    counters: &mut CostCounters,
    out: &mut Level,
) -> Result<(), ExecError> {
    out.clear();
    match &access.path {
        AccessPath::SeqScan if rekey.is_some() => {
            Err(ExecError::RootOverrideNeedsIndex(access.class))
        }
        AccessPath::SeqScan => {
            let n = db.cardinality(access.class);
            counters.seq_tuples += n as u64;
            let oids = (0..n as u32).map(|i| (ObjectId(i), 0));
            match access.residual.split_first() {
                Some((first, rest)) if n > 0 => {
                    counters.predicate_evals += n as u64;
                    let column = db.column(first.attr)?;
                    let passing = oids.zip(column).filter(|(_, v)| first.eval(v));
                    out.extend(passing.map(|(root, _)| root));
                    keep_passing(db, rest, out, counters)
                }
                _ => {
                    out.extend(oids);
                    Ok(())
                }
            }
        }
        AccessPath::Index { attr, set } => {
            let index = db.index(*attr).ok_or(ExecError::MissingIndex(*attr))?;
            let scan =
                index.probe(rekey.unwrap_or(set)).ok_or(ExecError::UnsupportedProbe(*attr))?;
            counters.index_probes += 1;
            counters.index_entries += scan.probes.saturating_sub(1);
            out.extend(scan.oids.into_iter().map(|oid| (oid, 0)));
            keep_passing(db, &access.residual, out, counters)
        }
    }
}

/// Keeps the bindings of `level` whose objects pass every predicate of
/// `residual`, in order. Each predicate filters the survivors of the one
/// before it, so a binding is tested exactly as far as a short-circuit
/// conjunction tests it, and each pass reads one attribute's column.
fn keep_passing(
    db: &Database,
    residual: &[SelPredicate],
    level: &mut Level,
    counters: &mut CostCounters,
) -> Result<(), ExecError> {
    for p in residual {
        if level.is_empty() {
            break;
        }
        counters.predicate_evals += level.len() as u64;
        let mut kept = 0usize;
        for i in 0..level.len() {
            let binding = level[i];
            if p.eval(db.value(p.attr, binding.0)?) {
                level[kept] = binding;
                kept += 1;
            }
        }
        level.truncate(kept);
    }
    Ok(())
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

    /// A plan over `db()`'s classes, built by hand.
    fn hand_plan(
        root: ClassAccess,
        steps: Vec<JoinStep>,
        projections: Vec<sqo_query::Projection>,
    ) -> PhysicalPlan {
        PhysicalPlan { root, steps, projections, estimated_cost: 0.0, estimated_rows: 0.0 }
    }

    #[test]
    fn a_step_over_a_relationship_that_misses_its_class_is_refused() {
        // `supplies` joins cargo and supplier; stepping over it from cargo
        // "into vehicle" would read supplier ids as vehicles.
        let db = db();
        let c = db.catalog().clone();
        let (cargo, vehicle) = (c.class_id("cargo").unwrap(), c.class_id("vehicle").unwrap());
        let scan = |class| ClassAccess { class, path: AccessPath::SeqScan, residual: vec![] };
        let plan = hand_plan(
            scan(cargo),
            vec![JoinStep {
                rel: c.rel_id("supplies").unwrap(),
                from_class: cargo,
                access: scan(vehicle),
                join_filters: vec![],
                link_filters: vec![],
            }],
            vec![sqo_query::Projection::plain(c.attr_ref("vehicle", "desc").unwrap())],
        );
        assert!(matches!(execute(&db, &plan), Err(ExecError::MalformedPlan(_))));
        assert!(matches!(plan.check(&c), Err(ExecError::MalformedPlan(_))));
    }

    #[test]
    fn a_malformed_plan_is_refused_even_when_its_root_yields_nothing() {
        // The step joins from supplier, which no level binds; the root's
        // residual rejects every cargo, so no binding ever reaches the step.
        let db = db();
        let c = db.catalog().clone();
        let (cargo, vehicle) = (c.class_id("cargo").unwrap(), c.class_id("vehicle").unwrap());
        let nothing = sqo_query::SelPredicate::new(
            c.attr_ref("cargo", "desc").unwrap(),
            CompOp::Eq,
            Value::str("no such cargo"),
        );
        let plan = hand_plan(
            ClassAccess { class: cargo, path: AccessPath::SeqScan, residual: vec![nothing] },
            vec![JoinStep {
                rel: c.rel_id("collects").unwrap(),
                from_class: c.class_id("supplier").unwrap(),
                access: ClassAccess { class: vehicle, path: AccessPath::SeqScan, residual: vec![] },
                join_filters: vec![],
                link_filters: vec![],
            }],
            vec![],
        );
        assert!(matches!(execute(&db, &plan), Err(ExecError::MalformedPlan(_))));
    }
}
