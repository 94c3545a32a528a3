//! Property test: the executor runs a plan exactly as the natural recursive
//! formulation does — bind the root's candidates one at a time and, under
//! each binding, recurse into the next step's link targets that pass its
//! residuals, join filters and cycle edges. Rows must come out in the same
//! order, and every [`CostCounters`] field must count the same operations.
//!
//! Plans are built by hand over a four-class schema with a relationship
//! triangle, so they cover shapes the planner may never pick: any root, any
//! bound `from_class`, cycle edges, join filters between any bound classes,
//! bound and zero projections, index roots re-keyed through
//! [`execute_batch_with`], empty roots, fan relationships with duplicate
//! edges, and scan roots of more than one executor block (1,024 bindings).
//! An access may carry a residual on each of its two columns, so a scan
//! root's first residual streams its column and the second filters the
//! survivors, as the step residuals do.

use std::sync::Arc;

use proptest::prelude::*;
use sqo_catalog::{
    AttrRef, AttributeDef, Catalog, ClassId, DataType, IndexKind, Multiplicity, RelId,
    RelationshipEnd, Value,
};
use sqo_exec::{
    execute_batch_with, execute_with, AccessPath, BatchExecScratch, ClassAccess, ExecScratch,
    JoinStep, PhysicalPlan, ProbeBinding,
};
use sqo_query::{CompOp, JoinPredicate, Projection, SelPredicate, ValueSet};
use sqo_storage::{CostCounters, Database, IntegrityOptions, ObjectId};

type Binding = Vec<(ClassId, ObjectId)>;

/// The reference executor: the recursive formulation, one binding at a time.
fn reference(db: &Database, plan: &PhysicalPlan) -> (Vec<Vec<Value>>, CostCounters) {
    let mut c = CostCounters::new();
    let roots = match &plan.root.path {
        AccessPath::SeqScan => {
            c.seq_tuples += db.cardinality(plan.root.class) as u64;
            (0..db.cardinality(plan.root.class) as u32).map(ObjectId).collect()
        }
        AccessPath::Index { attr, set } => {
            let scan = db.index(*attr).unwrap().probe(set).unwrap();
            c.index_probes += 1;
            c.index_entries += scan.probes.saturating_sub(1);
            scan.oids
        }
    };
    let mut rows = Vec::new();
    for oid in roots {
        if residuals(db, &plan.root, oid, &mut c) {
            descend(db, plan, &mut vec![(plan.root.class, oid)], &mut c, &mut rows);
        }
    }
    (rows, c)
}

fn residuals(db: &Database, access: &ClassAccess, oid: ObjectId, c: &mut CostCounters) -> bool {
    access.residual.iter().all(|p| {
        c.predicate_evals += 1;
        p.eval(db.value(p.attr, oid).unwrap())
    })
}

fn bound(binding: &[(ClassId, ObjectId)], class: ClassId) -> ObjectId {
    binding.iter().find(|(c, _)| *c == class).unwrap().1
}

fn descend(
    db: &Database,
    plan: &PhysicalPlan,
    binding: &mut Binding,
    c: &mut CostCounters,
    rows: &mut Vec<Vec<Value>>,
) {
    let value = |binding: &Binding, a: AttrRef| db.value(a, bound(binding, a.class)).unwrap();
    let Some(step) = plan.steps.get(binding.len() - 1) else {
        c.tuples_out += 1;
        let row = plan
            .projections
            .iter()
            .map(|p| p.binding.as_ref().unwrap_or_else(|| value(binding, p.attr)));
        rows.push(row.cloned().collect());
        return;
    };
    let class = step.access.class;
    let targets = db.traverse(step.rel, step.from_class, bound(binding, step.from_class)).unwrap();
    c.link_traversals += targets.len() as u64;
    for &oid in targets {
        binding.push((class, oid));
        let pass = residuals(db, &step.access, oid, c)
            && step.join_filters.iter().all(|j| {
                c.predicate_evals += 1;
                j.eval(value(binding, j.left), value(binding, j.right))
            })
            && step.link_filters.iter().all(|&(rel, a, b)| {
                c.link_traversals += 1;
                let other = bound(binding, if a == class { b } else { a });
                db.traverse(rel, class, oid).unwrap().contains(&other)
            });
        if pass {
            descend(db, plan, binding, c, rows);
        }
        binding.pop();
    }
}

/// Classes `a`–`d`, each with a B-tree-indexed `k` and a plain `v`;
/// many-to-many relationships `ab`, `bc`, `ca` (a triangle) and `cd`.
fn catalog() -> Catalog {
    let mut b = Catalog::builder();
    let attrs = || {
        vec![
            AttributeDef::indexed("k", DataType::Int, IndexKind::BTree),
            AttributeDef::new("v", DataType::Int),
        ]
    };
    let ids: Vec<ClassId> = ["a", "b", "c", "d"].map(|n| b.class(n, attrs()).unwrap()).to_vec();
    let many = |class| RelationshipEnd::new(class, Multiplicity::Many, false);
    for (name, l, r) in [("ab", 0, 1), ("bc", 1, 2), ("ca", 2, 0), ("cd", 2, 3)] {
        b.relationship(name, many(ids[l]), many(ids[r])).unwrap();
    }
    b.build().unwrap()
}

/// Object `j` of a class holds `k = j % 7` and `v = 5j % 9`. Left object
/// `j` of a relationship links to no right object when `j % 5 == 4` and
/// else to `1 + j % (max_fan + 1)` of them, `(j * stride + t * step) % n`
/// for `t` in order: a zero step repeats one edge.
fn db(catalog: &Arc<Catalog>, sizes: &[usize], fans: &[(usize, usize, usize)]) -> Database {
    let mut b = Database::builder(Arc::clone(catalog));
    for ((class, _), &n) in catalog.classes().zip(sizes) {
        for j in 0..n as i64 {
            b.insert(class, vec![Value::Int(j % 7), Value::Int(5 * j % 9)]).unwrap();
        }
    }
    for ((rel, def), &(max_fan, stride, step)) in catalog.relationships().zip(fans) {
        let (left, right) = (sizes[def.left.class.index()], sizes[def.right.class.index()]);
        for j in (0..left).filter(|_| right > 0) {
            let fan = if j % 5 == 4 { 0 } else { 1 + j % (max_fan + 1) };
            for t in 0..fan {
                let target = (j * stride + t * step) % right;
                b.link(rel, ObjectId(j as u32), ObjectId(target as u32)).unwrap();
            }
        }
    }
    b.finalize(IntegrityOptions { enforce_total_participation: false, enforce_multiplicity: false })
        .unwrap()
}

const OPS: [CompOp; 6] = [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];

/// The knobs one generated plan is built from.
struct Knobs {
    root: usize,
    /// Index root probing `k` for this key, as a point (even) or an upper
    /// bound (odd); `None` scans.
    probe: Option<i64>,
    /// Which open relationship each step takes (modulo the open ones).
    picks: Vec<usize>,
    /// Per class: a residual `v <op> 4` with `OPS[op]`, or none past the end.
    residual_ops: Vec<usize>,
    /// Per class: a further residual `k <op> 3`, or none past the end.
    key_ops: Vec<usize>,
    /// Per step: a join filter `new.v <op> other.attr` (bound class and
    /// attribute picked by the value), or none past the end.
    joins: Vec<usize>,
    /// Whether steps close every cycle they can, and from which side.
    cycles: u8,
    /// (class pick, attribute, bound?) per projection.
    projections: Vec<(usize, usize, bool)>,
}

fn plan(catalog: &Catalog, knobs: &Knobs) -> PhysicalPlan {
    let classes: Vec<ClassId> = catalog.classes().map(|(c, _)| c).collect();
    let attr = |class: ClassId, i: usize| AttrRef::new(class, sqo_catalog::AttrId(i as u32));
    let access = |class: ClassId| {
        let on = |ops: &[usize], a: usize, constant: i64| {
            let op = *OPS.get(ops[class.index()])?;
            Some(SelPredicate::new(attr(class, a), op, Value::Int(constant)))
        };
        let residual = [on(&knobs.residual_ops, 1, 4), on(&knobs.key_ops, 0, 3)];
        ClassAccess {
            class,
            path: AccessPath::SeqScan,
            residual: residual.into_iter().flatten().collect(),
        }
    };
    let mut root = access(classes[knobs.root]);
    if let Some(key) = knobs.probe {
        let set = if key % 2 == 0 {
            ValueSet::point(Value::Int(key))
        } else {
            ValueSet::at_most(Value::Int(key))
        };
        root.path = AccessPath::Index { attr: attr(root.class, 0), set };
    }
    let mut bound = vec![root.class];
    let mut steps = Vec::new();
    for (i, &pick) in knobs.picks.iter().enumerate() {
        let open: Vec<(RelId, ClassId, ClassId)> = catalog
            .relationships()
            .filter_map(|(rel, def)| {
                let (l, r) = def.classes();
                match (bound.contains(&l), bound.contains(&r)) {
                    (true, false) => Some((rel, l, r)),
                    (false, true) => Some((rel, r, l)),
                    _ => None,
                }
            })
            .collect();
        let Some(&(rel, from_class, to)) = open.get(pick % open.len().max(1)) else { break };
        bound.push(to);
        let join_filters = (knobs.joins[i] < 3 * bound.len())
            .then(|| {
                let other = attr(bound[knobs.joins[i] % bound.len()], knobs.joins[i] % 2);
                JoinPredicate::new(attr(to, 1), OPS[knobs.joins[i] % OPS.len()], other)
            })
            .into_iter()
            .collect();
        let link_filters = catalog
            .relationships()
            .filter(|&(r, def)| {
                let (l, rr) = def.classes();
                knobs.cycles > 0
                    && r != rel
                    && (l == to || rr == to)
                    && bound.contains(&l)
                    && bound.contains(&rr)
            })
            .map(|(r, def)| {
                let (l, rr) = def.classes();
                if knobs.cycles == 1 {
                    (r, l, rr)
                } else {
                    (r, rr, l)
                }
            })
            .collect();
        steps.push(JoinStep { rel, from_class, access: access(to), join_filters, link_filters });
    }
    let projections = knobs
        .projections
        .iter()
        .map(|&(class, i, is_bound)| {
            let a = attr(bound[class % bound.len()], i);
            if is_bound {
                Projection::bound(a, Value::Int(-1))
            } else {
                Projection::plain(a)
            }
        })
        .collect();
    PhysicalPlan { root, steps, projections, estimated_cost: 0.0, estimated_rows: 0.0 }
}

fn rows_of(results: &sqo_exec::ResultSet) -> Vec<Vec<Value>> {
    results.rows().map(<[Value]>::to_vec).collect()
}

/// Runs `plan` on a scratch that already ran the previous case's plan and
/// compares its rows, in order, and counters with the reference's.
fn check(db: &Database, plan: &PhysicalPlan) {
    plan.check(db.catalog()).unwrap();
    let (want_rows, want_counters) = reference(db, plan);
    thread_local! {
        static SCRATCH: std::cell::RefCell<ExecScratch> = Default::default();
    }
    let (got, counters) = SCRATCH.with(|s| execute_with(db, plan, &mut s.borrow_mut())).unwrap();
    prop_assert_eq!(rows_of(&got), want_rows);
    prop_assert_eq!(counters, want_counters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The executor ≡ the recursive reference, rows in order and counters,
    /// on a scratch that already ran the previous case's plan; and so is
    /// every re-keyed probe of an index-rooted plan.
    #[test]
    fn executor_matches_the_recursive_reference(
        sizes in prop::collection::vec(0usize..24, 4..5),
        big_root in 0u8..3,
        fans in prop::collection::vec((0usize..4, 0usize..5, 0usize..3), 4..5),
        root in 0usize..4,
        probe in 0i64..20,
        picks in prop::collection::vec(0usize..6, 0..4),
        residual_ops in prop::collection::vec(0usize..14, 4..5),
        key_ops in prop::collection::vec(0usize..14, 4..5),
        joins in prop::collection::vec(0usize..36, 3..4),
        cycles in 0u8..3,
        projections in prop::collection::vec((0usize..4, 0usize..2, 0u8..4), 0..4),
        rekeys in prop::collection::vec(0i64..10, 0..4),
    ) {
        let catalog = Arc::new(catalog());
        let mut sizes = sizes;
        if big_root == 0 {
            // Two blocks and part of a third.
            sizes[root] += 2_300;
        }
        let db = db(&catalog, &sizes, &fans);
        let knobs = Knobs {
            root,
            probe: (probe < 10).then_some(probe),
            picks,
            residual_ops,
            key_ops,
            joins,
            cycles,
            projections: projections.into_iter().map(|(c, a, b)| (c, a, b == 0)).collect(),
        };
        let plan = plan(&catalog, &knobs);
        check(&db, &plan);

        if matches!(plan.root.path, AccessPath::Index { .. }) {
            let probes: Vec<ProbeBinding> = rekeys
                .iter()
                .map(|&k| ProbeBinding::RootSet(ValueSet::point(Value::Int(k))))
                .chain([ProbeBinding::AsPlanned])
                .collect();
            let batched =
                execute_batch_with(&db, &plan, &probes, &mut BatchExecScratch::new()).unwrap();
            for (probe, (got, counters)) in probes.iter().zip(&batched) {
                let (want_rows, want_counters) = reference(&db, &probe.apply(&plan).unwrap());
                prop_assert_eq!(rows_of(got), want_rows);
                prop_assert_eq!(counters, &want_counters);
            }
        }
    }

    /// A scan root of two blocks and part of a third under two residuals,
    /// and at least one step, every access with a residual on each of its
    /// two columns: rows in emission order and every counter equal the
    /// reference's.
    #[test]
    fn conjunctive_residuals_match_the_recursive_reference(
        sizes in prop::collection::vec(0usize..24, 4..5),
        fans in prop::collection::vec((0usize..4, 0usize..5, 0usize..3), 4..5),
        root in 0usize..4,
        picks in prop::collection::vec(0usize..6, 1..4),
        residual_ops in prop::collection::vec(0usize..6, 4..5),
        key_ops in prop::collection::vec(0usize..6, 4..5),
        joins in prop::collection::vec(0usize..36, 3..4),
        cycles in 0u8..3,
        projections in prop::collection::vec((0usize..4, 0usize..2, 0u8..4), 0..4),
    ) {
        let catalog = Arc::new(catalog());
        let mut sizes = sizes;
        sizes[root] += 2_300;
        let db = db(&catalog, &sizes, &fans);
        let knobs = Knobs {
            root,
            probe: None,
            picks,
            residual_ops,
            key_ops,
            joins,
            cycles,
            projections: projections.into_iter().map(|(c, a, b)| (c, a, b == 0)).collect(),
        };
        let plan = plan(&catalog, &knobs);
        prop_assert_eq!(plan.root.residual.len(), 2);
        prop_assert!(!plan.steps.is_empty());
        prop_assert!(plan.steps.iter().all(|step| step.access.residual.len() == 2));
        check(&db, &plan);
    }
}
