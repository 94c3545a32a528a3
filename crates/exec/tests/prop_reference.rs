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
//! edges and objects with no links, and scan roots of more than one
//! executor block (1,024 bindings). An access may carry a residual on each
//! of its two integer columns and one more on its integer `v`, string,
//! float or boolean column, under any of the six operators and with a
//! literal that no object holds or of another type than the column's;
//! whichever comes first on a scan root streams its column and the others
//! filter the survivors, as the step residuals do. So every typed residual
//! test the executor compiles, one per (column type, operator), and the
//! pass of a literal of another type run both ways. A join filter compares
//! two integer columns or an integer and a string column, which no
//! candidate passes.

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
        p.eval(&db.value(p.attr, oid).unwrap())
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
            .map(|p| p.binding.clone().unwrap_or_else(|| value(binding, p.attr)));
        rows.push(row.collect());
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
                j.eval(&value(binding, j.left), &value(binding, j.right))
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

/// Classes `a`–`d`, each with a B-tree-indexed `k`, a plain `v`, a string
/// `s`, a float `f` and a boolean `t`; many-to-many relationships `ab`,
/// `bc`, `ca` (a triangle) and `cd`.
fn catalog() -> Catalog {
    let mut b = Catalog::builder();
    let attrs = || {
        vec![
            AttributeDef::indexed("k", DataType::Int, IndexKind::BTree),
            AttributeDef::new("v", DataType::Int),
            AttributeDef::new("s", DataType::Str),
            AttributeDef::new("f", DataType::Float),
            AttributeDef::new("t", DataType::Bool),
        ]
    };
    let ids: Vec<ClassId> = ["a", "b", "c", "d"].map(|n| b.class(n, attrs()).unwrap()).to_vec();
    let many = |class| RelationshipEnd::new(class, Multiplicity::Many, false);
    for (name, l, r) in [("ab", 0, 1), ("bc", 1, 2), ("ca", 2, 0), ("cd", 2, 3)] {
        b.relationship(name, many(ids[l]), many(ids[r])).unwrap();
    }
    b.build().unwrap()
}

/// The strings `s` takes, by `j % 5`.
const STRINGS: [&str; 5] = ["", "a", "ab", "b", "ba"];

/// Object `j`'s float: -1, -0.5, 0, 0.5, 1 or 1.5 by `j % 6`.
fn float(j: i64) -> Value {
    Value::float((j % 6) as f64 * 0.5 - 1.0).unwrap()
}

/// Object `j` of a class holds `k = j % 7`, `v = 5j % 9`,
/// `s = STRINGS[j % 5]`, `f = float(j)` and `t = j % 3 == 0`. Left object
/// `j` of a relationship links to no right object when `j % 5 == 4` and
/// else to `1 + j % (max_fan + 1)` of them, `(j * stride + t * step) % n`
/// for `t` in order: a zero step repeats one edge.
fn db(catalog: &Arc<Catalog>, sizes: &[usize], fans: &[(usize, usize, usize)]) -> Database {
    let mut b = Database::builder(Arc::clone(catalog));
    for ((class, _), &n) in catalog.classes().zip(sizes) {
        for j in 0..n as i64 {
            let s = Value::str(STRINGS[j as usize % 5]);
            let row = vec![
                Value::Int(j % 7),
                Value::Int(5 * j % 9),
                s,
                float(j),
                Value::Bool(j % 3 == 0),
            ];
            b.insert(class, row).unwrap();
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
    b.finalize(IntegrityOptions).unwrap()
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
    /// Per class: a residual on `v`, `s`, `f` or `t` (attribute
    /// `1 + pick % 4`) with `OPS[op]` and the literal
    /// `typed_literal(attribute, pick / 4)`, or none when `op` is past the
    /// end.
    typed: Vec<(usize, usize)>,
    /// Whether the typed residual comes first, so that a scan root streams
    /// its column.
    typed_first: bool,
    /// Per step: a join filter `new.v <op> other.attr` (bound class and
    /// attribute — `k`, `v` or the string `s` — picked by the value), or
    /// none past the end.
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
        let (pick, op) = knobs.typed[class.index()];
        let typed = OPS.get(op).map(|&op| {
            let a = 1 + pick % 4;
            SelPredicate::new(attr(class, a), op, typed_literal(a, pick / 4))
        });
        let mut residual: Vec<SelPredicate> =
            [on(&knobs.residual_ops, 1, 4), on(&knobs.key_ops, 0, 3)]
                .into_iter()
                .flatten()
                .collect();
        if let Some(typed) = typed {
            let at = if knobs.typed_first { 0 } else { residual.len() };
            residual.insert(at, typed);
        }
        ClassAccess { class, path: AccessPath::SeqScan, residual }
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
                let other = attr(bound[knobs.joins[i] % bound.len()], knobs.joins[i] % 3);
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

/// Literal `i` (modulo the list) for a residual on attribute `attr` (1 =
/// `v`, 2 = `s`, 3 = `f`, 4 = `t`): values objects hold, one of the
/// column's type no object holds (`9`, `"zz"`, `0.25`), and one or two of
/// another type, which no value passes.
fn typed_literal(attr: usize, i: usize) -> Value {
    let f = |x: f64| Value::float(x).unwrap();
    let literals: Vec<Value> = match attr {
        1 => vec![Value::Int(0), Value::Int(4), Value::Int(9), Value::str("4"), Value::Bool(true)],
        2 => {
            ["", "a", "ab", "b", "zz"].map(Value::str).into_iter().chain([Value::Int(4)]).collect()
        }
        3 => vec![f(-1.0), f(-0.0), f(0.5), f(1.5), f(0.25), Value::str("a")],
        _ => vec![Value::Bool(false), Value::Bool(true), Value::Int(1)],
    };
    literals[i % literals.len()].clone()
}

fn rows_of(results: &sqo_exec::ResultSet) -> Vec<Vec<Value>> {
    results.rows().collect()
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

// The default configuration: 256 cases, or `PROPTEST_CASES` (CI runs 1,024
// optimized).
proptest! {
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
        typed in prop::collection::vec((0usize..24, 0usize..9), 4..5),
        typed_first in 0u8..2,
        joins in prop::collection::vec(0usize..36, 3..4),
        cycles in 0u8..3,
        projections in prop::collection::vec((0usize..4, 0usize..5, 0u8..4), 0..4),
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
            typed,
            typed_first: typed_first == 1,
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

    /// A scan root of two blocks and part of a third under three residuals,
    /// and at least one step, every access with a residual on each of its
    /// integer columns and one more on its `v`, string, float or boolean
    /// column: rows in emission order and every counter equal the
    /// reference's.
    #[test]
    fn conjunctive_residuals_match_the_recursive_reference(
        sizes in prop::collection::vec(0usize..24, 4..5),
        fans in prop::collection::vec((0usize..4, 0usize..5, 0usize..3), 4..5),
        root in 0usize..4,
        picks in prop::collection::vec(0usize..6, 1..4),
        residual_ops in prop::collection::vec(0usize..6, 4..5),
        key_ops in prop::collection::vec(0usize..6, 4..5),
        typed in prop::collection::vec((0usize..24, 0usize..6), 4..5),
        typed_first in 0u8..2,
        joins in prop::collection::vec(0usize..36, 3..4),
        cycles in 0u8..3,
        projections in prop::collection::vec((0usize..4, 0usize..5, 0u8..4), 0..4),
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
            typed,
            typed_first: typed_first == 1,
            joins,
            cycles,
            projections: projections.into_iter().map(|(c, a, b)| (c, a, b == 0)).collect(),
        };
        let plan = plan(&catalog, &knobs);
        prop_assert_eq!(plan.root.residual.len(), 3);
        prop_assert!(!plan.steps.is_empty());
        prop_assert!(plan.steps.iter().all(|step| step.access.residual.len() == 3));
        check(&db, &plan);
    }
}
