//! Physical query plans.
//!
//! The executor evaluates *pointer-join* plans, the natural shape for the
//! paper's OODB: one driving class accessed through a sequential scan or an
//! index, then one step per remaining class, each binding a new class by
//! chasing relationship links from an already-bound class. Selective
//! predicates run as residual filters at binding time; join predicates and
//! extra relationship edges (cycles) run as filters once both ends are bound.

use std::fmt;

use sqo_catalog::{AttrRef, Catalog, ClassId, RelId, Value};
use sqo_query::{JoinPredicate, Projection, SelPredicate, ValueSet};

use crate::error::ExecError;

/// The plan level of a class the plan does not bind
/// ([`PhysicalPlan::resolve_levels`]).
pub(crate) const UNBOUND: usize = usize::MAX;

/// How the driving class's objects are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full extent scan.
    SeqScan,
    /// Index probe with a value set (point or range).
    Index { attr: AttrRef, set: ValueSet },
}

/// Accessing one class: path plus residual filters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAccess {
    pub class: ClassId,
    pub path: AccessPath,
    /// Selective predicates evaluated on every produced object (for an index
    /// access, the indexed predicate itself is *not* repeated here).
    pub residual: Vec<SelPredicate>,
}

/// One pointer-join step: bind `access.class` by traversing `rel` from
/// `from_class` (already bound).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    pub rel: RelId,
    pub from_class: ClassId,
    pub access: ClassAccess,
    /// Join predicates checkable once this class is bound.
    pub join_filters: Vec<JoinPredicate>,
    /// Cycle edges: relationships whose both endpoints are bound after this
    /// step; the pair must be linked.
    pub link_filters: Vec<(RelId, ClassId, ClassId)>,
}

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    pub root: ClassAccess,
    pub steps: Vec<JoinStep>,
    pub projections: Vec<Projection>,
    /// Planner estimates (work units / rows) for diagnostics and the
    /// profitability oracle.
    pub estimated_cost: f64,
    pub estimated_rows: f64,
}

impl PhysicalPlan {
    /// Classes in binding order.
    pub fn binding_order(&self) -> Vec<ClassId> {
        self.bound_classes().collect()
    }

    /// [`PhysicalPlan::binding_order`] without the `Vec`. These are all the
    /// classes an execution reads: residuals, join filters, cycle edges and
    /// projections only ever touch a bound class, and a traversed
    /// relationship has both of its endpoint classes bound.
    pub fn bound_classes(&self) -> impl Iterator<Item = ClassId> + Clone + '_ {
        std::iter::once(self.root.class).chain(self.steps.iter().map(|s| s.access.class))
    }

    /// Whether some row of this plan may bind an object of `class` whose
    /// values, in attribute order, are `tuple`: `class` is bound, and the
    /// tuple passes the selections the executor applies where it is bound —
    /// the root's index value set and every residual of its access (a
    /// step's path is never probed). `false` means no execution on any
    /// state binds such an object. A value `tuple` lacks passes.
    pub fn admits(&self, class: ClassId, tuple: &[Value]) -> bool {
        let access = std::iter::once(&self.root)
            .chain(self.steps.iter().map(|s| &s.access))
            .find(|a| a.class == class);
        let Some(access) = access else { return false };
        let holds = |attr: AttrRef, test: &dyn Fn(&Value) -> bool| {
            tuple.get(attr.attr.index()).map_or(true, test)
        };
        let probed = match &access.path {
            AccessPath::Index { attr, set } if class == self.root.class => {
                holds(*attr, &|v| set.contains(v))
            }
            _ => true,
        };
        probed && access.residual.iter().all(|p| holds(p.attr, &|v| p.eval(v)))
    }

    /// Whether the executor can run this plan over `catalog`'s schema: each
    /// step's relationship joins its `from_class`, bound earlier, to the
    /// class the step binds; each cycle edge's relationship joins the step's
    /// class to one bound earlier; the root's index attribute and every
    /// residual are on the accessed class; join-filter and unbound
    /// projection attributes are on bound classes; and no class is bound
    /// twice. The executor checks this before reading any data, so a
    /// malformed plan fails the same way on every database.
    ///
    /// # Errors
    /// [`ExecError::MalformedPlan`] naming the first rule broken.
    pub fn check(&self, catalog: &Catalog) -> Result<(), ExecError> {
        self.resolve_levels(catalog, &mut Vec::new())
    }

    /// [`PhysicalPlan::check`], leaving in `level_of[class]` the plan level
    /// that binds each class of `catalog` (root 0, step `i` level `i + 1`,
    /// [`UNBOUND`] for the rest): the executor's once-per-execution
    /// resolution.
    pub(crate) fn resolve_levels(
        &self,
        catalog: &Catalog,
        level_of: &mut Vec<usize>,
    ) -> Result<(), ExecError> {
        level_of.clear();
        level_of.resize(catalog.class_count(), UNBOUND);
        bind(catalog, &self.root, 0, level_of)?;
        // Bound at `level` or earlier.
        let bound_by = |level_of: &[usize], class: ClassId, level: usize| {
            level_of.get(class.index()).is_some_and(|&l| l <= level)
        };
        for (i, step) in self.steps.iter().enumerate() {
            let class = step.access.class;
            let joins = catalog.relationship(step.rel).is_ok_and(|r| {
                bound_by(level_of, step.from_class, i)
                    && r.other_end(step.from_class) == Some(class)
            });
            if !joins {
                return Err(ExecError::MalformedPlan(
                    "a step's relationship does not join a bound from_class to its class",
                ));
            }
            bind(catalog, &step.access, i + 1, level_of)?;
            let on_bound =
                |a: AttrRef| bound_by(level_of, a.class, i + 1) && catalog.attr(a).is_ok();
            if !step.join_filters.iter().all(|j| on_bound(j.left) && on_bound(j.right)) {
                return Err(ExecError::MalformedPlan("a join filter reads an unbound class"));
            }
            let closes_cycle = |&(rel, a, b): &(RelId, ClassId, ClassId)| {
                let other = if a == class { b } else { a };
                let ends = catalog.relationship(rel).map(|r| r.classes());
                (a == class || b == class)
                    && bound_by(level_of, other, i)
                    && ends.is_ok_and(|ends| ends == (a, b) || ends == (b, a))
            };
            if !step.link_filters.iter().all(closes_cycle) {
                return Err(ExecError::MalformedPlan(
                    "a link filter does not join the step's class to a bound class",
                ));
            }
        }
        let last = self.steps.len();
        let reads_bound = |p: &Projection| {
            p.binding.is_some()
                || (bound_by(level_of, p.attr.class, last) && catalog.attr(p.attr).is_ok())
        };
        if !self.projections.iter().all(reads_bound) {
            return Err(ExecError::MalformedPlan("a projection reads an unbound class"));
        }
        Ok(())
    }

    /// Renders an EXPLAIN-style tree.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> PlanDisplay<'a> {
        PlanDisplay { plan: self, catalog }
    }
}

/// Binds `access.class` at `level`, after checking that its index attribute
/// and residuals are on that class.
fn bind(
    catalog: &Catalog,
    access: &ClassAccess,
    level: usize,
    level_of: &mut [usize],
) -> Result<(), ExecError> {
    let on_class = |attr: AttrRef| attr.class == access.class && catalog.attr(attr).is_ok();
    let probe_on_class = match &access.path {
        AccessPath::SeqScan => true,
        AccessPath::Index { attr, .. } => on_class(*attr),
    };
    if !probe_on_class || !access.residual.iter().all(|p| on_class(p.attr)) {
        return Err(ExecError::MalformedPlan(
            "an index probe or residual is not on the accessed class",
        ));
    }
    match level_of.get_mut(access.class.index()) {
        Some(slot) if *slot == UNBOUND => {
            *slot = level;
            Ok(())
        }
        Some(_) => Err(ExecError::MalformedPlan("a class is bound twice")),
        None => Err(ExecError::MalformedPlan("the plan binds a class outside the catalog")),
    }
}

/// EXPLAIN-style pretty printer.
#[derive(Debug)]
pub struct PlanDisplay<'a> {
    plan: &'a PhysicalPlan,
    catalog: &'a Catalog,
}

impl fmt::Display for PlanDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.catalog;
        let p = self.plan;
        writeln!(f, "Plan (est. cost {:.2}, est. rows {:.1})", p.estimated_cost, p.estimated_rows)?;
        match &p.root.path {
            AccessPath::SeqScan => writeln!(f, "  SeqScan {}", c.class_name(p.root.class))?,
            AccessPath::Index { attr, .. } => writeln!(
                f,
                "  IndexScan {} via {}",
                c.class_name(p.root.class),
                c.qualified_attr_name(*attr)
            )?,
        }
        for r in &p.root.residual {
            writeln!(f, "    filter {} {} {}", c.qualified_attr_name(r.attr), r.op, r.value)?;
        }
        for s in &p.steps {
            writeln!(
                f,
                "  PointerJoin {} -[{}]-> {}",
                c.class_name(s.from_class),
                c.rel_name(s.rel),
                c.class_name(s.access.class)
            )?;
            for r in &s.access.residual {
                writeln!(f, "    filter {} {} {}", c.qualified_attr_name(r.attr), r.op, r.value)?;
            }
            for j in &s.join_filters {
                writeln!(
                    f,
                    "    join-filter {} {} {}",
                    c.qualified_attr_name(j.left),
                    j.op,
                    c.qualified_attr_name(j.right)
                )?;
            }
            for (rel, a, b) in &s.link_filters {
                writeln!(
                    f,
                    "    link-filter {} between {} and {}",
                    c.rel_name(*rel),
                    c.class_name(*a),
                    c.class_name(*b)
                )?;
            }
        }
        write!(f, "  Project [")?;
        for (i, pr) in p.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", c.qualified_attr_name(pr.attr))?;
            if let Some(b) = &pr.binding {
                write!(f, "={b}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;
    use sqo_catalog::Value;
    use sqo_query::CompOp;

    #[test]
    fn binding_order_lists_root_first() {
        let cat = figure21().unwrap();
        let vehicle = cat.class_id("vehicle").unwrap();
        let cargo = cat.class_id("cargo").unwrap();
        let plan = PhysicalPlan {
            root: ClassAccess { class: vehicle, path: AccessPath::SeqScan, residual: vec![] },
            steps: vec![JoinStep {
                rel: cat.rel_id("collects").unwrap(),
                from_class: vehicle,
                access: ClassAccess { class: cargo, path: AccessPath::SeqScan, residual: vec![] },
                join_filters: vec![],
                link_filters: vec![],
            }],
            projections: vec![],
            estimated_cost: 1.0,
            estimated_rows: 1.0,
        };
        assert_eq!(plan.binding_order(), vec![vehicle, cargo]);
    }

    #[test]
    fn display_renders_tree() {
        let cat = figure21().unwrap();
        let vehicle = cat.class_id("vehicle").unwrap();
        let plan = PhysicalPlan {
            root: ClassAccess {
                class: vehicle,
                path: AccessPath::Index {
                    attr: cat.attr_ref("vehicle", "vehicle_no").unwrap(),
                    set: ValueSet::point(Value::Int(3)),
                },
                residual: vec![SelPredicate::new(
                    cat.attr_ref("vehicle", "desc").unwrap(),
                    CompOp::Eq,
                    Value::str("flatbed"),
                )],
            },
            steps: vec![],
            projections: vec![Projection::plain(cat.attr_ref("vehicle", "desc").unwrap())],
            estimated_cost: 3.5,
            estimated_rows: 1.0,
        };
        let s = plan.display(&cat).to_string();
        assert!(s.contains("IndexScan vehicle via vehicle.vehicle_no"), "{s}");
        assert!(s.contains("filter vehicle.desc = \"flatbed\""), "{s}");
        assert!(s.contains("Project [vehicle.desc]"), "{s}");
    }
}
