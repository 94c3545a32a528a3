//! Physical query plans.
//!
//! The executor evaluates *pointer-join* plans, the natural shape for the
//! paper's OODB: one driving class accessed through a sequential scan or an
//! index, then one step per remaining class, each binding a new class by
//! chasing relationship links from an already-bound class. Selective
//! predicates run as residual filters at binding time; join predicates and
//! extra relationship edges (cycles) run as filters once both ends are bound.

use std::fmt;

use sqo_catalog::{AttrRef, Catalog, ClassId, RelId};
use sqo_query::{JoinPredicate, Projection, SelPredicate, ValueSet};

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
    pub fn bound_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        std::iter::once(self.root.class).chain(self.steps.iter().map(|s| s.access.class))
    }

    /// Renders an EXPLAIN-style tree.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> PlanDisplay<'a> {
        PlanDisplay { plan: self, catalog }
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
