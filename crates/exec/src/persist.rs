//! Plan-skeleton persistence: byte codec for [`PhysicalPlan`].
//!
//! A persisted plan is a *skeleton*: the access shapes, residuals, join
//! steps and cost estimates of the winning plan, exactly as the planner
//! emitted it. Rehydration produces a plan the executor can run directly;
//! whether it is still the *best* plan is governed by the snapshot's store
//! version and data epoch (the serving layer re-stamps seeds at warm
//! start and its epoch gates re-derive when either epoch moves on).

#![deny(missing_docs)]

use sqo_catalog::{ClassId, RelId};
use sqo_snapshot::{
    read_attr_ref, read_join_predicate, read_projection, read_sel_predicate, read_value_set,
    write_attr_ref, write_join_predicate, write_projection, write_sel_predicate, write_value_set,
    ByteReader, ByteWriter, LoadError,
};

use crate::plan::{AccessPath, ClassAccess, JoinStep, PhysicalPlan};

fn write_class_access(w: &mut ByteWriter, a: &ClassAccess) {
    w.u32(a.class.0);
    match &a.path {
        AccessPath::SeqScan => w.u8(0),
        AccessPath::Index { attr, set } => {
            w.u8(1);
            write_attr_ref(w, *attr);
            write_value_set(w, set);
        }
    }
    w.u32(a.residual.len() as u32);
    for p in &a.residual {
        write_sel_predicate(w, p);
    }
}

fn read_class_access(r: &mut ByteReader<'_>) -> Result<ClassAccess, LoadError> {
    let class = ClassId(r.u32()?);
    let path = match r.u8()? {
        0 => AccessPath::SeqScan,
        1 => AccessPath::Index { attr: read_attr_ref(r)?, set: read_value_set(r)? },
        t => return Err(r.malformed(format!("unknown access-path tag {t}"))),
    };
    let mut residual = Vec::new();
    for _ in 0..r.count()? {
        residual.push(read_sel_predicate(r)?);
    }
    Ok(ClassAccess { class, path, residual })
}

/// Encodes a [`PhysicalPlan`] skeleton.
pub fn write_plan(w: &mut ByteWriter, plan: &PhysicalPlan) {
    write_class_access(w, &plan.root);
    w.u32(plan.steps.len() as u32);
    for s in &plan.steps {
        w.u32(s.rel.0);
        w.u32(s.from_class.0);
        write_class_access(w, &s.access);
        w.u32(s.join_filters.len() as u32);
        for p in &s.join_filters {
            write_join_predicate(w, p);
        }
        w.u32(s.link_filters.len() as u32);
        for (rel, a, b) in &s.link_filters {
            w.u32(rel.0);
            w.u32(a.0);
            w.u32(b.0);
        }
    }
    w.u32(plan.projections.len() as u32);
    for p in &plan.projections {
        write_projection(w, p);
    }
    w.f64(plan.estimated_cost);
    w.f64(plan.estimated_rows);
}

/// Decodes a [`PhysicalPlan`] skeleton.
///
/// # Errors
/// [`LoadError::Malformed`] on any structural problem. Whether the plan
/// fits a concrete catalog is [`PhysicalPlan::check`]'s question, which
/// the caller asks.
pub fn read_plan(r: &mut ByteReader<'_>) -> Result<PhysicalPlan, LoadError> {
    let root = read_class_access(r)?;
    let mut steps = Vec::new();
    for _ in 0..r.count()? {
        let rel = RelId(r.u32()?);
        let from_class = ClassId(r.u32()?);
        let access = read_class_access(r)?;
        let mut join_filters = Vec::new();
        for _ in 0..r.count()? {
            join_filters.push(read_join_predicate(r)?);
        }
        let mut link_filters = Vec::new();
        for _ in 0..r.count()? {
            link_filters.push((RelId(r.u32()?), ClassId(r.u32()?), ClassId(r.u32()?)));
        }
        steps.push(JoinStep { rel, from_class, access, join_filters, link_filters });
    }
    let mut projections = Vec::new();
    for _ in 0..r.count()? {
        projections.push(read_projection(r)?);
    }
    let estimated_cost = r.f64()?;
    let estimated_rows = r.f64()?;
    Ok(PhysicalPlan { root, steps, projections, estimated_cost, estimated_rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttrId, AttrRef, Value};
    use sqo_query::{CompOp, JoinPredicate, Projection, SelPredicate, ValueSet};

    #[test]
    fn plan_skeleton_roundtrips() {
        let a = AttrRef::new(ClassId(0), AttrId(1));
        let b = AttrRef::new(ClassId(1), AttrId(0));
        let plan = PhysicalPlan {
            root: ClassAccess {
                class: ClassId(0),
                path: AccessPath::Index { attr: a, set: ValueSet::point(Value::str("x")) },
                residual: vec![SelPredicate::new(a, CompOp::Ne, Value::Int(3))],
            },
            steps: vec![JoinStep {
                rel: RelId(2),
                from_class: ClassId(0),
                access: ClassAccess {
                    class: ClassId(1),
                    path: AccessPath::SeqScan,
                    residual: vec![],
                },
                join_filters: vec![JoinPredicate::new(a, CompOp::Le, b)],
                link_filters: vec![(RelId(0), ClassId(0), ClassId(1))],
            }],
            projections: vec![Projection { attr: b, binding: None }],
            estimated_cost: 123.5,
            estimated_rows: 17.25,
        };
        let mut w = ByteWriter::new();
        write_plan(&mut w, &plan);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        let out = read_plan(&mut r).unwrap();
        r.expect_exhausted().unwrap();
        assert_eq!(out, plan);
    }

    #[test]
    fn truncated_plan_is_malformed() {
        let plan = PhysicalPlan {
            root: ClassAccess { class: ClassId(0), path: AccessPath::SeqScan, residual: vec![] },
            steps: vec![],
            projections: vec![],
            estimated_cost: 1.0,
            estimated_rows: 1.0,
        };
        let mut w = ByteWriter::new();
        write_plan(&mut w, &plan);
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut], "TEST");
            assert!(read_plan(&mut r).is_err(), "cut at {cut} decoded");
        }
    }
}
