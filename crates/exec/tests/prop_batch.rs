//! Property test: the batched executor is observationally identical to the
//! sequential one. For arbitrary database populations, plan shapes and
//! probe sets (including the degenerate K = 1 batch), every probe of
//! [`execute_batch_with`] must reproduce its stand-alone
//! [`execute_with`] run exactly — result rows *in emission order* and
//! per-probe [`CostCounters`] alike — against the stand-alone plan
//! [`ProbeBinding::apply`] derives.

use proptest::prelude::*;
use std::sync::Arc;

use sqo_catalog::{example::figure21, Value};
use sqo_exec::{
    execute_batch_with, execute_with, plan_query, AccessPath, BatchExecScratch, CostModel,
    ExecScratch, ProbeBinding,
};
use sqo_query::{CompOp, Query, QueryBuilder, ValueSet};
use sqo_storage::{Database, IntegrityOptions, ObjectId};

/// A logistics instance with arbitrary extents and link strides. Every
/// cargo keeps exactly one supplies/collects link and every vehicle one
/// engine and one driver, so the catalog's declarations hold for any
/// stride choice.
fn db(
    suppliers: usize,
    vehicles: usize,
    cargoes: usize,
    s_stride: usize,
    v_stride: usize,
) -> Database {
    let catalog = Arc::new(figure21().unwrap());
    let mut b = Database::builder(Arc::clone(&catalog));
    let supplier = catalog.class_id("supplier").unwrap();
    let cargo = catalog.class_id("cargo").unwrap();
    let vehicle = catalog.class_id("vehicle").unwrap();
    for i in 0..suppliers {
        b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
    }
    // Each vehicle has its own engine and one shared driver.
    let license = [Value::Int(0), Value::Int(9), Value::Int(0)];
    let tuple = [Value::str("d"), Value::str("x"), Value::str("x")].into_iter().chain(license);
    let driver = b.insert(catalog.class_id("driver").unwrap(), tuple.collect()).unwrap();
    let engine = catalog.class_id("engine").unwrap();
    for i in 0..vehicles {
        let desc = if i % 2 == 0 { "refrigerated truck" } else { "flatbed" };
        let v = b
            .insert(
                vehicle,
                vec![Value::Int(i as i64), Value::str(desc), Value::Int((i % 3) as i64)],
            )
            .unwrap();
        let e = b.insert(engine, vec![Value::Int(i as i64), Value::Int(1)]).unwrap();
        b.link(catalog.rel_id("eng_comp").unwrap(), v, e).unwrap();
        b.link(catalog.rel_id("drives").unwrap(), v, driver).unwrap();
    }
    for i in 0..cargoes {
        let desc = if i % 3 == 0 { "frozen food" } else { "dry goods" };
        b.insert(cargo, vec![Value::Int(i as i64), Value::str(desc), Value::Int(i as i64)])
            .unwrap();
    }
    let supplies = catalog.rel_id("supplies").unwrap();
    let collects = catalog.rel_id("collects").unwrap();
    for i in 0..cargoes {
        b.link(supplies, ObjectId(i as u32), ObjectId(((i * s_stride + i) % suppliers) as u32))
            .unwrap();
        b.link(collects, ObjectId(i as u32), ObjectId(((i * v_stride) % vehicles) as u32)).unwrap();
    }
    b.finalize(IntegrityOptions).unwrap()
}

/// One of four plan shapes (single class, two 2-class chains, the 3-class
/// chain), with optional filters per class drawn from the generated flags.
fn query(
    db: &Database,
    shape: u8,
    filter_cargo: bool,
    filter_vehicle: bool,
    supplier_pick: usize,
) -> Query {
    let catalog = db.catalog().clone();
    let mut qb = QueryBuilder::new(&catalog).select("cargo.code");
    if filter_cargo {
        qb = qb.filter("cargo.desc", CompOp::Eq, "frozen food");
    }
    match shape % 4 {
        0 => {}
        1 => {
            qb = qb.select("vehicle.vehicle_no").via("collects");
            if filter_vehicle {
                qb = qb.filter("vehicle.desc", CompOp::Eq, "refrigerated truck");
            }
        }
        2 => {
            qb = qb.select("supplier.address").via("supplies").filter(
                "supplier.name",
                CompOp::Eq,
                Value::str(format!("s{supplier_pick}")),
            );
        }
        _ => {
            qb = qb.select("vehicle.vehicle_no").via("collects").via("supplies").filter(
                "supplier.name",
                CompOp::Eq,
                Value::str(format!("s{supplier_pick}")),
            );
            if filter_vehicle {
                qb = qb.filter("vehicle.desc", CompOp::Eq, "flatbed");
            }
        }
    }
    qb.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched ≡ sequential over arbitrary populations, shapes and widths
    /// (width 1 included), with one scratch recycled across every case.
    #[test]
    fn batch_matches_sequential(
        suppliers in 1usize..12,
        vehicles in 1usize..10,
        cargoes in 0usize..24,
        s_stride in 0usize..7,
        v_stride in 0usize..7,
        shape in 0u8..4,
        filter_cargo in 0u8..2,
        filter_vehicle in 0u8..2,
        widths in prop::collection::vec(1usize..6, 1..3),
    ) {
        let db = db(suppliers, vehicles, cargoes, s_stride, v_stride);
        let q = query(&db, shape, filter_cargo == 1, filter_vehicle == 1, suppliers / 2);
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        let mut scratch = BatchExecScratch::new();
        let mut seq_scratch = ExecScratch::new();
        for width in widths {
            let probes = vec![ProbeBinding::AsPlanned; width];
            let batched = execute_batch_with(&db, &plan, &probes, &mut scratch).unwrap();
            prop_assert_eq!(batched.len(), width);
            for (probe, (rows, counters)) in probes.iter().zip(&batched) {
                let solo = probe.apply(&plan).unwrap();
                let (want_rows, want_counters) =
                    execute_with(&db, &solo, &mut seq_scratch).unwrap();
                prop_assert_eq!(rows.rows().collect::<Vec<_>>(), want_rows.rows().collect::<Vec<_>>());
                prop_assert_eq!(counters, &want_counters);
            }
        }
    }

    /// Re-keyed root probes (the parameterized-batch shape): each probe of
    /// a mixed AsPlanned/RootSet batch over an index-rooted plan matches
    /// the stand-alone plan its binding derives.
    #[test]
    fn rekeyed_batch_matches_sequential(
        suppliers in 40usize..200,
        keys in prop::collection::vec(0usize..220, 1..9),
        mix in prop::collection::vec(0u8..2, 1..9),
    ) {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        for i in 0..suppliers {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
        }
        let db = b
            .finalize(IntegrityOptions)
            .unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s1")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        prop_assume!(matches!(plan.root.path, AccessPath::Index { .. }));
        // Keys beyond the extent probe for absent values on purpose.
        let probes: Vec<ProbeBinding> = keys
            .iter()
            .zip(mix.iter().cycle())
            .map(|(&k, &as_planned)| {
                if as_planned == 1 {
                    ProbeBinding::AsPlanned
                } else {
                    ProbeBinding::RootSet(ValueSet::point(Value::str(format!("s{k}"))))
                }
            })
            .collect();
        let batched =
            execute_batch_with(&db, &plan, &probes, &mut BatchExecScratch::new()).unwrap();
        for (probe, (rows, counters)) in probes.iter().zip(&batched) {
            let solo = probe.apply(&plan).unwrap();
            let (want_rows, want_counters) =
                execute_with(&db, &solo, &mut ExecScratch::new()).unwrap();
            prop_assert_eq!(rows.rows().collect::<Vec<_>>(), want_rows.rows().collect::<Vec<_>>());
            prop_assert_eq!(counters, &want_counters);
        }
    }
}
