//! Cached plans follow the statistics: an expired memo has its rewrite
//! planned again on the snapshot it re-executes on, and a different plan
//! replaces the cached one.

use std::sync::Arc;

use sqo_catalog::{example::figure21, Value};
use sqo_constraints::{ConstraintStore, StoreOptions};
use sqo_exec::{execute, plan_query, CostModel};
use sqo_query::{CompOp, Query, QueryBuilder};
use sqo_service::QueryService;
use sqo_storage::{DataWrite, Database, IntegrityOptions, ObjectId};

/// Forty suppliers, one of them at address "A", and forty cargos, one per
/// supplier, half of them of quantity 5, all collected by one vehicle with
/// its engine and driver (the catalog's total ends).
fn service() -> QueryService {
    let catalog = Arc::new(figure21().unwrap());
    let class = |name| catalog.class_id(name).unwrap();
    let rel = |name| catalog.rel_id(name).unwrap();
    let (supplier, cargo) = (class("supplier"), class("cargo"));
    let mut b = Database::builder(Arc::clone(&catalog));
    let vehicle = b.insert(class("vehicle"), vec![Value::Int(1), Value::str("van"), Value::Int(1)]);
    let engine = b.insert(class("engine"), vec![Value::Int(1), Value::Int(1200)]);
    let staff = [Value::str("d"), Value::str("x"), Value::str("x")];
    let driver =
        b.insert(class("driver"), staff.into_iter().chain([0, 9, 0].map(Value::Int)).collect());
    let vehicle = vehicle.unwrap();
    b.link(rel("eng_comp"), vehicle, engine.unwrap()).unwrap();
    b.link(rel("drives"), vehicle, driver.unwrap()).unwrap();
    for i in 0..40i64 {
        let address = if i == 0 { "A" } else { "B" };
        b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str(address)]).unwrap();
        let quantity = if i % 2 == 0 { 5 } else { 7 };
        b.insert(cargo, vec![Value::Int(i), Value::str("food"), Value::Int(quantity)]).unwrap();
        b.link(rel("supplies"), ObjectId(i as u32), ObjectId(i as u32)).unwrap();
        b.link(rel("collects"), ObjectId(i as u32), vehicle).unwrap();
    }
    let db = b.finalize(IntegrityOptions).unwrap();
    let store = ConstraintStore::build(catalog, vec![], StoreOptions::paper_defaults()).unwrap();
    QueryService::new(Arc::new(store), Arc::new(db))
}

fn original(service: &QueryService, query: &Query) -> sqo_exec::ResultSet {
    let db = service.db();
    let plan = plan_query(&db, &query.canonical(), &CostModel::default()).unwrap();
    execute(&db, &plan).unwrap().0
}

#[test]
fn an_expired_memo_re_plans_and_a_drifted_plan_is_replaced() {
    let service = service();
    let catalog = Arc::clone(service.db().catalog());
    let supplier = catalog.class_id("supplier").unwrap();
    let query = QueryBuilder::new(&catalog)
        .select("cargo.code")
        .select("supplier.name")
        .via("supplies")
        .filter("supplier.address", CompOp::Eq, "A")
        .filter("cargo.quantity", CompOp::Eq, 5i64)
        .build()
        .unwrap();
    let root = |service: &QueryService| service.prepare(&query).unwrap().plan().unwrap().root.class;
    service.run(&query).unwrap();
    assert_eq!(root(&service), supplier, "one supplier of forty is at A");
    assert_eq!(service.stats().replans, 0, "the first execution after a miss plans nothing again");

    let insert = |address: &str, n: usize| {
        let batch: Vec<DataWrite> = (0..n)
            .map(|i| DataWrite::Insert {
                class: supplier,
                tuple: vec![Value::str(format!("new{i}")), Value::str(address)],
                links: vec![],
            })
            .collect();
        service.write(&batch).unwrap();
    };
    // Suppliers elsewhere: the memo is kept, so nothing is planned again,
    // though the statistics moved.
    insert("B", 10);
    let kept = service.run(&query).unwrap();
    assert_eq!(service.stats().executions, 1);
    assert_eq!(service.stats().replans, 0);
    assert!(kept.results.same_multiset(&original(&service, &query)));

    // Suppliers at A, each in its own batch: every batch reaches the memo,
    // and the plan roots at cargo once suppliers at A outnumber the cargos
    // of quantity 5 far enough. Exactly one plan change, answers exact.
    let mut flipped_at = None;
    for round in 0..200 {
        insert("A", 1);
        let response = service.run(&query).unwrap();
        assert!(response.results.same_multiset(&original(&service, &query)), "round {round}");
        assert!(response.cache_hit, "a re-plan is not a miss");
        if root(&service) != supplier && flipped_at.is_none() {
            flipped_at = Some(round);
        }
    }
    let flipped_at = flipped_at.expect("the drift flips the root");
    assert_eq!(root(&service), catalog.class_id("cargo").unwrap());
    let stats = service.stats();
    assert_eq!(stats.replans, 1, "flipped once, at round {flipped_at}: {stats:?}");
    assert_eq!(stats.optimizations, 1, "re-planning is not re-optimizing");
    assert_eq!(stats.executions, 1 + 200, "the first run and one per batch at A");
}
