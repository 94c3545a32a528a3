//! A write that breaks a total-participation or to-one declaration is
//! refused, and the service is left exactly as it was.
//!
//! Class elimination (King's rule) drops a class from a query when every
//! surviving object links to exactly one object of it, which is what the
//! catalog's to-one and total ends declare. On the paper's DB2 at seed 7,
//! query 38's rewrite eliminates `supplier` through `supplies` (to-one and
//! total on its cargo end). Had the service taken a write that left cargo 0
//! with no supplier, or with two, the cached rewrite would count that cargo
//! once where the original counts it zero or two times: 27 rows served
//! where the original returns 26 or 28.

use std::sync::Arc;

use sqo_exec::{execute, plan_query, CostModel, ResultSet};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceError};
use sqo_storage::{DataWrite, Database, ObjectId, StorageError};
use sqo_workload::{paper_scenario, DbSize};

/// The original query's answer on `db`, planned and executed as written.
fn original(db: &Database, query: &Query) -> ResultSet {
    let plan = plan_query(db, &query.canonical(), &CostModel::default()).expect("plan");
    execute(db, &plan).expect("execute").0
}

#[test]
fn writes_that_break_a_declaration_are_refused_and_change_nothing() {
    let s = paper_scenario(DbSize::Db2, 7);
    let catalog = Arc::clone(&s.catalog);
    let query = s.queries[38].clone();
    let service = QueryService::new(Arc::new(s.store), Arc::new(s.db));
    let supplier = catalog.class_id("supplier").unwrap();
    let supplies = catalog.rel_id("supplies").unwrap();

    // The cached rewrite eliminates supplier, and cargo 0's one supplier is 55.
    let prepared = service.prepare(&query).unwrap();
    assert!(prepared.canonical().classes.contains(&supplier));
    assert!(!prepared.optimized().classes.contains(&supplier));
    let answer = service.run(&query).unwrap().results;
    assert!(answer.same_multiset(&original(&service.db(), &query)));
    assert_eq!(service.db().links(supplies).from_left(ObjectId(0)), &[ObjectId(55)]);

    let unlink = DataWrite::Unlink { rel: supplies, left: ObjectId(0), right: ObjectId(55) };
    let link = DataWrite::Link { rel: supplies, left: ObjectId(0), right: ObjectId(0) };
    let before = service.db();
    for (write, refused) in
        [(&unlink, "TotalParticipationViolated"), (&link, "MultiplicityViolated")]
    {
        let err = service.write(std::slice::from_ref(write)).unwrap_err();
        let matched = match &err {
            ServiceError::Storage(StorageError::TotalParticipationViolated {
                rel, object, ..
            }) => (*rel, *object, "TotalParticipationViolated"),
            ServiceError::Storage(StorageError::MultiplicityViolated { rel, object, .. }) => {
                (*rel, *object, "MultiplicityViolated")
            }
            other => panic!("{write:?} refused as {other:?}"),
        };
        assert_eq!(matched, (supplies, ObjectId(0), refused), "{write:?}");
        // Nothing moved: the snapshot, both epochs and every class's write
        // epoch; the query still answers like its original.
        assert!(Arc::ptr_eq(&service.db(), &before), "{write:?} swapped a snapshot in");
        assert_eq!((service.data_epoch(), service.epoch()), (0, 0));
        for (class, _) in catalog.classes() {
            assert!(!before.write_epochs().written_after(class, 0), "{write:?} raised {class:?}");
        }
        let response = service.run(&query).unwrap();
        assert!(response.results.same_multiset(&original(&before, &query)));
        assert_eq!((response.cache_hit, response.data_epoch), (true, 0));
    }

    // Unlinking cargo 0 and linking it to another supplier in one batch
    // keeps the declarations, and is accepted.
    let outcome = service.write(&[unlink, link]).unwrap();
    assert_eq!(outcome.epoch, 1);
    assert_eq!(service.db().links(supplies).from_left(ObjectId(0)), &[ObjectId(0)]);
    let response = service.run(&query).unwrap();
    assert!(response.results.same_multiset(&original(&service.db(), &query)));
}
