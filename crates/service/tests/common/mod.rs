//! One request stream and one checker, shared by every entry-point leg of
//! the "same pipeline" tests (`one_pipeline.rs` here, and — through a
//! `#[path]` include — `crates/frontend/tests/one_pipeline.rs`).
//!
//! The stream repeats three paper queries in original and reordered
//! spellings, with a data write and an overlapping `add_constraint` in the
//! middle. A leg answers each run of consecutive reads however its entry
//! point does; [`drive`] checks every answer against the **unoptimized**
//! original query planned and executed on the service's own snapshot, and
//! its `(epoch, data_epoch)` stamp against that snapshot's coordinates.

use std::sync::Arc;

use sqo_exec::{execute, plan_query, CostModel};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig, ServiceResponse, ServiceStats};
use sqo_workload::{dup_safe_classes, paper_scenario, DbSize, MixedApplier, WriteKind};

/// One step of the stream.
pub(crate) enum Op {
    Read(Query),
    /// Duplicate one instance (integrity- and constraint-preserving) of a
    /// class the stream's queries touch: plans survive, memos expire.
    Write,
    /// Re-add a constraint overlapping the stream's queries (semantics
    /// preserving): their cached rewrites are invalidated.
    Constrain,
}

/// Every list part reversed: canonically identical to `query`.
fn respelled(query: &Query) -> Query {
    let mut q = query.clone();
    q.projections.reverse();
    q.selective_predicates.reverse();
    q.classes.reverse();
    q
}

/// A fresh service over the paper's DB1 plus the stream to drive through it.
pub(crate) fn fixture(config: ServiceConfig) -> (Arc<QueryService>, Vec<Op>) {
    let s = paper_scenario(DbSize::Db1, 42);
    let service = QueryService::with_config(Arc::new(s.store), Arc::new(s.db), config);
    let q = &s.queries;
    let reads = |picks: &[usize]| -> Vec<Op> {
        picks
            .iter()
            .map(|&i| Op::Read(if i < 3 { q[i].clone() } else { respelled(&q[i - 3]) }))
            .collect()
    };
    let mut ops = reads(&[0, 1, 0, 3, 2, 4, 0, 1, 5, 3]);
    ops.push(Op::Write);
    ops.extend(reads(&[0, 3, 1, 2, 0, 5, 4, 1, 0]));
    ops.push(Op::Constrain);
    ops.extend(reads(&[3, 0, 2, 1, 4, 0, 5, 3, 3, 1]));
    (Arc::new(service), ops)
}

/// Drives `ops` through `service`: each maximal run of consecutive reads is
/// answered by `answer` (one response per read, in order) and checked; the
/// mutations between runs go through the service's own write paths.
/// Returns the final counters after asserting their self-consistency.
pub(crate) fn drive(
    service: &QueryService,
    ops: &[Op],
    mut answer: impl FnMut(&[Query]) -> Vec<ServiceResponse>,
) -> ServiceStats {
    let model = CostModel::default();
    // The classes of the stream's first query: where the mutations land.
    let touched = ops
        .iter()
        .find_map(|op| match op {
            Op::Read(query) => Some(query.canonical().classes),
            _ => None,
        })
        .expect("the stream reads");
    let mut applier = MixedApplier::new(&service.db());
    let mut reads = 0u64;
    let mut run: Vec<Query> = Vec::new();
    let mut flush = |run: &mut Vec<Query>| {
        let (db, epoch) = (service.db(), service.epoch());
        let responses = answer(run);
        assert_eq!(responses.len(), run.len(), "one response per read");
        for (query, response) in run.iter().zip(&responses) {
            let plan = plan_query(&db, &query.canonical(), &model).expect("the original plans");
            let (reference, _) = execute(&db, &plan).expect("the original executes");
            assert!(response.results.same_multiset(&reference), "answer differs from the original");
            assert_eq!((response.epoch, response.data_epoch), (epoch, db.data_version()));
        }
        reads += run.len() as u64;
        run.clear();
    };
    for op in ops {
        match op {
            Op::Read(query) => run.push(query.clone()),
            Op::Write => {
                flush(&mut run);
                let db = service.db();
                let class = *dup_safe_classes(db.catalog())
                    .iter()
                    .find(|c| touched.contains(c))
                    .expect("the stream touches a class that admits duplicates");
                let (class, victim, batch) =
                    applier.resolve(&db, &WriteKind::InsertDup { class, source_rank: 0 });
                let outcome = service.write(&batch).expect("safe write rejected");
                applier.confirm(class, victim, &outcome.receipt);
            }
            Op::Constrain => {
                flush(&mut run);
                let store = service.store();
                let (_, overlapping) = store
                    .constraints()
                    .find(|(_, c)| c.classes.iter().any(|class| touched.contains(class)))
                    .expect("some constraint touches the stream's classes");
                service.add_constraint(overlapping.clone()).unwrap();
            }
        }
    }
    flush(&mut run);
    let stats = service.stats();
    assert_eq!(stats.requests, reads, "every read is one request: {stats:?}");
    assert_eq!(stats.accepted, stats.cache.hits + stats.cache.misses, "{stats:?}");
    assert_eq!((stats.writes, stats.data_epoch), (1, 1), "{stats:?}");
    stats
}
