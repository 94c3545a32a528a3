//! Every entry point is the same pipeline: one stream (duplicates,
//! reordered spellings, a data write and an overlapping `add_constraint`
//! mid-stream, see `common`) driven through `run` and through the
//! `try_run`/`complete_miss`/`MissWaiter::wait` protocol must produce the unoptimized original's rows at the serving snapshot's
//! stamps — and, single-threaded, the same number of optimizations,
//! because each entry point is a composition of the same
//! `resolve → hit | lead | follow → execute → publish → respond` core.

mod common;

use common::{drive, fixture};
use sqo_query::Query;
use sqo_service::{FlightError, QueryService, ServiceConfig, ServiceResponse, TryRun};

/// The frontend's protocol on one thread: register every read of the run
/// first (so duplicates of a cold query *follow* its open flight), then
/// pay the leaders' completions, then collect the followers.
fn via_try_run(service: &QueryService, reads: &[Query]) -> Vec<ServiceResponse> {
    let landed: Vec<TryRun> = reads.iter().map(|q| service.try_run(q).expect("try_run")).collect();
    let mut waiting = Vec::new();
    let mut out: Vec<Option<ServiceResponse>> = Vec::new();
    for (i, landing) in landed.into_iter().enumerate() {
        out.push(match landing {
            TryRun::Done(response) => Some(response),
            TryRun::Leader(guard) => Some(service.complete_miss(guard).expect("complete_miss")),
            TryRun::Follower(waiter) => {
                waiting.push((i, waiter));
                None
            }
        });
    }
    for (i, waiter) in waiting {
        out[i] = Some(match waiter.wait() {
            Ok(response) => response,
            Err(FlightError::Aborted) => panic!("no leader of this run dropped its guard"),
            Err(FlightError::Failed(e)) => panic!("leader failed: {e}"),
        });
    }
    out.into_iter().map(|r| r.expect("every read landed")).collect()
}

#[test]
fn every_sequential_entry_point_is_the_same_pipeline() {
    let (service, ops) = fixture(ServiceConfig::default());
    let by_run =
        drive(&service, &ops, |reads| reads.iter().map(|q| service.run(q).expect("run")).collect());
    assert!(by_run.cache.hits > 0 && by_run.optimizations > 3, "the stream hits and re-derives");

    let (service, ops) = fixture(ServiceConfig::default());
    let by_try_run = drive(&service, &ops, |reads| via_try_run(&service, reads));
    assert!(by_try_run.singleflight_followers > 0, "duplicates of a cold query followed");
    assert_eq!(by_try_run.optimizations, by_run.optimizations);
}
