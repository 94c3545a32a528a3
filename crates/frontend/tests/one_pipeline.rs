//! The frontend leg of `sqo-service`'s "every entry point is the same
//! pipeline" test: the same stream and the same checker (included from
//! `crates/service/tests/common`), answered through [`Frontend::submit`].
//! Reactor workers race, so only the answers, their stamps and the
//! counters' self-consistency are asserted — not the optimization count.

#[path = "../../service/tests/common/mod.rs"]
mod common;

use std::sync::Arc;

use sqo_frontend::{Frontend, FrontendConfig};
use sqo_service::ServiceConfig;

#[test]
fn submit_is_the_same_pipeline() {
    let (service, ops) = common::fixture(ServiceConfig::default());
    let frontend = Frontend::new(
        Arc::clone(&service),
        FrontendConfig { workers: 2, queue_depth: 64, p99_bound_us: None },
    );
    common::drive(&service, &ops, |reads| {
        let handles: Vec<_> =
            reads.iter().map(|q| frontend.submit(q).expect("queue holds a run")).collect();
        handles.into_iter().map(|h| h.wait().result.expect("admitted reads answer")).collect()
    });
    let stats = frontend.shutdown();
    assert_eq!(stats.completed, stats.admitted);
}
