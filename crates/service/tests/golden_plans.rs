//! Every cached optimization of `cold_paper`'s pool, pinned to one hash.
//!
//! `crates/exec/tests/prop_estimate.rs` holds the oracle's estimates to the
//! planner's, and the carried plan to `plan_query`'s: both sides run the
//! same estimator, so a rewrite of it that moved both would pass. This test
//! compares with the estimator as it was when the constant below was
//! computed. For each of the end-to-end benchmark's 4,096 `cold_paper`
//! queries at fixture seed 42 it prepares the query on one service (every
//! one a miss) and hashes the optimized query's text, the plan's `Debug`
//! output and `estimated_cost.to_bits()`, in pool order. A change that
//! moves one decision, one join order, one access path or one bit of one
//! estimate changes the hash.
//!
//! The run takes 0.4–0.5 s in debug and 0.1 s optimized on a 2-core host.
//! Reversing the planner's frontier tie-break (`<` to `<=`) moves the hash
//! and leaves `prop_estimate` passing.

#[path = "common/paper_pool.rs"]
mod paper_pool;

use sqo_query::QueryExt;
use sqo_service::{QueryService, ServiceConfig};

/// The hash of the pool's optimizations, computed before the estimator was
/// made position-indexed and warm and left unchanged by it.
const GOLDEN: u64 = 0xdc67_15dc_aa54_b940;

/// FNV-1a, 64-bit: stable across toolchains, unlike `std`'s hashers.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn the_pool_optimizes_and_plans_as_it_did() {
    let (store, db, pool) = paper_pool::paper_pool(4096);
    let catalog = std::sync::Arc::clone(store.catalog());
    let service = QueryService::with_config(store, db, ServiceConfig::default());
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for q in &pool {
        let prepared = service.prepare(q).unwrap();
        assert!(!prepared.cache_hit, "every query of the pool is distinct");
        hash.write(prepared.optimized().display(&catalog).to_string().as_bytes());
        match prepared.plan() {
            Some(plan) => {
                hash.write(format!("{plan:?}").as_bytes());
                hash.write(&plan.estimated_cost.to_bits().to_le_bytes());
            }
            None => hash.write(b"provably empty"),
        }
    }
    assert_eq!(hash.0, GOLDEN, "the pool's optimizations moved: {:#018x}", hash.0);
}
