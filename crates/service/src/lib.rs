//! # sqo-service
//!
//! The serving layer of the `sqo` workspace: a concurrent
//! [`QueryService`] that amortizes semantic optimization across the
//! repeated queries real traffic is made of.
//!
//! The ICDE'91 pipeline underneath is a single-shot library — every
//! [`sqo_core::SemanticOptimizer::optimize`] call re-runs the whole
//! transformation fixpoint and re-plans from scratch. This crate turns it
//! into a serveable engine:
//!
//! * **Canonical fingerprints** ([`sqo_query::QueryFingerprint`]) collapse
//!   every spelling of a query — shuffled predicates, reordered class
//!   lists — onto one cache identity, computed and verified on the
//!   spelling itself: a hit never builds the canonical form.
//! * **Version-validated entries**: every cache entry records the
//!   [`sqo_constraints::StoreVersion`] (store generation + epoch) its
//!   rewrite was derived under, and lookups only hit on an exact match —
//!   raw epochs are ambiguous across copy-on-write store swaps and can
//!   serve plans derived under the wrong constraints.
//! * **Two-level invalidation**: a constraint insert purges only entries
//!   whose class set overlaps the new constraint's (everything else is
//!   revalidated in place); a data write through the
//!   [`sqo_storage::VersionedDatabase`] path leaves plans cached and
//!   expires the result memo of only those entries whose plan binds a class
//!   the batch changed.
//! * A **sharded CLOCK plan cache** ([`ShardedCache`]) keeps lock hold times
//!   tiny: readers of different queries land on different `RwLock`
//!   shards, readers of the same hot query share a read lock.
//! * **One request pipeline** — `resolve → hit | lead | follow → execute
//!   → publish → respond` — behind every entry point: each of the plan-cache
//!   lookup, the optimize+plan miss path, the executor call with its
//!   result-memo handling, and the flight resolution exists exactly once.
//!   The non-blocking [`QueryService::try_run`] +
//!   [`QueryService::complete_miss`] is the one request protocol,
//!   [`QueryService::run`] its blocking driver, and the plan-only
//!   [`QueryService::prepare`] the lookup plus the miss path
//!   (`docs/ARCHITECTURE.md` §5). The service spawns no thread: every
//!   entry point runs on its caller's, and the one worker pool is
//!   `sqo-frontend`'s.
//! * **Singleflight miss deduplication** ([`QueryService::try_run`] +
//!   [`QueryService::complete_miss`], which every `run` and the
//!   `sqo-frontend` worker pool drive): concurrent cold misses on the same
//!   `(fingerprint, store version, data epoch)` coordinates share one
//!   optimization and one execution — the first registrant leads,
//!   duplicates follow on a [`MissWaiter`] (a continuation kept in the
//!   flight and run exactly once by whoever resolves it; `run` blocks on
//!   it, the frontend parks no thread), and a leader that dies mid-flight
//!   aborts cleanly instead of stranding its followers. A miss copies no
//!   query: the leader's canonical form moves into the entry it publishes,
//!   and each follower checks that entry's query against its own.
//! * **One way to share an answer**: identical warm requests share the
//!   entry's result memo (on by default, expired by the next data write
//!   to a class the entry's plan binds);
//!   identical cold requests share a flight. A plan-cache hit never
//!   touches the flight table.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod cache;
mod persist;
mod service;
mod singleflight;

pub use cache::{CacheEntry, CacheStats, ShardedCache};
pub use persist::{decode_constraints, encode_constraints};
pub use service::{
    PreparedQuery, QueryService, ServiceConfig, ServiceError, ServiceResponse, ServiceStats, TryRun,
};
pub use singleflight::{FlightError, FlightKey, FlightResult, MissGuard, MissWaiter};
