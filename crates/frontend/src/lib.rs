//! # sqo-frontend
//!
//! The non-blocking request frontend of the `sqo` workspace: thousands of
//! in-flight logical clients multiplexed over a fixed core-count worker
//! pool driving one [`sqo_service::QueryService`].
//!
//! Three pieces, all on `std` (no new external dependencies, in the
//! spirit of the workspace's vendor-shim policy):
//!
//! * A **worker pool**: admitted requests are jobs on one
//!   `Mutex<VecDeque>` + `Condvar` queue, popped by a fixed number of
//!   worker threads. A job that panics completes its client with
//!   [`sqo_service::ServiceError::WorkerPanicked`] and the worker carries
//!   on.
//! * **The singleflight seam**: a worker runs
//!   [`sqo_service::QueryService::try_run`] — a hit completes the client's
//!   slot at once, the first miss on a `(fingerprint, store version, data
//!   epoch)` coordinate optimizes once as the leader, and every concurrent
//!   duplicate moves *into the leader's flight* as a continuation
//!   ([`sqo_service::MissWaiter::on_resolved`]) and shares the published
//!   `Arc`'d answer. A logical client waiting on an in-flight optimization
//!   costs its job record, not an OS thread. A leader dying mid-flight
//!   aborts its flight; its followers go back on the queue, retry, and one
//!   inherits leadership.
//! * **Admission control and load shedding** ([`Frontend::submit`]):
//!   a bounded admission queue ([`FrontendConfig::queue_depth`]) and an
//!   optional windowed p99-latency bound, both reject-newest with a typed
//!   [`Overload`] — under offered load beyond capacity the frontend sheds
//!   the marginal arrival and keeps latency bounded instead of letting
//!   every client collapse together. [`Frontend::shutdown`] — and dropping
//!   the frontend — drains: no new admissions, every admitted request
//!   completes, every worker is joined.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]
#![deny(missing_docs)]

mod frontend;

pub use frontend::{Completion, Frontend, FrontendConfig, FrontendStats, Overload, ResponseHandle};
