//! # sqo-storage
//!
//! In-memory object store for the `sqo` workspace — the storage substrate the
//! paper's prototype ran on (their OODB plus the relational DBMS used for
//! cost measurements). Execution cost here is counted, not timed, so the
//! cost *ratios* the paper reports repeat on any machine.
//!
//! * class **extents** of typed tuples, stored as one copy-on-write paged
//!   column per attribute;
//! * **hash and B-tree indexes** built from catalog declarations, both kept
//!   in one ordered copy-on-write map (`valuemap.rs`) that also holds the
//!   value counts statistics are maintained from;
//! * bidirectional **relationship links** (the pointer attributes of the
//!   paper's schema);
//! * **integrity enforcement** on every build, load and write batch: total
//!   participation and to-one multiplicity — the declarations that make
//!   class elimination sound — always hold;
//! * **cost accounting**: raw operation counters, a page-I/O model and
//!   scalar work units, so "execution cost" is deterministic and
//!   machine-independent;
//! * an **incremental write path** ([`VersionedDatabase`]): copy-on-write
//!   snapshot mutation behind a versioned handle with a monotone **data
//!   epoch**, distinct from the constraint epoch, and per-class **write
//!   epochs** ([`WriteEpochs`]), so serving layers can keep plans across
//!   data writes and expire only the memoized results whose classes a
//!   batch changed.
//!   Snapshot state is sharded per class and per relationship and shared
//!   between snapshots by pointer — extents, adjacency lists, indexes and
//!   value counts page by page; a write batch copies only the pages it
//!   touches and patches the touched classes' statistics per written value
//!   from those counts — so a batch costs what it touches, not the size of
//!   the class or the database.
//!   [`Database::with_writes_full`] keeps the rebuild-everything algorithm
//!   as the equivalence oracle, and
//!   [`DataWrite::Update`] mutates attributes in place without paying
//!   delete + re-insert renumbering. Every batch returns a
//!   [`WriteReceipt`] naming inserted ids and swap-remove renumberings.
//!   See `db.rs`'s module docs for the sharing/patching model, what a
//!   write costs and the aliasing guarantees;
//! * **semantic-constraint checking** against the data, used by generators
//!   and property tests to certify that instances satisfy the constraint set
//!   the optimizer will trust.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![warn(missing_debug_implementations)]

mod cost;
mod counts;
mod db;
mod error;
mod extent;
mod index;
mod links;
mod object;
mod paged;
mod persist;
mod valuemap;
mod versioned;

pub use cost::{CostCounters, CostWeights, PageModel};
pub use db::{DataWrite, Database, DatabaseBuilder, IntegrityOptions, Violation, WriteReceipt};
pub use error::StorageError;
pub use extent::{Column, Typed};
pub use index::{AttrIndex, IndexScanResult};
pub use links::{Adjacency, RelLinks};
pub use object::ObjectId;
pub use persist::{
    database_sections, decode_database, decode_database_from, encode_database, load_database,
    save_database,
};
pub use valuemap::OrdValue;
pub use versioned::{VersionedDatabase, WriteEpochs, WriteOutcome, WRITE_LOG_BATCHES};
