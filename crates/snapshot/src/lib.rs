//! # sqo-snapshot
//!
//! The `.sqos` persistent snapshot container: a versioned, little-endian,
//! section-based on-disk format plus the byte-level codecs and the
//! validation vocabulary the rest of the workspace builds on.
//!
//! This crate owns the *container* — magic, version, section table,
//! per-section checksums — and the codecs for the schema/query vocabulary
//! (values, predicates, queries, catalog definitions) that several sections
//! share. The section *payloads* are encoded by the crates that own the
//! state: `sqo-storage::persist` (extents, indexes, links, statistics)
//! and `sqo-service::persist` (constraints, the plan cache's queries).
//!
//! The format is specified normatively in `docs/FORMAT.md`; the validation
//! levels in `docs/VALIDATION.md`. The code here is an implementation of
//! those documents, not their definition.
//!
//! ## Trust model
//!
//! A snapshot file is untrusted input. Every read is bounds-checked, every
//! length is validated before use, and no decoded count pre-allocates
//! unbounded memory. Failures surface as [`LoadError`] — never a panic, and
//! never a partially-initialized store.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bytes;
mod codec;
mod container;
mod error;

pub use bytes::{ByteReader, ByteWriter, EPOCH_LIMIT};
pub use codec::{
    read_attr_ref, read_catalog, read_comp_op, read_data_type, read_join_predicate, read_predicate,
    read_projection, read_query, read_sel_predicate, read_stats, read_value, read_value_raw,
    write_attr_ref, write_catalog, write_comp_op, write_data_type, write_join_predicate,
    write_predicate, write_projection, write_query, write_sel_predicate, write_stats, write_value,
    write_value_raw, StrPool,
};
pub use container::{
    section_checksum, section_name, write_snapshot_file, SnapshotBuilder, SnapshotFile,
    FORMAT_VERSION, MAGIC, SEC_CATALOG, SEC_CONSTRAINTS, SEC_EXTENTS, SEC_INDEXES, SEC_LINKS,
    SEC_QUERIES, SEC_STATS,
};
pub use error::{LoadError, ValidationLevel};
