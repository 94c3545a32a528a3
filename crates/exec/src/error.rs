//! Execution-layer errors.

use std::fmt;

use sqo_catalog::{AttrRef, CatalogError, ClassId};
use sqo_query::QueryError;
use sqo_storage::StorageError;

/// Errors raised by the planner or executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    Catalog(CatalogError),
    Query(QueryError),
    Storage(StorageError),
    /// No relationship path reaches this class from the chosen root.
    Unreachable(ClassId),
    /// The query has no classes to drive from.
    EmptyQuery,
    /// The query lists more classes than the planner orders (64, one bit
    /// each of its bound-class mask).
    TooManyClasses(usize),
    /// The plan demands an index probe on an attribute that carries no
    /// index — a planner/executor contract violation (e.g. a plan cached
    /// against a different physical schema).
    MissingIndex(AttrRef),
    /// The plan demands a probe shape (e.g. a range) the attribute's index
    /// cannot serve.
    UnsupportedProbe(AttrRef),
    /// A batch probe re-keys the root index probe, but the plan's root is a
    /// sequential scan — there is no probe key to override.
    RootOverrideNeedsIndex(ClassId),
    /// The plan fails [`crate::PhysicalPlan::check`] (e.g. a join step
    /// whose `from_class` was never bound). Always a bug in the planner
    /// or a stale cached plan — surfaced as an error so one corrupt plan
    /// cannot abort a serving worker.
    MalformedPlan(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Catalog(e) => write!(f, "catalog error: {e}"),
            ExecError::Query(e) => write!(f, "query error: {e}"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Unreachable(c) => write!(f, "{c} is unreachable from the plan root"),
            ExecError::EmptyQuery => write!(f, "query accesses no classes"),
            ExecError::TooManyClasses(n) => {
                write!(f, "query joins {n} classes; the planner orders at most 64")
            }
            ExecError::MissingIndex(a) => {
                write!(f, "plan probes {a} but the attribute has no index")
            }
            ExecError::UnsupportedProbe(a) => {
                write!(f, "index on {a} cannot serve the plan's probe set")
            }
            ExecError::RootOverrideNeedsIndex(c) => {
                write!(f, "probe re-keys the root of {c} but the plan's root is a scan")
            }
            ExecError::MalformedPlan(what) => write!(f, "malformed plan: {what}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Catalog(e) => Some(e),
            ExecError::Query(e) => Some(e),
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CatalogError> for ExecError {
    fn from(e: CatalogError) -> Self {
        ExecError::Catalog(e)
    }
}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        ExecError::Query(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}
