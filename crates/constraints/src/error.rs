//! Constraint validation errors.

use std::fmt;

use sqo_catalog::{CatalogError, ClassId};
use sqo_query::QueryError;

/// Errors raised while building or compiling semantic constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    Catalog(CatalogError),
    Query(QueryError),
    /// The consequent already appears among the antecedents — a tautology
    /// that can never drive a useful transformation.
    Tautology,
    /// Antecedents are mutually contradictory: the constraint can never fire
    /// and would silently licence arbitrary conclusions.
    UnsatisfiableAntecedent,
    /// The class set is not the strictly ascending set of every class the
    /// predicates and relationship ends name (plus any scope classes): it
    /// omits, repeats or misorders this class.
    ClassSet(ClassId),
    /// Type error inside a predicate.
    TypeMismatch {
        context: String,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::Catalog(e) => write!(f, "catalog error: {e}"),
            ConstraintError::Query(e) => write!(f, "query error: {e}"),
            ConstraintError::Tautology => {
                write!(f, "constraint consequent is implied by its own antecedents")
            }
            ConstraintError::UnsatisfiableAntecedent => {
                write!(f, "constraint antecedents are mutually contradictory")
            }
            ConstraintError::ClassSet(class) => {
                write!(f, "constraint class set omits, repeats or misorders class {class}")
            }
            ConstraintError::TypeMismatch { context } => {
                write!(f, "type mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for ConstraintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConstraintError::Catalog(e) => Some(e),
            ConstraintError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CatalogError> for ConstraintError {
    fn from(e: CatalogError) -> Self {
        ConstraintError::Catalog(e)
    }
}

impl From<QueryError> for ConstraintError {
    fn from(e: QueryError) -> Self {
        ConstraintError::Query(e)
    }
}
