//! Name-based fluent construction of queries.
//!
//! ```
//! use sqo_catalog::example::figure21;
//! use sqo_query::{CompOp, QueryBuilder};
//!
//! let catalog = figure21().unwrap();
//! let query = QueryBuilder::new(&catalog)
//!     .select("vehicle.vehicle_no")
//!     .select("cargo.desc")
//!     .select("cargo.quantity")
//!     .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
//!     .filter("supplier.name", CompOp::Eq, "SFI")
//!     .via("collects")
//!     .via("supplies")
//!     .build()
//!     .unwrap();
//! assert_eq!(query.classes.len(), 3);
//! ```
//!
//! Classes are inferred from attribute references and relationship
//! endpoints; they can also be added explicitly with [`QueryBuilder::access`]
//! (useful for classes touched only through a relationship).

use sqo_catalog::{Catalog, Value};

use crate::ast::{Projection, Query};
use crate::error::QueryError;
use crate::predicate::{CompOp, JoinPredicate, SelPredicate};

/// Fluent builder; errors are deferred to [`QueryBuilder::build`] so chains
/// stay tidy.
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    catalog: &'a Catalog,
    query: Query,
    errors: Vec<QueryError>,
}

impl<'a> QueryBuilder<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, query: Query::new(), errors: Vec::new() }
    }

    fn split(path: &str) -> Option<(&str, &str)> {
        let mut parts = path.splitn(2, '.');
        Some((parts.next()?, parts.next()?))
    }

    fn resolve(&mut self, path: &str) -> Option<sqo_catalog::AttrRef> {
        let Some((class, attr)) = Self::split(path) else {
            self.errors.push(QueryError::Syntax {
                position: 0,
                message: format!("expected `class.attr`, got `{path}`"),
            });
            return None;
        };
        match self.catalog.attr_ref(class, attr) {
            Ok(r) => {
                self.ensure_class(r.class);
                Some(r)
            }
            Err(e) => {
                self.errors.push(e.into());
                None
            }
        }
    }

    fn ensure_class(&mut self, class: sqo_catalog::ClassId) {
        if !self.query.classes.contains(&class) {
            self.query.classes.push(class);
        }
    }

    /// Projects `class.attr`.
    pub fn select(mut self, path: &str) -> Self {
        if let Some(r) = self.resolve(path) {
            self.query.projections.push(Projection::plain(r));
        }
        self
    }

    /// Adds a selective predicate `class.attr op value`.
    pub fn filter(mut self, path: &str, op: CompOp, value: impl Into<Value>) -> Self {
        if let Some(r) = self.resolve(path) {
            self.query.selective_predicates.push(SelPredicate::new(r, op, value.into()));
        }
        self
    }

    /// Adds an explicit join predicate `left op right`.
    pub fn join(mut self, left: &str, op: CompOp, right: &str) -> Self {
        let l = self.resolve(left);
        let r = self.resolve(right);
        if let (Some(l), Some(r)) = (l, r) {
            self.query.join_predicates.push(JoinPredicate::new(l, op, r));
        }
        self
    }

    /// Traverses a named relationship, pulling both endpoint classes in.
    pub fn via(mut self, relationship: &str) -> Self {
        let catalog = self.catalog;
        match catalog.rel_id(relationship).and_then(|rel| Ok((rel, catalog.relationship(rel)?))) {
            Ok((rel, def)) => {
                let (a, b) = def.classes();
                self.ensure_class(a);
                self.ensure_class(b);
                if !self.query.relationships.contains(&rel) {
                    self.query.relationships.push(rel);
                }
            }
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Explicitly accesses a class without any predicate or projection.
    pub fn access(mut self, class: &str) -> Self {
        match self.catalog.class_id(class) {
            Ok(c) => self.ensure_class(c),
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Finishes and validates. The first accumulated error wins.
    pub fn build(self) -> Result<Query, QueryError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        self.query.validate(self.catalog)?;
        Ok(self.query)
    }

    /// Finishes without validation (for tests that need invalid queries).
    pub fn build_unchecked(self) -> Query {
        self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;

    #[test]
    fn builds_figure23_query() {
        let cat = figure21().unwrap();
        let q = QueryBuilder::new(&cat)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "SFI")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        assert_eq!(q.projections.len(), 3);
        assert_eq!(q.selective_predicates.len(), 2);
        assert_eq!(q.relationships.len(), 2);
        assert_eq!(q.classes.len(), 3);
    }

    #[test]
    fn join_predicates_supported() {
        let cat = figure21().unwrap();
        let q = QueryBuilder::new(&cat)
            .select("driver.name")
            .join("driver.license_class", CompOp::Ge, "vehicle.class")
            .via("drives")
            .build()
            .unwrap();
        assert_eq!(q.join_predicates.len(), 1);
    }

    #[test]
    fn unknown_attribute_surfaces_at_build() {
        let cat = figure21().unwrap();
        let err = QueryBuilder::new(&cat).select("vehicle.wheels").build();
        assert!(err.is_err());
    }

    #[test]
    fn malformed_path_surfaces_at_build() {
        let cat = figure21().unwrap();
        let err = QueryBuilder::new(&cat).select("no_dot_here").build();
        assert!(matches!(err, Err(QueryError::Syntax { .. })));
    }

    #[test]
    fn duplicate_via_is_idempotent() {
        let cat = figure21().unwrap();
        let q = QueryBuilder::new(&cat)
            .select("cargo.desc")
            .via("supplies")
            .via("supplies")
            .build()
            .unwrap();
        assert_eq!(q.relationships.len(), 1);
    }

    #[test]
    fn access_adds_isolated_class() {
        let cat = figure21().unwrap();
        let q = QueryBuilder::new(&cat).access("cargo").build().unwrap();
        assert_eq!(q.classes.len(), 1);
        assert!(q.projections.is_empty());
    }
}
