//! A small name-based DSL for declaring constraints.
//!
//! ```
//! use sqo_catalog::example::figure21;
//! use sqo_constraints::ConstraintBuilder;
//! use sqo_query::CompOp;
//!
//! let catalog = figure21().unwrap();
//! // c1: refrigerated trucks can only carry frozen food.
//! let c1 = ConstraintBuilder::new(&catalog, "c1")
//!     .when("vehicle.desc", CompOp::Eq, "refrigerated truck")
//!     .via("collects")
//!     .then("cargo.desc", CompOp::Eq, "frozen food")
//!     .build()
//!     .unwrap();
//! assert_eq!(c1.classes.len(), 2);
//! ```

use sqo_catalog::{Catalog, ClassId, RelId, Value};
use sqo_query::{CompOp, Predicate};

use crate::error::ConstraintError;
use crate::horn::HornConstraint;

/// Fluent builder; errors surface at [`ConstraintBuilder::build`].
#[derive(Debug)]
pub struct ConstraintBuilder<'a> {
    catalog: &'a Catalog,
    name: String,
    antecedents: Vec<Predicate>,
    relationships: Vec<RelId>,
    consequent: Option<Predicate>,
    scope: Vec<ClassId>,
    errors: Vec<ConstraintError>,
}

impl<'a> ConstraintBuilder<'a> {
    pub fn new(catalog: &'a Catalog, name: impl Into<String>) -> Self {
        Self {
            catalog,
            name: name.into(),
            antecedents: Vec::new(),
            relationships: Vec::new(),
            consequent: None,
            scope: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn attr(&mut self, path: &str) -> Option<sqo_catalog::AttrRef> {
        let mut it = path.splitn(2, '.');
        let (Some(class), Some(attr)) = (it.next(), it.next()) else {
            self.errors.push(ConstraintError::TypeMismatch {
                context: format!("expected `class.attr`, got `{path}`"),
            });
            return None;
        };
        match self.catalog.attr_ref(class, attr) {
            Ok(r) => Some(r),
            Err(e) => {
                self.errors.push(e.into());
                None
            }
        }
    }

    /// Antecedent value predicate.
    pub fn when(mut self, path: &str, op: CompOp, value: impl Into<Value>) -> Self {
        if let Some(r) = self.attr(path) {
            self.antecedents.push(Predicate::sel(r, op, value.into()));
        }
        self
    }

    /// Structural requirement: the classes are correlated through `rel`.
    pub fn via(mut self, rel: &str) -> Self {
        match self.catalog.rel_id(rel) {
            Ok(r) => {
                if !self.relationships.contains(&r) {
                    self.relationships.push(r);
                }
            }
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Membership-only class reference (c4's bare `manager(...)` atom).
    pub fn scope(mut self, class: &str) -> Self {
        match self.catalog.class_id(class) {
            Ok(c) => self.scope.push(c),
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Consequent value predicate.
    pub fn then(mut self, path: &str, op: CompOp, value: impl Into<Value>) -> Self {
        if let Some(r) = self.attr(path) {
            self.consequent = Some(Predicate::sel(r, op, value.into()));
        }
        self
    }

    /// Consequent join predicate (c3's `licenseClass >= class`).
    pub fn then_join(mut self, left: &str, op: CompOp, right: &str) -> Self {
        let l = self.attr(left);
        let r = self.attr(right);
        if let (Some(l), Some(r)) = (l, r) {
            self.consequent = Some(Predicate::join(l, op, r));
        }
        self
    }

    pub fn build(self) -> Result<HornConstraint, ConstraintError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let consequent = self.consequent.ok_or_else(|| ConstraintError::TypeMismatch {
            context: format!("constraint `{}` has no consequent", self.name),
        })?;
        HornConstraint::new(
            self.catalog,
            self.name,
            self.antecedents,
            self.relationships,
            consequent,
            self.scope,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horn::ConstraintClass;
    use sqo_catalog::example::figure21;

    #[test]
    fn builds_join_consequent() {
        let cat = figure21().unwrap();
        let c3 = ConstraintBuilder::new(&cat, "c3")
            .via("drives")
            .then_join("driver.license_class", CompOp::Ge, "vehicle.class")
            .build()
            .unwrap();
        assert_eq!(c3.classification(), ConstraintClass::Inter);
        assert_eq!(c3.classes.len(), 2);
        assert!(c3.antecedents.is_empty());
    }

    #[test]
    fn builds_scoped_intra_constraint() {
        let cat = figure21().unwrap();
        let c4 = ConstraintBuilder::new(&cat, "c4")
            .scope("manager")
            .then("manager.rank", CompOp::Eq, "research staff member")
            .build()
            .unwrap();
        assert_eq!(c4.classification(), ConstraintClass::Intra);
    }

    #[test]
    fn missing_consequent_is_an_error() {
        let cat = figure21().unwrap();
        let err =
            ConstraintBuilder::new(&cat, "x").when("cargo.desc", CompOp::Eq, "frozen food").build();
        assert!(err.is_err());
    }

    #[test]
    fn unknown_names_surface() {
        let cat = figure21().unwrap();
        assert!(ConstraintBuilder::new(&cat, "x")
            .when("warp.core", CompOp::Eq, 1i64)
            .then("cargo.quantity", CompOp::Gt, 0i64)
            .build()
            .is_err());
        assert!(ConstraintBuilder::new(&cat, "x")
            .via("beams")
            .then("cargo.quantity", CompOp::Gt, 0i64)
            .build()
            .is_err());
    }
}
