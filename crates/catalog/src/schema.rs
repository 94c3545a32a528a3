//! Schema definitions: classes, attributes, relationships.
//!
//! The model follows the paper's object-oriented setting (Figure 2.1):
//! object classes with typed attributes, single-inheritance `is-a` links, and
//! named binary relationships implemented by pointer attributes. Indexes are
//! declared per attribute because the transformation tables of the paper
//! (Tables 3.1/3.2) branch on whether a consequent predicate is *indexed*.

use crate::ids::{ClassId, RelId};
use crate::types::DataType;

/// The physical index maintained over an attribute, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Hash index: supports equality probes only.
    Hash,
    /// B-tree index: supports equality and range probes.
    BTree,
}

/// Declaration of a single attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    pub name: String,
    pub ty: DataType,
    /// `Some(kind)` if the storage layer maintains an index on this attribute.
    pub index: Option<IndexKind>,
}

impl AttributeDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self { name: name.into(), ty, index: None }
    }

    pub fn indexed(name: impl Into<String>, ty: DataType, kind: IndexKind) -> Self {
        Self { name: name.into(), ty, index: Some(kind) }
    }

    /// Whether predicates over this attribute can use an index at all.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }
}

/// Declaration of an object class.
///
/// When a class declares a `parent`, it inherits the parent's attributes;
/// the catalog builder materializes inherited attributes into the subclass so
/// that attribute ids remain class-local (the paper's `driver` inherits
/// `name, clearance, rank, belongsTo` from `employee`, for example).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    pub name: String,
    pub attributes: Vec<AttributeDef>,
    pub parent: Option<ClassId>,
}

/// How many objects of the far class one object may link to through a
/// relationship end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Multiplicity {
    One,
    Many,
}

/// One end of a binary relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationshipEnd {
    pub class: ClassId,
    /// Multiplicity *towards the opposite end*: a `supplier -< cargo`
    /// relationship has `Many` on the supplier end (one supplier supplies
    /// many cargoes) and `One` on the cargo end.
    pub multiplicity: Multiplicity,
    /// Total participation: every instance of `class` takes part in at least
    /// one link of this relationship. Class elimination (King's rule) is only
    /// sound when the *surviving* side participates totally: otherwise
    /// dropping the join would keep survivors that had no partner to join.
    pub total: bool,
}

impl RelationshipEnd {
    pub fn new(class: ClassId, multiplicity: Multiplicity, total: bool) -> Self {
        Self { class, multiplicity, total }
    }
}

/// A named binary relationship between two object classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationshipDef {
    pub name: String,
    pub left: RelationshipEnd,
    pub right: RelationshipEnd,
}

impl RelationshipDef {
    /// The classes this relationship connects (left, right).
    pub fn classes(&self) -> (ClassId, ClassId) {
        (self.left.class, self.right.class)
    }

    /// Whether the relationship touches `class`.
    pub fn involves(&self, class: ClassId) -> bool {
        self.left.class == class || self.right.class == class
    }

    /// Given one participating class, returns the class on the other end.
    /// Returns `None` if `class` does not participate. For self-relationships
    /// both ends coincide and `class` is returned.
    pub fn other_end(&self, class: ClassId) -> Option<ClassId> {
        if self.left.class == class {
            Some(self.right.class)
        } else if self.right.class == class {
            Some(self.left.class)
        } else {
            None
        }
    }

    /// The end record for `class`, if it participates.
    pub fn end_for(&self, class: ClassId) -> Option<&RelationshipEnd> {
        if self.left.class == class {
            Some(&self.left)
        } else if self.right.class == class {
            Some(&self.right)
        } else {
            None
        }
    }
}

/// A relationship occurrence as seen from one side; handy for graph walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelEdge {
    pub rel: RelId,
    pub from: ClassId,
    pub to: ClassId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_constructors() {
        let a = AttributeDef::new("desc", DataType::Str);
        assert!(!a.is_indexed());
        let b = AttributeDef::indexed("code", DataType::Int, IndexKind::Hash);
        assert!(b.is_indexed());
        assert_eq!(b.index, Some(IndexKind::Hash));
    }

    #[test]
    fn relationship_end_queries() {
        let rel = RelationshipDef {
            name: "collects".into(),
            left: RelationshipEnd::new(ClassId(0), Multiplicity::Many, true),
            right: RelationshipEnd::new(ClassId(1), Multiplicity::One, false),
        };
        assert!(rel.involves(ClassId(0)));
        assert!(rel.involves(ClassId(1)));
        assert!(!rel.involves(ClassId(2)));
        assert_eq!(rel.other_end(ClassId(0)), Some(ClassId(1)));
        assert_eq!(rel.other_end(ClassId(1)), Some(ClassId(0)));
        assert_eq!(rel.other_end(ClassId(9)), None);
        assert_eq!(rel.end_for(ClassId(1)).unwrap().multiplicity, Multiplicity::One);
    }

    #[test]
    fn self_relationship_other_end() {
        let rel = RelationshipDef {
            name: "mentors".into(),
            left: RelationshipEnd::new(ClassId(3), Multiplicity::Many, false),
            right: RelationshipEnd::new(ClassId(3), Multiplicity::One, false),
        };
        assert_eq!(rel.other_end(ClassId(3)), Some(ClassId(3)));
    }
}
