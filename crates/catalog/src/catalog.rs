//! The catalog: immutable schema registry with name/id lookups.

use std::collections::HashMap;

use crate::error::CatalogError;
use crate::ids::{AttrId, AttrRef, ClassId, RelId};
use crate::schema::{AttributeDef, ClassDef, Multiplicity, RelationshipDef, RelationshipEnd};
use crate::types::DataType;

/// An immutable, validated schema.
///
/// Built once through [`CatalogBuilder`], then shared (`Arc<Catalog>`) by the
/// constraint store, the optimizer, the storage engine and the generators.
#[derive(Debug, Clone)]
pub struct Catalog {
    classes: Vec<ClassDef>,
    relationships: Vec<RelationshipDef>,
    class_by_name: HashMap<String, ClassId>,
    rel_by_name: HashMap<String, RelId>,
    /// Per class: attribute name -> id.
    attr_by_name: Vec<HashMap<String, AttrId>>,
}

impl Catalog {
    pub fn builder() -> CatalogBuilder {
        CatalogBuilder::default()
    }

    /// Rebuilds a catalog from its raw definition lists — the snapshot-load
    /// path. Re-runs every check [`CatalogBuilder`] performs (duplicate
    /// class/attribute/relationship names, relationship ends in class range,
    /// inheritance acyclicity), so an untrusted definition list can never
    /// produce a catalog the builder would have rejected.
    ///
    /// # Errors
    /// The same [`CatalogError`] variants the staged builder returns.
    pub fn from_parts(
        classes: Vec<ClassDef>,
        relationships: Vec<RelationshipDef>,
    ) -> Result<Catalog, CatalogError> {
        let mut builder = CatalogBuilder::default();
        for c in &classes {
            if builder.class_by_name.contains_key(&c.name) {
                return Err(CatalogError::DuplicateClass(c.name.clone()));
            }
            if let Some(p) = c.parent {
                if p.index() >= classes.len() {
                    return Err(CatalogError::UnknownParent { class: c.name.clone(), parent: p });
                }
            }
            for (i, a) in c.attributes.iter().enumerate() {
                if c.attributes[..i].iter().any(|x| x.name == a.name) {
                    return Err(CatalogError::DuplicateAttribute {
                        class: c.name.clone(),
                        attr: a.name.clone(),
                    });
                }
            }
            let id = ClassId(builder.classes.len() as u32);
            builder.class_by_name.insert(c.name.clone(), id);
            builder.classes.push(c.clone());
        }
        for r in relationships {
            // Reuses the builder's end-class range check and duplicate-name
            // check.
            builder.relationship(r.name, r.left, r.right)?;
        }
        builder.build() // runs the inheritance-cycle check
    }

    // ---- class lookups -------------------------------------------------

    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &ClassDef)> {
        self.classes.iter().enumerate().map(|(i, c)| (ClassId(i as u32), c))
    }

    pub fn class(&self, id: ClassId) -> Result<&ClassDef, CatalogError> {
        self.classes.get(id.index()).ok_or(CatalogError::UnknownClassId(id))
    }

    pub fn class_id(&self, name: &str) -> Result<ClassId, CatalogError> {
        self.class_by_name
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownClass(name.to_string()))
    }

    pub fn class_name(&self, id: ClassId) -> &str {
        self.classes.get(id.index()).map(|c| c.name.as_str()).unwrap_or("<unknown-class>")
    }

    // ---- attribute lookups ----------------------------------------------

    pub fn attr(&self, r: AttrRef) -> Result<&AttributeDef, CatalogError> {
        let class = self.class(r.class)?;
        class
            .attributes
            .get(r.attr.index())
            .ok_or(CatalogError::UnknownAttrId { class: r.class, attr: r.attr })
    }

    pub fn attr_id(&self, class: ClassId, name: &str) -> Result<AttrId, CatalogError> {
        let map =
            self.attr_by_name.get(class.index()).ok_or(CatalogError::UnknownClassId(class))?;
        map.get(name).copied().ok_or_else(|| CatalogError::UnknownAttribute {
            class: self.class_name(class).to_string(),
            attr: name.to_string(),
        })
    }

    /// Resolves `"class.attr"` textual references used by parsers and DSLs.
    pub fn attr_ref(&self, class: &str, attr: &str) -> Result<AttrRef, CatalogError> {
        let class = self.class_id(class)?;
        let attr = self.attr_id(class, attr)?;
        Ok(AttrRef { class, attr })
    }

    pub fn attr_name(&self, r: AttrRef) -> &str {
        self.attr(r).map(|a| a.name.as_str()).unwrap_or("<unknown-attr>")
    }

    /// `"class.attr"` rendering used by the pretty printers.
    pub fn qualified_attr_name(&self, r: AttrRef) -> String {
        format!("{}.{}", self.class_name(r.class), self.attr_name(r))
    }

    pub fn attr_type(&self, r: AttrRef) -> Result<DataType, CatalogError> {
        self.attr(r).map(|a| a.ty)
    }

    /// Whether the attribute has an index — the branch condition of the
    /// paper's Tables 3.1/3.2.
    pub fn is_indexed(&self, r: AttrRef) -> bool {
        self.attr(r).map(|a| a.is_indexed()).unwrap_or(false)
    }

    // ---- relationship lookups --------------------------------------------

    pub fn relationship_count(&self) -> usize {
        self.relationships.len()
    }

    pub fn relationships(&self) -> impl Iterator<Item = (RelId, &RelationshipDef)> {
        self.relationships.iter().enumerate().map(|(i, r)| (RelId(i as u32), r))
    }

    pub fn relationship(&self, id: RelId) -> Result<&RelationshipDef, CatalogError> {
        self.relationships.get(id.index()).ok_or(CatalogError::UnknownRelId(id))
    }

    pub fn rel_id(&self, name: &str) -> Result<RelId, CatalogError> {
        self.rel_by_name
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownRelationship(name.to_string()))
    }

    pub fn rel_name(&self, id: RelId) -> &str {
        self.relationships.get(id.index()).map(|r| r.name.as_str()).unwrap_or("<unknown-rel>")
    }

    /// All relationships touching `class`.
    pub fn relationships_of(&self, class: ClassId) -> Vec<RelId> {
        self.relationships().filter(|(_, r)| r.involves(class)).map(|(id, _)| id).collect()
    }

    /// Whether `class` is `ancestor` or inherits (transitively) from it.
    pub fn is_subclass_of(&self, class: ClassId, ancestor: ClassId) -> bool {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.classes.get(c.index()).and_then(|d| d.parent);
        }
        false
    }
}

/// Staged, validating constructor for [`Catalog`].
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    classes: Vec<ClassDef>,
    relationships: Vec<RelationshipDef>,
    class_by_name: HashMap<String, ClassId>,
    rel_by_name: HashMap<String, RelId>,
}

impl CatalogBuilder {
    /// Adds a root class. Attribute order fixes [`AttrId`] assignment.
    pub fn class(
        &mut self,
        name: impl Into<String>,
        attributes: Vec<AttributeDef>,
    ) -> Result<ClassId, CatalogError> {
        self.class_with_parent(name, attributes, None)
    }

    /// Adds a subclass; the parent's attributes are prepended so the subclass
    /// sees the combined attribute list under its own ids (matching the
    /// paper's schema where `driver` repeats `employee`'s attributes).
    pub fn subclass(
        &mut self,
        name: impl Into<String>,
        parent: ClassId,
        own_attributes: Vec<AttributeDef>,
    ) -> Result<ClassId, CatalogError> {
        self.class_with_parent(name, own_attributes, Some(parent))
    }

    fn class_with_parent(
        &mut self,
        name: impl Into<String>,
        attributes: Vec<AttributeDef>,
        parent: Option<ClassId>,
    ) -> Result<ClassId, CatalogError> {
        let name = name.into();
        if self.class_by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateClass(name));
        }
        let mut all_attrs = Vec::new();
        if let Some(p) = parent {
            let pdef = self
                .classes
                .get(p.index())
                .ok_or(CatalogError::UnknownParent { class: name.clone(), parent: p })?;
            all_attrs.extend(pdef.attributes.iter().cloned());
        }
        for a in attributes {
            if all_attrs.iter().any(|x| x.name == a.name) {
                return Err(CatalogError::DuplicateAttribute { class: name, attr: a.name });
            }
            all_attrs.push(a);
        }
        let id = ClassId(self.classes.len() as u32);
        self.class_by_name.insert(name.clone(), id);
        self.classes.push(ClassDef { name, attributes: all_attrs, parent });
        Ok(id)
    }

    /// Declares a binary relationship.
    pub fn relationship(
        &mut self,
        name: impl Into<String>,
        left: RelationshipEnd,
        right: RelationshipEnd,
    ) -> Result<RelId, CatalogError> {
        let name = name.into();
        if self.rel_by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateRelationship(name));
        }
        for end in [&left, &right] {
            if end.class.index() >= self.classes.len() {
                return Err(CatalogError::UnknownClassId(end.class));
            }
        }
        let id = RelId(self.relationships.len() as u32);
        self.rel_by_name.insert(name.clone(), id);
        self.relationships.push(RelationshipDef { name, left, right });
        Ok(id)
    }

    /// Convenience: a many-to-one relationship `many_side >- one_side` where
    /// every instance on the many side participates (the common case for
    /// pointer attributes in the paper's schema).
    pub fn many_to_one(
        &mut self,
        name: impl Into<String>,
        many_side: ClassId,
        one_side: ClassId,
    ) -> Result<RelId, CatalogError> {
        self.relationship(
            name,
            RelationshipEnd::new(many_side, Multiplicity::One, true),
            RelationshipEnd::new(one_side, Multiplicity::Many, false),
        )
    }

    pub fn build(self) -> Result<Catalog, CatalogError> {
        // Validate the is-a forest (indices only grow, so cycles are
        // impossible by construction, but keep the check for future mutable
        // builders).
        for (i, c) in self.classes.iter().enumerate() {
            let mut seen = vec![false; self.classes.len()];
            let mut cur = c.parent;
            seen[i] = true;
            while let Some(p) = cur {
                if seen[p.index()] {
                    return Err(CatalogError::InheritanceCycle(c.name.clone()));
                }
                seen[p.index()] = true;
                cur = self.classes.get(p.index()).ok_or(CatalogError::UnknownClassId(p))?.parent;
            }
        }
        let attr_by_name = self
            .classes
            .iter()
            .map(|c| {
                c.attributes
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (a.name.clone(), AttrId(i as u32)))
                    .collect()
            })
            .collect();
        Ok(Catalog {
            classes: self.classes,
            relationships: self.relationships,
            class_by_name: self.class_by_name,
            rel_by_name: self.rel_by_name,
            attr_by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::IndexKind;

    fn tiny() -> Catalog {
        let mut b = Catalog::builder();
        let s = b
            .class(
                "supplier",
                vec![
                    AttributeDef::indexed("name", DataType::Str, IndexKind::Hash),
                    AttributeDef::new("address", DataType::Str),
                ],
            )
            .unwrap();
        let c = b
            .class(
                "cargo",
                vec![
                    AttributeDef::indexed("code", DataType::Int, IndexKind::BTree),
                    AttributeDef::new("desc", DataType::Str),
                    AttributeDef::new("quantity", DataType::Int),
                ],
            )
            .unwrap();
        b.many_to_one("supplies", c, s).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lookups_by_name_and_id() {
        let cat = tiny();
        let s = cat.class_id("supplier").unwrap();
        assert_eq!(cat.class_name(s), "supplier");
        let r = cat.attr_ref("cargo", "desc").unwrap();
        assert_eq!(cat.attr_name(r), "desc");
        assert_eq!(cat.qualified_attr_name(r), "cargo.desc");
        assert_eq!(cat.attr_type(r).unwrap(), DataType::Str);
        assert!(!cat.is_indexed(r));
        let code = cat.attr_ref("cargo", "code").unwrap();
        assert!(cat.is_indexed(code));
        assert_eq!(cat.attr(code).unwrap().index, Some(IndexKind::BTree));
    }

    #[test]
    fn unknown_names_error() {
        let cat = tiny();
        assert!(matches!(cat.class_id("nope"), Err(CatalogError::UnknownClass(_))));
        assert!(matches!(
            cat.attr_ref("cargo", "nope"),
            Err(CatalogError::UnknownAttribute { .. })
        ));
        assert!(matches!(cat.rel_id("nope"), Err(CatalogError::UnknownRelationship(_))));
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut b = Catalog::builder();
        b.class("x", vec![]).unwrap();
        assert!(matches!(b.class("x", vec![]), Err(CatalogError::DuplicateClass(_))));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut b = Catalog::builder();
        let err = b.class(
            "x",
            vec![AttributeDef::new("a", DataType::Int), AttributeDef::new("a", DataType::Str)],
        );
        assert!(matches!(err, Err(CatalogError::DuplicateAttribute { .. })));
    }

    #[test]
    fn subclass_inherits_attributes() {
        let mut b = Catalog::builder();
        let emp = b
            .class(
                "employee",
                vec![
                    AttributeDef::new("name", DataType::Str),
                    AttributeDef::new("rank", DataType::Str),
                ],
            )
            .unwrap();
        let drv = b
            .subclass("driver", emp, vec![AttributeDef::new("license_class", DataType::Int)])
            .unwrap();
        let cat = b.build().unwrap();
        // Inherited attrs come first, own attrs after.
        assert_eq!(cat.attr_id(drv, "name").unwrap(), AttrId(0));
        assert_eq!(cat.attr_id(drv, "license_class").unwrap(), AttrId(2));
        assert!(cat.is_subclass_of(drv, emp));
        assert!(!cat.is_subclass_of(emp, drv));
    }

    #[test]
    fn relationship_lookup_and_involvement() {
        let cat = tiny();
        let rel = cat.rel_id("supplies").unwrap();
        let def = cat.relationship(rel).unwrap();
        let cargo = cat.class_id("cargo").unwrap();
        let supplier = cat.class_id("supplier").unwrap();
        assert!(def.involves(cargo) && def.involves(supplier));
        assert_eq!(cat.relationships_of(cargo), vec![rel]);
        assert!(def.end_for(cargo).unwrap().total);
    }

    #[test]
    fn relationship_with_unknown_class_rejected() {
        let mut b = Catalog::builder();
        let x = b.class("x", vec![]).unwrap();
        let err = b.relationship(
            "r",
            RelationshipEnd::new(x, Multiplicity::One, true),
            RelationshipEnd::new(ClassId(99), Multiplicity::Many, false),
        );
        assert!(matches!(err, Err(CatalogError::UnknownClassId(_))));
    }
}
