//! The 5-class / 6-relationship benchmark schema (Table 4.1).
//!
//! Table 4.1 reports 5 object classes and 6 relationships but does not name
//! them (Figure 2.1 has 9 classes); this module's reconstruction:
//!
//! ```text
//!   supplier --supplies-- cargo --collects-- vehicle --drives-- driver
//!                                   |                             |
//!                                   +---------- owns --------+    |
//!                                                            |    |
//!                                 department --belongs_to----+----+
//!                                      |
//!   supplier -------- contracts -------+
//! ```
//!
//! Four *spine* relationships are to-one + total from the many side (the
//! precondition for class elimination); `owns` and `contracts` are
//! many-to-many *fan* relationships whose link counts absorb the difference
//! between Table 4.1's class and relationship cardinalities.
//!
//! Every class carries the same attribute layout so generators can be
//! uniform:
//! * `key`   — int, hash-indexed (unique);
//! * `a1`    — str categorical, `a2` — int, `a3` — int, B-tree-indexed
//!   (the *feature* pool: constraint antecedents and query predicates);
//! * `b1`    — str, `b2` — int, `b3` — str, hash-indexed
//!   (the *derived* pool: constraint consequents — kept disjoint from the
//!   feature pool so forced values can never invalidate an antecedent).

use sqo_catalog::{AttributeDef, Catalog, CatalogError, DataType, IndexKind};

/// Names of the five classes, in id order.
pub const CLASSES: [&str; 5] = ["supplier", "cargo", "vehicle", "driver", "department"];

/// Spine relationships: (name, many side, one side). The many side is total.
pub const SPINE_RELS: [(&str, &str, &str); 4] = [
    ("supplies", "cargo", "supplier"),
    ("collects", "cargo", "vehicle"),
    ("drives", "vehicle", "driver"),
    ("belongs_to", "driver", "department"),
];

/// Fan relationships: (name, left, right), many-to-many, non-total.
pub const FAN_RELS: [(&str, &str, &str); 2] =
    [("owns", "department", "vehicle"), ("contracts", "supplier", "department")];

/// Feature-pool attribute names (constraint antecedents / query predicates).
pub const FEATURE_ATTRS: [&str; 3] = ["a1", "a2", "a3"];

/// Derived-pool attribute names (constraint consequents).
pub const DERIVED_ATTRS: [&str; 3] = ["b1", "b2", "b3"];

fn standard_attrs() -> Vec<AttributeDef> {
    vec![
        AttributeDef::indexed("key", DataType::Int, IndexKind::Hash),
        AttributeDef::new("a1", DataType::Str),
        AttributeDef::new("a2", DataType::Int),
        AttributeDef::indexed("a3", DataType::Int, IndexKind::BTree),
        AttributeDef::new("b1", DataType::Str),
        AttributeDef::new("b2", DataType::Int),
        AttributeDef::indexed("b3", DataType::Str, IndexKind::Hash),
    ]
}

/// Builds the benchmark catalog.
pub fn bench_catalog() -> Result<Catalog, CatalogError> {
    let mut b = Catalog::builder();
    for name in CLASSES {
        b.class(name, standard_attrs())?;
    }
    for (name, many, one) in SPINE_RELS {
        let many = b_class(&b, many)?;
        let one = b_class(&b, one)?;
        b.many_to_one(name, many, one)?;
    }
    for (name, left, right) in FAN_RELS {
        let left_id = b_class(&b, left)?;
        let right_id = b_class(&b, right)?;
        b.relationship(
            name,
            sqo_catalog::RelationshipEnd::new(left_id, sqo_catalog::Multiplicity::Many, false),
            sqo_catalog::RelationshipEnd::new(right_id, sqo_catalog::Multiplicity::Many, false),
        )?;
    }
    b.build()
}

// CatalogBuilder has no name lookup before build; resolve through a tiny
// helper that relies on insertion order matching `CLASSES`.
fn b_class(
    _b: &sqo_catalog::CatalogBuilder,
    name: &str,
) -> Result<sqo_catalog::ClassId, CatalogError> {
    CLASSES
        .iter()
        .position(|&c| c == name)
        .map(|i| sqo_catalog::ClassId(i as u32))
        .ok_or_else(|| CatalogError::UnknownClass(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_table_41() {
        let cat = bench_catalog().unwrap();
        assert_eq!(cat.class_count(), 5);
        assert_eq!(cat.relationship_count(), 6);
    }

    #[test]
    fn spine_rels_are_total_to_one_from_many_side() {
        let cat = bench_catalog().unwrap();
        for (name, many, _) in SPINE_RELS {
            let rel = cat.rel_id(name).unwrap();
            let def = cat.relationship(rel).unwrap();
            let many_id = cat.class_id(many).unwrap();
            let end = def.end_for(many_id).unwrap();
            assert_eq!(end.multiplicity, sqo_catalog::Multiplicity::One, "{name}");
            assert!(end.total, "{name}");
        }
    }

    #[test]
    fn fan_rels_are_many_to_many() {
        let cat = bench_catalog().unwrap();
        for (name, _, _) in FAN_RELS {
            let def = cat.relationship(cat.rel_id(name).unwrap()).unwrap();
            assert_eq!(def.left.multiplicity, sqo_catalog::Multiplicity::Many);
            assert_eq!(def.right.multiplicity, sqo_catalog::Multiplicity::Many);
        }
    }

    #[test]
    fn every_class_has_the_standard_layout() {
        let cat = bench_catalog().unwrap();
        for class in CLASSES {
            for attr in ["key", "a1", "a2", "a3", "b1", "b2", "b3"] {
                assert!(cat.attr_ref(class, attr).is_ok(), "{class}.{attr}");
            }
            assert!(cat.is_indexed(cat.attr_ref(class, "a3").unwrap()));
            assert!(cat.is_indexed(cat.attr_ref(class, "b3").unwrap()));
            assert!(!cat.is_indexed(cat.attr_ref(class, "b1").unwrap()));
        }
    }

    #[test]
    fn schema_graph_is_connected_with_cycles() {
        // 5 nodes, 6 edges: at least two independent cycles through the fans.
        let cat = bench_catalog().unwrap();
        let n_edges = cat.relationship_count();
        let n_nodes = cat.class_count();
        assert!(n_edges > n_nodes - 1, "cycles required for rich path sets");
    }
}
