//! Random semantic-constraint generation over the benchmark schema.
//!
//! The paper attaches "an average of 3 semantic constraints" to each object
//! class. Generated constraints follow the Figure 2.2 shapes:
//!
//! * **intra**: `C.a1 = cat → C.b = forced` (c4-style);
//! * **inter**: `L.a1 = cat ∧ ⟨rel⟩ → R.b = forced` (c1/c2/c5-style);
//! * **chains**: with some probability the antecedent reads another
//!   constraint's *consequent* slot, so constraints fire in chains through
//!   the transformation table's fixpoint.
//!
//! Crucially, each consequent slot `(class, b-attr)` always forces the *same
//! value*, and antecedents read only the feature pool (or a forced slot's
//! exact value). This makes the data generator's forcing pass a monotone
//! fixpoint, so generated instances provably satisfy every generated
//! constraint (verified by `Database::check_constraint` in tests).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqo_catalog::{AttrId, AttrRef, Catalog, ClassId, RelId, Value};
use sqo_constraints::{ConstraintError, HornConstraint};
use sqo_query::{CompOp, Predicate};

use crate::bench_schema::{DERIVED_ATTRS, FEATURE_ATTRS};

/// Configuration for constraint generation.
#[derive(Debug, Clone, Copy)]
pub struct ConstraintGenConfig {
    /// Average constraints per class (the paper used 3).
    pub per_class: usize,
    pub seed: u64,
    /// Fraction of intra-class constraints (Figure 2.2 has 1 of 5).
    pub intra_fraction: f64,
    /// Fraction of consequents on the indexed derived attribute (`b3`),
    /// creating index-introduction opportunities.
    pub indexed_consequent_fraction: f64,
    /// Fraction of constraints whose antecedent chains on another
    /// constraint's consequent slot.
    pub chain_fraction: f64,
    /// Size of each class's `a1` category vocabulary (shared with the data
    /// and query generators).
    pub categories_per_class: usize,
}

impl Default for ConstraintGenConfig {
    fn default() -> Self {
        Self {
            per_class: 3,
            seed: 7,
            intra_fraction: 0.2,
            indexed_consequent_fraction: 0.3,
            chain_fraction: 0.15,
            categories_per_class: 8,
        }
    }
}

/// The category vocabulary for `class.a1`, shared by all generators.
pub fn category_value(catalog: &Catalog, class: ClassId, k: usize) -> Value {
    Value::str(format!("{}_cat{k}", catalog.class_name(class)))
}

/// The forced value for a consequent slot `(class, attr)`. One value per
/// slot, so concurrent forcings can never conflict.
pub fn forced_value(
    catalog: &Catalog,
    class: ClassId,
    attr: AttrId,
    ty: sqo_catalog::DataType,
) -> Value {
    match ty {
        sqo_catalog::DataType::Int => Value::Int(900_000 + class.0 as i64 * 100 + attr.0 as i64),
        _ => Value::str(format!("forced_{}_{}", catalog.class_name(class), attr.0)),
    }
}

/// One enforcement instruction for the data generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Forcing {
    /// `(class, attr, value)` equality that triggers the rule.
    pub antecedent: (ClassId, AttrId, Value),
    /// The correlating relationship (`None` for intra-class rules).
    pub rel: Option<RelId>,
    /// `(class, attr, value)` equality enforced when the antecedent holds.
    pub consequent: (ClassId, AttrId, Value),
}

/// Generated constraints plus their enforcement plan.
#[derive(Debug)]
pub struct GeneratedConstraints {
    pub constraints: Vec<HornConstraint>,
    pub forcings: Vec<Forcing>,
    pub config: ConstraintGenConfig,
}

/// Generates `per_class × #classes` constraints over `catalog` (which must
/// follow the benchmark layout: `a1..a3` feature and `b1..b3` derived
/// attributes on every class).
pub fn generate_constraints(
    catalog: &Catalog,
    config: ConstraintGenConfig,
) -> Result<GeneratedConstraints, ConstraintError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let classes: Vec<ClassId> = catalog.classes().map(|(id, _)| id).collect();
    let total = config.per_class * classes.len();

    let mut constraints = Vec::with_capacity(total);
    let mut forcings = Vec::with_capacity(total);

    for i in 0..total {
        let home = classes[i % classes.len()];
        let intra = rng.gen_bool(config.intra_fraction);
        // Pick the consequent's class: home (intra) or a neighbour via a
        // relationship (inter).
        let (cons_class, rel) = if intra {
            (home, None)
        } else {
            let rels = catalog.relationships_of(home);
            match rels.as_slice().choose(&mut rng) {
                Some(&r) => {
                    let def = catalog.relationship(r)?;
                    (def.other_end(home).expect("incident rel"), Some(r))
                }
                None => (home, None),
            }
        };

        // Antecedent: feature category, or a chain on a previously forced
        // slot of the home class.
        let chain_candidates: Vec<&Forcing> =
            forcings.iter().filter(|f: &&Forcing| f.consequent.0 == home).collect();
        let antecedent = if !chain_candidates.is_empty() && rng.gen_bool(config.chain_fraction) {
            let f = chain_candidates.choose(&mut rng).expect("non-empty");
            (f.consequent.0, f.consequent.1, f.consequent.2.clone())
        } else {
            let cat = rng.gen_range(0..config.categories_per_class);
            let a1 = catalog.attr_id(home, FEATURE_ATTRS[0])?;
            (home, a1, category_value(catalog, home, cat))
        };

        // Consequent slot: derived attr; `b3` (indexed) with the configured
        // probability.
        let cons_attr_name = if rng.gen_bool(config.indexed_consequent_fraction) {
            DERIVED_ATTRS[2]
        } else if rng.gen_bool(0.5) {
            DERIVED_ATTRS[0]
        } else {
            DERIVED_ATTRS[1]
        };
        let cons_attr = catalog.attr_id(cons_class, cons_attr_name)?;
        let cons_ty = catalog.attr_type(AttrRef::new(cons_class, cons_attr))?;
        let cons_value = forced_value(catalog, cons_class, cons_attr, cons_ty);

        // Skip degenerate chains (antecedent slot == consequent slot).
        if antecedent.0 == cons_class && antecedent.1 == cons_attr {
            continue;
        }

        let ante_pred = Predicate::sel(
            AttrRef::new(antecedent.0, antecedent.1),
            CompOp::Eq,
            antecedent.2.clone(),
        );
        let cons_pred =
            Predicate::sel(AttrRef::new(cons_class, cons_attr), CompOp::Eq, cons_value.clone());
        let constraint = HornConstraint::new(
            catalog,
            format!("g{i}"),
            vec![ante_pred],
            rel.into_iter().collect(),
            cons_pred,
            vec![],
        )?;
        constraints.push(constraint);
        forcings.push(Forcing { antecedent, rel, consequent: (cons_class, cons_attr, cons_value) });
    }
    Ok(GeneratedConstraints { constraints, forcings, config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_schema::bench_catalog;
    use sqo_constraints::ConstraintClass;

    #[test]
    fn generates_about_per_class_times_classes() {
        let cat = bench_catalog().unwrap();
        let g = generate_constraints(&cat, ConstraintGenConfig::default()).unwrap();
        assert!(g.constraints.len() >= 12, "{}", g.constraints.len());
        assert!(g.constraints.len() <= 15);
        assert_eq!(g.constraints.len(), g.forcings.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let cat = bench_catalog().unwrap();
        let a = generate_constraints(&cat, ConstraintGenConfig::default()).unwrap();
        let b = generate_constraints(&cat, ConstraintGenConfig::default()).unwrap();
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.forcings, b.forcings);
        let c = generate_constraints(&cat, ConstraintGenConfig { seed: 99, ..Default::default() })
            .unwrap();
        assert_ne!(a.constraints, c.constraints);
    }

    #[test]
    fn mix_of_intra_and_inter() {
        let cat = bench_catalog().unwrap();
        let g =
            generate_constraints(&cat, ConstraintGenConfig { per_class: 8, ..Default::default() })
                .unwrap();
        let intra =
            g.constraints.iter().filter(|c| c.classification() == ConstraintClass::Intra).count();
        let inter = g.constraints.len() - intra;
        assert!(intra > 0, "expected some intra-class constraints");
        assert!(inter > intra, "inter-class should dominate (Figure 2.2 ratio)");
    }

    #[test]
    fn inter_constraints_carry_their_relationship() {
        let cat = bench_catalog().unwrap();
        let g = generate_constraints(&cat, ConstraintGenConfig::default()).unwrap();
        for (c, f) in g.constraints.iter().zip(&g.forcings) {
            match f.rel {
                Some(r) => assert_eq!(c.relationships, vec![r], "{}", c.name),
                None => assert!(c.relationships.is_empty(), "{}", c.name),
            }
        }
    }

    #[test]
    fn consequent_slots_force_consistent_values() {
        // Two constraints sharing a consequent slot must force the same
        // value — the no-conflict invariant of the forcing pass.
        let cat = bench_catalog().unwrap();
        let g =
            generate_constraints(&cat, ConstraintGenConfig { per_class: 10, ..Default::default() })
                .unwrap();
        use std::collections::HashMap;
        let mut slot_values: HashMap<(ClassId, AttrId), &Value> = HashMap::new();
        for f in &g.forcings {
            let (c, a, v) = (&f.consequent.0, &f.consequent.1, &f.consequent.2);
            if let Some(prev) = slot_values.insert((*c, *a), v) {
                assert_eq!(prev, v, "conflicting forced values for slot");
            }
        }
    }
}
