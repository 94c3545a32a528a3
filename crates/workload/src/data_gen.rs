//! Database-instance generation for the Table 4.1 experiments.
//!
//! Instances honor the table's two knobs — average class cardinality and
//! average relationship cardinality — and are *repaired* against the
//! generated constraints by a monotone forcing fixpoint, so the optimizer's
//! trust in the constraint set is justified by construction (and checked by
//! tests via `Database::check_constraint`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_catalog::{Catalog, Multiplicity, Value};
use sqo_storage::{Database, IntegrityOptions, ObjectId, StorageError};
use std::sync::Arc;

use crate::bench_schema::{DERIVED_ATTRS, FEATURE_ATTRS};
use crate::constraint_gen::{category_value, Forcing};

/// Size parameters of one database instance (one column of Table 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataGenConfig {
    pub class_cardinality: u64,
    pub avg_rel_cardinality: u64,
    pub seed: u64,
    pub categories_per_class: usize,
}

impl DataGenConfig {
    pub fn new(class_cardinality: u64, avg_rel_cardinality: u64, seed: u64) -> Self {
        Self { class_cardinality, avg_rel_cardinality, seed, categories_per_class: 8 }
    }
}

/// The four instances of Table 4.1:
/// class cardinality 52 / 104 / 208 / 208, relationship cardinality
/// 77 / 154 / 308 / 616 ("66" in the published table read as the obvious
/// typo for 6 relationships).
pub fn table41_configs(seed: u64) -> [DataGenConfig; 4] {
    [
        DataGenConfig::new(52, 77, seed),
        DataGenConfig::new(104, 154, seed),
        DataGenConfig::new(208, 308, seed),
        DataGenConfig::new(208, 616, seed),
    ]
}

/// Generates a database over a benchmark-layout catalog, enforcing
/// `forcings` so every generated constraint holds.
pub fn generate_database(
    catalog: Arc<Catalog>,
    config: &DataGenConfig,
    forcings: &[Forcing],
) -> Result<Database, StorageError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.class_cardinality as usize;

    // ---- tuples ------------------------------------------------------------
    // Local representation first; forcing runs before loading.
    let mut extents: Vec<Vec<Vec<Value>>> = Vec::with_capacity(catalog.class_count());
    for (cid, cdef) in catalog.classes() {
        let mut extent = Vec::with_capacity(n);
        for i in 0..n {
            let mut tuple = Vec::with_capacity(cdef.attributes.len());
            for attr in &cdef.attributes {
                let v = match attr.name.as_str() {
                    "key" => Value::Int(i as i64),
                    a if a == FEATURE_ATTRS[0] => {
                        let k = rng.gen_range(0..config.categories_per_class);
                        category_value(&catalog, cid, k)
                    }
                    a if a == FEATURE_ATTRS[1] => Value::Int(rng.gen_range(0..100)),
                    a if a == FEATURE_ATTRS[2] => Value::Int(rng.gen_range(0..1000)),
                    a if a == DERIVED_ATTRS[0] => Value::str(format!("v{}", rng.gen_range(0..50))),
                    a if a == DERIVED_ATTRS[1] => Value::Int(rng.gen_range(0..500)),
                    a if a == DERIVED_ATTRS[2] => Value::str(format!("w{}", rng.gen_range(0..50))),
                    _ => default_value(attr.ty, &mut rng),
                };
                tuple.push(v);
            }
            extent.push(tuple);
        }
        extents.push(extent);
    }

    // ---- links -------------------------------------------------------------
    // Spine relationships (to-one + total from one side) link every object on
    // that side exactly once; fan relationships absorb the remaining link
    // budget implied by the average relationship cardinality.
    let rel_count = catalog.relationship_count();
    let spine: Vec<bool> = catalog
        .relationships()
        .map(|(_, def)| {
            (def.left.multiplicity == Multiplicity::One && def.left.total)
                || (def.right.multiplicity == Multiplicity::One && def.right.total)
        })
        .collect();
    let spine_links: u64 = spine.iter().filter(|&&s| s).count() as u64 * n as u64;
    let total_target = config.avg_rel_cardinality * rel_count as u64;
    let fan_count = spine.iter().filter(|&&s| !s).count() as u64;
    let fan_target = total_target.saturating_sub(spine_links).checked_div(fan_count).unwrap_or(0);

    let mut links: Vec<Vec<(ObjectId, ObjectId)>> = Vec::with_capacity(rel_count);
    for (rid, def) in catalog.relationships() {
        let ln = extents[def.left.class.index()].len();
        let rn = extents[def.right.class.index()].len();
        let mut pairs = Vec::new();
        if spine[rid.index()] {
            // The to-one+total side gets exactly one partner each.
            if def.left.multiplicity == Multiplicity::One && def.left.total {
                for l in 0..ln {
                    pairs.push((ObjectId(l as u32), ObjectId(rng.gen_range(0..rn) as u32)));
                }
            } else {
                for r in 0..rn {
                    pairs.push((ObjectId(rng.gen_range(0..ln) as u32), ObjectId(r as u32)));
                }
            }
        } else {
            let mut seen = std::collections::HashSet::new();
            let mut guard = 0;
            while (pairs.len() as u64) < fan_target && guard < fan_target * 20 + 100 {
                guard += 1;
                let l = rng.gen_range(0..ln) as u32;
                let r = rng.gen_range(0..rn) as u32;
                if seen.insert((l, r)) {
                    pairs.push((ObjectId(l), ObjectId(r)));
                }
            }
        }
        links.push(pairs);
    }

    // ---- forcing fixpoint ---------------------------------------------------
    // Monotone: attributes only ever move to their slot's forced value.
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 16 {
        changed = false;
        rounds += 1;
        for f in forcings {
            let (ac, aa, av) = (&f.antecedent.0, f.antecedent.1, &f.antecedent.2);
            let (cc, ca, cv) = (&f.consequent.0, f.consequent.1, &f.consequent.2);
            match f.rel {
                None => {
                    debug_assert_eq!(ac, cc, "intra forcing spans one class");
                    for tuple in extents[ac.index()].iter_mut() {
                        if &tuple[aa.index()] == av && &tuple[ca.index()] != cv {
                            tuple[ca.index()] = cv.clone();
                            changed = true;
                        }
                    }
                }
                Some(rel) => {
                    let def = catalog.relationship(rel).expect("generated rel");
                    let (lc, _) = def.classes();
                    for &(l, r) in &links[rel.index()] {
                        // Orient the pair to (antecedent object, consequent object).
                        let (ante_oid, cons_oid) = if *ac == lc { (l, r) } else { (r, l) };
                        let holds = {
                            let t = &extents[ac.index()][ante_oid.index()];
                            &t[aa.index()] == av
                        };
                        if holds {
                            let t = &mut extents[cc.index()][cons_oid.index()];
                            if &t[ca.index()] != cv {
                                t[ca.index()] = cv.clone();
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- load ---------------------------------------------------------------
    let mut b = Database::builder(Arc::clone(&catalog));
    for (cid, _) in catalog.classes() {
        for tuple in extents[cid.index()].drain(..) {
            b.insert(cid, tuple)?;
        }
    }
    for (rid, _) in catalog.relationships() {
        for &(l, r) in &links[rid.index()] {
            b.link(rid, l, r)?;
        }
    }
    b.finalize(IntegrityOptions)
}

fn default_value(ty: sqo_catalog::DataType, rng: &mut StdRng) -> Value {
    match ty {
        sqo_catalog::DataType::Int => Value::Int(rng.gen_range(0..1000)),
        sqo_catalog::DataType::Float => Value::float(rng.gen_range(0.0..1000.0)).expect("finite"),
        sqo_catalog::DataType::Str => Value::str(format!("s{}", rng.gen_range(0..100))),
        sqo_catalog::DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_schema::bench_catalog;
    use crate::constraint_gen::{generate_constraints, ConstraintGenConfig};

    fn setup(
        card: u64,
        avg_rel: u64,
    ) -> (Arc<Catalog>, Database, crate::constraint_gen::GeneratedConstraints) {
        let catalog = Arc::new(bench_catalog().unwrap());
        let gen = generate_constraints(&catalog, ConstraintGenConfig::default()).unwrap();
        let db = generate_database(
            Arc::clone(&catalog),
            &DataGenConfig::new(card, avg_rel, 11),
            &gen.forcings,
        )
        .unwrap();
        (catalog, db, gen)
    }

    #[test]
    fn cardinalities_match_table41_config() {
        let (catalog, db, _) = setup(52, 77);
        for (cid, _) in catalog.classes() {
            assert_eq!(db.cardinality(cid), 52);
        }
        // Total links ≈ 6 × 77 (spine exact, fan bounded below by sampling).
        let total: u64 = catalog.relationships().map(|(rid, _)| db.links(rid).link_count()).sum();
        let target = 6 * 77;
        assert!(
            total as i64 >= target as i64 - 6 && total <= target + 6,
            "links {total} vs target {target}"
        );
    }

    #[test]
    fn generated_data_satisfies_generated_constraints() {
        let (_, db, gen) = setup(52, 77);
        for c in &gen.constraints {
            let v = db.check_constraint(c);
            assert!(v.is_empty(), "{} violated at {:?}", c.name, &v[..v.len().min(3)]);
        }
    }

    #[test]
    fn bigger_instances_also_satisfy_constraints() {
        let (_, db, gen) = setup(208, 616);
        for c in &gen.constraints {
            assert!(db.check_constraint(c).is_empty(), "{} violated", c.name);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (catalog, db1, gen) = setup(52, 77);
        let db2 =
            generate_database(Arc::clone(&catalog), &DataGenConfig::new(52, 77, 11), &gen.forcings)
                .unwrap();
        let key = catalog.attr_ref("cargo", "a2").unwrap();
        for i in 0..52u32 {
            assert_eq!(db1.value(key, ObjectId(i)).unwrap(), db2.value(key, ObjectId(i)).unwrap());
        }
    }

    #[test]
    fn integrity_declarations_hold() {
        // finalize() enforces total participation + multiplicity; reaching
        // here means the generator respected them. Spot-check fanout shape.
        let (catalog, db, _) = setup(52, 77);
        let supplies = catalog.rel_id("supplies").unwrap();
        let lk = db.links(supplies);
        assert_eq!(lk.link_count(), 52, "one link per cargo");
        for c in 0..52 {
            assert_eq!(lk.from_left(ObjectId(c)).len(), 1, "cargo {c} is to-one");
        }
    }

    #[test]
    fn table41_configs_shape() {
        let cfgs = table41_configs(1);
        assert_eq!(cfgs[0].class_cardinality, 52);
        assert_eq!(cfgs[1].class_cardinality, 104);
        assert_eq!(cfgs[2].class_cardinality, 208);
        assert_eq!(cfgs[3].class_cardinality, 208);
        assert_eq!(cfgs[2].avg_rel_cardinality, 308);
        assert_eq!(cfgs[3].avg_rel_cardinality, 616);
    }
}
