//! A constructive data generator for the paper's Figure 2.1 schema that
//! satisfies the Figure 2.2 constraints c1–c5 by construction. Used by the
//! examples and the end-to-end tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_catalog::{Catalog, Value};
use sqo_storage::{Database, IntegrityOptions, ObjectId, StorageError};
use std::sync::Arc;

/// Size knobs for the logistics instance.
#[derive(Debug, Clone, Copy)]
pub struct LogisticsConfig {
    pub suppliers: usize,
    pub vehicles: usize,
    pub cargoes: usize,
    pub engines: usize,
    pub employees: usize,
    pub managers: usize,
    pub drivers: usize,
    pub departments: usize,
    pub seed: u64,
}

impl Default for LogisticsConfig {
    fn default() -> Self {
        Self {
            suppliers: 25,
            vehicles: 40,
            cargoes: 160,
            engines: 40,
            employees: 30,
            managers: 6,
            drivers: 12,
            departments: 5,
            seed: 91,
        }
    }
}

/// Builds a Figure 2.1 database honoring c1–c5:
/// 1. refrigerated trucks carry only frozen food;
/// 2. frozen food comes only from SFI (supplier 0);
/// 3. a driver's license class covers every vehicle they drive;
/// 4. managers hold the rank "research staff member";
/// 5. development-department employees are cleared "top secret".
pub fn logistics_database(
    catalog: Arc<Catalog>,
    config: &LogisticsConfig,
) -> Result<Database, StorageError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = Database::builder(Arc::clone(&catalog));
    let supplier = catalog.class_id("supplier").expect("figure21 catalog");
    let cargo = catalog.class_id("cargo").expect("figure21 catalog");
    let vehicle = catalog.class_id("vehicle").expect("figure21 catalog");
    let engine = catalog.class_id("engine").expect("figure21 catalog");
    let employee = catalog.class_id("employee").expect("figure21 catalog");
    let manager = catalog.class_id("manager").expect("figure21 catalog");
    let driver = catalog.class_id("driver").expect("figure21 catalog");
    let department = catalog.class_id("department").expect("figure21 catalog");

    // Suppliers: SFI first (constraint c2's witness).
    for i in 0..config.suppliers {
        let name = if i == 0 { "SFI".to_string() } else { format!("supplier{i}") };
        b.insert(supplier, vec![Value::str(name), Value::str(format!("{i} Market Rd"))])?;
    }

    // Drivers: license classes 1..=5.
    let mut driver_class = Vec::with_capacity(config.drivers);
    for i in 0..config.drivers {
        let lc = rng.gen_range(1..=5i64);
        driver_class.push(lc);
        b.insert(
            driver,
            vec![
                Value::str(format!("driver{i}")),
                Value::str("secret"),
                Value::str("staff"),
                Value::Int(10_000 + i as i64),
                Value::Int(lc),
                Value::Int(1990 - rng.gen_range(0..10i64)),
            ],
        )?;
    }

    // Vehicles: ~1/4 refrigerated trucks; class bounded by the driver's
    // license (c3).
    let mut vehicle_is_reefer = Vec::with_capacity(config.vehicles);
    let mut vehicle_driver = Vec::with_capacity(config.vehicles);
    for i in 0..config.vehicles {
        let reefer = i % 4 == 0;
        vehicle_is_reefer.push(reefer);
        let d = rng.gen_range(0..config.drivers);
        vehicle_driver.push(d);
        let class = rng.gen_range(1..=driver_class[d]);
        b.insert(
            vehicle,
            vec![
                Value::Int(i as i64),
                Value::str(if reefer { "refrigerated truck" } else { "flatbed" }),
                Value::Int(class),
            ],
        )?;
    }

    // Engines: one per vehicle (eng_comp is total on the vehicle side).
    for i in 0..config.engines.max(config.vehicles) {
        b.insert(engine, vec![Value::Int(i as i64), Value::Int(rng.gen_range(1000..4000))])?;
    }

    // Departments: development first (c5's witness).
    for i in 0..config.departments {
        let name = if i == 0 { "development".to_string() } else { format!("dept{i}") };
        b.insert(department, vec![Value::str(name), Value::str(format!("class{}", i % 3))])?;
    }

    // Employees: development members get top-secret clearance (c5). The
    // department choice is recorded so the `belongs_to` links agree with the
    // clearance rule.
    let mut emp_dept = Vec::with_capacity(config.employees);
    for i in 0..config.employees {
        let dept = rng.gen_range(0..config.departments);
        emp_dept.push(dept);
        let clearance = if dept == 0 { "top secret" } else { "secret" };
        b.insert(
            employee,
            vec![Value::str(format!("employee{i}")), Value::str(clearance), Value::str("staff")],
        )?;
    }

    // Managers: rank fixed by c4. (Subclass extents are independent.)
    for i in 0..config.managers {
        b.insert(
            manager,
            vec![
                Value::str(format!("manager{i}")),
                Value::str("secret"),
                Value::str("research staff member"),
            ],
        )?;
    }

    // Cargoes: cargo on a refrigerated truck is frozen food (c1), and frozen
    // food ships from SFI (c2).
    for i in 0..config.cargoes {
        let v = rng.gen_range(0..config.vehicles);
        let frozen = vehicle_is_reefer[v];
        let desc = if frozen {
            "frozen food".to_string()
        } else {
            ["dry goods", "furniture", "textiles"][rng.gen_range(0..3usize)].to_string()
        };
        let s = if frozen { 0 } else { rng.gen_range(1..config.suppliers) };
        let oid = b.insert(
            cargo,
            vec![Value::Int(i as i64), Value::str(desc), Value::Int(rng.gen_range(1..100))],
        )?;
        b.link(catalog.rel_id("supplies").expect("rel"), oid, ObjectId(s as u32))?;
        b.link(catalog.rel_id("collects").expect("rel"), oid, ObjectId(v as u32))?;
    }

    // Vehicle links: engine + driver.
    for (i, &driver) in vehicle_driver.iter().enumerate().take(config.vehicles) {
        b.link(catalog.rel_id("eng_comp").expect("rel"), ObjectId(i as u32), ObjectId(i as u32))?;
        b.link(
            catalog.rel_id("drives").expect("rel"),
            ObjectId(i as u32),
            ObjectId(driver as u32),
        )?;
    }

    // Employee department links, consistent with the recorded choices.
    let belongs = catalog.rel_id("belongs_to").expect("rel");
    for (i, &dept) in emp_dept.iter().enumerate() {
        b.link(belongs, ObjectId(i as u32), ObjectId(dept as u32))?;
    }
    b.finalize(IntegrityOptions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;
    use sqo_constraints::figure22;

    #[test]
    fn instance_satisfies_figure22() {
        let catalog = Arc::new(figure21().unwrap());
        let db = logistics_database(Arc::clone(&catalog), &LogisticsConfig::default()).unwrap();
        for c in figure22(&catalog).unwrap() {
            let v = db.check_constraint(&c);
            assert!(v.is_empty(), "{} violated: {:?}", c.name, &v[..v.len().min(3)]);
        }
    }

    #[test]
    fn cardinalities_follow_config() {
        let catalog = Arc::new(figure21().unwrap());
        let cfg = LogisticsConfig::default();
        let db = logistics_database(Arc::clone(&catalog), &cfg).unwrap();
        assert_eq!(db.cardinality(catalog.class_id("supplier").unwrap()), cfg.suppliers);
        assert_eq!(db.cardinality(catalog.class_id("cargo").unwrap()), cfg.cargoes);
        assert_eq!(db.cardinality(catalog.class_id("vehicle").unwrap()), cfg.vehicles);
    }

    #[test]
    fn every_cargo_linked() {
        let catalog = Arc::new(figure21().unwrap());
        let db = logistics_database(Arc::clone(&catalog), &LogisticsConfig::default()).unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        assert_eq!(db.links(supplies).link_count() as usize, 160);
        assert_eq!(db.links(collects).link_count() as usize, 160);
        let cargo = catalog.class_id("cargo").unwrap();
        for c in 0..db.cardinality(cargo) as u32 {
            assert_eq!(db.links(supplies).from_left(ObjectId(c)).len(), 1, "cargo {c}");
        }
    }
}
