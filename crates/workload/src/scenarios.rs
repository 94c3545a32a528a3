//! Packaged experiment scenarios: everything §4's evaluation needs, built
//! from one seed.

use sqo_catalog::Catalog;
use sqo_constraints::{ConstraintStore, StoreOptions};
use sqo_query::Query;
use sqo_storage::Database;
use std::sync::Arc;

use crate::bench_schema::bench_catalog;
use crate::constraint_gen::{generate_constraints, ConstraintGenConfig, Forcing};
use crate::data_gen::{generate_database, table41_configs, DataGenConfig};
use crate::query_gen::{paper_query_set, QueryGenConfig};

/// The four database instances of Table 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbSize {
    Db1,
    Db2,
    Db3,
    Db4,
}

impl DbSize {
    pub const ALL: [DbSize; 4] = [DbSize::Db1, DbSize::Db2, DbSize::Db3, DbSize::Db4];

    pub fn name(self) -> &'static str {
        match self {
            DbSize::Db1 => "DB1",
            DbSize::Db2 => "DB2",
            DbSize::Db3 => "DB3",
            DbSize::Db4 => "DB4",
        }
    }

    pub fn config(self, seed: u64) -> DataGenConfig {
        table41_configs(seed)[match self {
            DbSize::Db1 => 0,
            DbSize::Db2 => 1,
            DbSize::Db3 => 2,
            DbSize::Db4 => 3,
        }]
    }
}

/// One fully-provisioned experiment environment.
#[derive(Debug)]
pub struct PaperScenario {
    pub catalog: Arc<Catalog>,
    pub store: ConstraintStore,
    pub db: Database,
    pub queries: Vec<Query>,
    pub forcings: Vec<Forcing>,
    pub db_size: DbSize,
}

/// Builds the §4 environment for one Table 4.1 instance: benchmark schema,
/// ~3 constraints per class, a
/// constraint-satisfying database, and 40 random path queries.
pub fn paper_scenario(size: DbSize, seed: u64) -> PaperScenario {
    paper_scenario_with(
        size,
        seed,
        ConstraintGenConfig { seed, ..Default::default() },
        QueryGenConfig { seed: seed.wrapping_add(1), ..Default::default() },
        StoreOptions::paper_defaults(),
    )
}

/// Fully parameterized scenario constructor (used by the ablations).
pub fn paper_scenario_with(
    size: DbSize,
    seed: u64,
    cgen: ConstraintGenConfig,
    qgen: QueryGenConfig,
    store_options: StoreOptions,
) -> PaperScenario {
    let catalog = Arc::new(bench_catalog().expect("benchmark schema builds"));
    let generated = generate_constraints(&catalog, cgen).expect("constraint generation succeeds");
    let db = generate_database(Arc::clone(&catalog), &size.config(seed), &generated.forcings)
        .expect("database generation succeeds");
    let store = ConstraintStore::build(Arc::clone(&catalog), generated.constraints, store_options)
        .expect("store builds");
    let queries = paper_query_set(&catalog, &generated.forcings, 40, &qgen);
    PaperScenario { catalog, store, db, queries, forcings: generated.forcings, db_size: size }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db1_scenario_is_complete() {
        let s = paper_scenario(DbSize::Db1, 42);
        assert_eq!(s.queries.len(), 40);
        assert!(s.store.len() >= 12, "the generated constraints");
        for (cid, _) in s.catalog.classes() {
            assert_eq!(s.db.cardinality(cid), 52);
        }
    }

    #[test]
    fn scenario_data_satisfies_declared_constraints() {
        let s = paper_scenario(DbSize::Db1, 7);
        for (_, c) in s.store.constraints() {
            assert!(s.db.check_constraint(c).is_empty(), "{} violated", c.name);
        }
    }

    #[test]
    fn all_sizes_build() {
        for size in DbSize::ALL {
            let s = paper_scenario(size, 3);
            let expected = size.config(3).class_cardinality as usize;
            let cargo = s.catalog.class_id("cargo").unwrap();
            assert_eq!(s.db.cardinality(cargo), expected, "{}", size.name());
        }
    }
}
