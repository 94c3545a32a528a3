//! The fixed deployment every run measures: schema, constraints, database
//! population and query pool.
//!
//! All of it is generated from [`FIXTURE_SEED`], not from `--seed`: the
//! run's seed draws the *request stream* (see `workloads.rs`), so runs with
//! different seeds send statistically equivalent traffic at one and the
//! same system and their metrics are comparable.

use std::collections::HashSet;
use std::sync::Arc;

use sqo_catalog::{Catalog, Value};
use sqo_constraints::{ConstraintStore, HornConstraint, StoreOptions};
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_snapshot::ValidationLevel;
use sqo_storage::{Database, IntegrityOptions, ObjectId};
use sqo_workload::bench_schema::bench_catalog;
use sqo_workload::{
    generate_constraints, generate_database, paper_query_set, ConstraintGenConfig, DataGenConfig,
    DbSize, Forcing, QueryGenConfig,
};

pub const FIXTURE_SEED: u64 = 42;

/// Distinct-fingerprint queries in the pool: four times the default plan
/// cache, so cycling through it never hits.
pub const POOL_SIZE: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's DB1: 52 objects per class, 77 links per relationship.
    Paper,
    /// 20,000 objects per class, 30,000 links per relationship: about
    /// 70 MiB resident, well past the last-level cache.
    Scaled,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Scaled => "scaled",
        }
    }

    fn data_config(self) -> DataGenConfig {
        match self {
            Scale::Paper => DbSize::Db1.config(FIXTURE_SEED),
            Scale::Scaled => DataGenConfig::new(20_000, 30_000, FIXTURE_SEED),
        }
    }
}

/// Tuples per class and link pairs per relationship, in id order: what a
/// loader has in hand before it touches `DatabaseBuilder`.
#[derive(Debug, Clone)]
pub struct Population {
    tuples: Vec<Vec<Vec<Value>>>,
    links: Vec<Vec<(ObjectId, ObjectId)>>,
}

impl Population {
    fn of(db: &Database) -> Self {
        let catalog = db.catalog();
        let tuples = catalog
            .classes()
            .map(|(class, _)| {
                (0..db.cardinality(class))
                    .map(|i| db.tuple(class, ObjectId(i as u32)).expect("id in range").to_vec())
                    .collect()
            })
            .collect();
        let links =
            catalog.relationships().map(|(rel, _)| db.links(rel).pairs().collect()).collect();
        Self { tuples, links }
    }
}

#[derive(Debug)]
pub struct Fixture {
    pub catalog: Arc<Catalog>,
    pub constraints: Vec<HornConstraint>,
    pub forcings: Vec<Forcing>,
    pub population: Population,
}

impl Fixture {
    pub fn generate(scale: Scale) -> Self {
        let catalog = Arc::new(bench_catalog().expect("benchmark schema builds"));
        let generated = generate_constraints(
            &catalog,
            ConstraintGenConfig { seed: FIXTURE_SEED, ..Default::default() },
        )
        .expect("constraint generation succeeds");
        let db = generate_database(Arc::clone(&catalog), &scale.data_config(), &generated.forcings)
            .expect("database generation succeeds");
        Self {
            population: Population::of(&db),
            catalog,
            constraints: generated.constraints,
            forcings: generated.forcings,
        }
    }

    /// The first `n` distinct-fingerprint queries of the paper's query
    /// generator run under consecutive seeds.
    pub fn query_pool(&self, n: usize) -> Vec<Query> {
        let mut seen = HashSet::new();
        let mut pool = Vec::with_capacity(n);
        for k in 0..10_000u64 {
            let config = QueryGenConfig { seed: FIXTURE_SEED + 1000 + k, ..Default::default() };
            for q in paper_query_set(&self.catalog, &self.forcings, 40, &config) {
                if seen.insert(q.fingerprint()) {
                    pool.push(q);
                    if pool.len() == n {
                        return pool;
                    }
                }
            }
        }
        panic!("the query generator yields fewer than {n} distinct queries");
    }

    /// The inputs one cold boot consumes. Cloning them is the caller's
    /// untimed preparation.
    pub fn boot_inputs(&self) -> (Population, Vec<HornConstraint>) {
        (self.population.clone(), self.constraints.clone())
    }

    /// Inputs in hand to ready to serve: load, index and check the
    /// database, compile the constraint store, start the service.
    pub fn cold_boot(
        &self,
        (population, constraints): (Population, Vec<HornConstraint>),
        config: ServiceConfig,
    ) -> QueryService {
        let db = self.load_database(population);
        let store = self.build_store(constraints);
        QueryService::with_config(Arc::new(store), Arc::new(db), config)
    }

    pub fn load_database(&self, population: Population) -> Database {
        let mut b = Database::builder(Arc::clone(&self.catalog));
        for ((class, _), extent) in self.catalog.classes().zip(population.tuples) {
            for tuple in extent {
                b.insert(class, tuple).expect("generated tuple is well-typed");
            }
        }
        for ((rel, _), pairs) in self.catalog.relationships().zip(population.links) {
            for (l, r) in pairs {
                b.link(rel, l, r).expect("generated link is in range");
            }
        }
        b.finalize(IntegrityOptions::default()).expect("generated instance has integrity")
    }

    pub fn build_store(&self, constraints: Vec<HornConstraint>) -> ConstraintStore {
        ConstraintStore::build(
            Arc::clone(&self.catalog),
            constraints,
            StoreOptions::paper_defaults(),
        )
        .expect("generated constraints compile")
    }
}

/// The warm-start boot: a service from snapshot bytes at the default
/// validation level.
pub fn warm_boot(snapshot: &[u8]) -> QueryService {
    QueryService::from_snapshot_bytes(snapshot, ValidationLevel::Standard, ServiceConfig::default())
        .expect("fixture snapshot loads")
}
