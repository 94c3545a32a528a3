//! The serving constraint store.
//!
//! A [`ConstraintStore`] holds the stated constraints in the order they
//! were filed, the exact inverted [`ConstraintIndex`]
//! that retrieves a query's relevant constraints, §3's predicate pool the
//! constraints point into ([`ConstraintStore::filed`]), and the store's
//! version.
//! The paper's §3 retrieves by per-class groups instead; that scheme, its
//! assignment policies and its waste metrics are a measured baseline and
//! live in `sqo-baseline` (`ConstraintGroups`).

use std::sync::Arc;

use sqo_catalog::{Catalog, ClassId};
use sqo_query::sync::{Counter, Epoch};
use sqo_query::Query;

use crate::error::ConstraintError;
use crate::horn::{ConstraintClass, ConstraintId, HornConstraint};
use crate::index::{ConstraintIndex, RetrievalScratch};
use crate::pool::{PredId, PredicatePool};

/// Store construction options. There are none: a store holds exactly the
/// constraints it is given.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions;

impl StoreOptions {
    /// The one configuration.
    pub fn paper_defaults() -> Self {
        Self
    }
}

/// The unambiguous cache identity of a store state: which store *instance*
/// (`generation`, globally unique per [`ConstraintStore`] ever constructed
/// in this process) at which of its semantic [`ConstraintStore::epoch`]s.
///
/// Epochs alone are **not** an identity: a copy-on-write successor starts
/// at `source.epoch() + 1`, a value the source can independently reach via
/// [`ConstraintStore::note_statistics_change`] — two stores with different
/// constraint sets then share an epoch, and an epoch-keyed plan cache can
/// serve a rewrite derived under the wrong constraints. Pairing the epoch
/// with a generation drawn from a process-global allocator makes collisions
/// impossible (property-tested in `tests/prop_store_version.rs`).
///
/// Only [`ConstraintStore::version`] makes one: the fields are private, so
/// no version can be forged from parts, and arithmetic on an epoch read
/// off one can never fake an identity.
///
/// ```compile_fail,E0451
/// # use sqo_constraints::StoreVersion;
/// let forged = StoreVersion { generation: 0, epoch: 1 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreVersion {
    generation: u64,
    epoch: u64,
}

impl StoreVersion {
    /// Globally unique id of the store instance.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The instance's semantic epoch at observation time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Allocates a process-globally unique store generation.
fn next_generation() -> u64 {
    static NEXT_GENERATION: Counter = Counter::new(0);
    NEXT_GENERATION.add(1)
}

/// A filed constraint's predicates as ids into the store's pool (§3: the
/// constraints "contain only pointers to relevant predicates").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filed<'a> {
    pub antecedents: &'a [PredId],
    pub consequent: PredId,
    /// Whether the consequent sits on an indexed attribute — with the
    /// classification, the branch condition of the paper's Tables 3.1/3.2.
    pub consequent_indexed: bool,
    pub classification: ConstraintClass,
}

/// Where one constraint's ids sit: its antecedents are
/// `antecedent_ids[start..end]`.
#[derive(Debug, Clone, Copy)]
struct FiledAt {
    start: u32,
    end: u32,
    consequent: PredId,
    consequent_indexed: bool,
    classification: ConstraintClass,
}

/// The semantic-constraint store.
#[derive(Debug)]
pub struct ConstraintStore {
    catalog: Arc<Catalog>,
    constraints: Vec<HornConstraint>,
    /// Exact inverted index over `constraints`, the retrieval path
    /// ([`ConstraintStore::relevant_into`]).
    index: ConstraintIndex,
    /// Every constraint's predicates, interned once when it is filed;
    /// derived from `constraints`, never persisted. Shared with the
    /// transformation tables built from it, which point into it.
    pool: Arc<PredicatePool>,
    /// The antecedent ids of every constraint, end to end.
    antecedent_ids: Vec<PredId>,
    /// Parallel to `constraints`.
    filed: Vec<FiledAt>,
    /// Monotone semantic version: bumped whenever the constraint population
    /// or the statistics the optimizer consults change. Downstream caches
    /// key on the full [`StoreVersion`] (generation + epoch) — the epoch
    /// alone is ambiguous across copy-on-write store copies.
    epoch: Epoch,
    /// Process-globally unique instance id (see [`StoreVersion`]).
    generation: u64,
}

impl ConstraintStore {
    /// Builds the store: runs [`HornConstraint::new`]'s check on every
    /// constraint (it may have been built against another catalog, or as a
    /// struct literal), then files them in input order. Nothing is
    /// derived: a chain of constraints fires through the transformation
    /// table's fixpoint.
    pub fn build(
        catalog: Arc<Catalog>,
        constraints: Vec<HornConstraint>,
        _options: StoreOptions,
    ) -> Result<Self, ConstraintError> {
        for c in &constraints {
            c.check(&catalog)?;
        }
        let mut store = Self {
            index: ConstraintIndex::new(catalog.class_count(), catalog.relationship_count()),
            catalog,
            constraints: Vec::with_capacity(constraints.len()),
            pool: Arc::default(),
            antecedent_ids: Vec::new(),
            filed: Vec::with_capacity(constraints.len()),
            epoch: Epoch::new(0),
            generation: next_generation(),
        };
        for constraint in constraints {
            store.file(constraint);
        }
        Ok(store)
    }

    // ---- versioning & growth --------------------------------------------

    /// The store's current semantic epoch. Two calls returning the same
    /// value bracket a window in which no constraint or statistics change
    /// occurred **on this instance**, so any optimization derived in between
    /// is still valid. Cross-instance comparisons need [`ConstraintStore::version`].
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// This instance's process-globally unique generation id.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The store's unambiguous cache identity: `(generation, epoch)`.
    pub fn version(&self) -> StoreVersion {
        StoreVersion { generation: self.generation, epoch: self.epoch() }
    }

    /// Records an external change to the statistics the optimizer's cost
    /// decisions consult (e.g. a refreshed catalog snapshot), bumping the
    /// epoch so cached rewrites are re-derived. Returns the new epoch.
    pub fn note_statistics_change(&self) -> u64 {
        self.epoch.bump()
    }

    /// Raises the epoch to at least `floor` (monotone; never lowers it).
    /// A decoded store is raised to its saved epoch, and a store swapped in
    /// for another one past the old store's epoch, so that epoch
    /// *sequences* keep increasing for readability — cache identity does
    /// not depend on it (each store has its own generation, so its versions
    /// can never collide with another store's).
    pub fn raise_epoch_to(&self, floor: u64) {
        self.epoch.raise(floor);
    }

    /// A new store equal to this one plus `constraint`, at exactly one epoch
    /// past this store's, and the id the constraint received in it: the one
    /// way a store grows. A constraint [`HornConstraint::new`]'s check
    /// refuses is a typed error and leaves this store as it was. Stores are
    /// shared behind an `Arc`: the serving layer swaps the new store in
    /// while in-flight queries drain against the old one, and combines the
    /// id with [`ConstraintStore::touched_classes`] to invalidate only the
    /// cache entries whose class set overlaps the new constraint's.
    ///
    /// The copy is **incremental**: the constraints, the index and the
    /// pool are cloned as-is and only the new constraint is filed.
    pub fn with_constraint(
        &self,
        constraint: HornConstraint,
    ) -> Result<(Self, ConstraintId), ConstraintError> {
        constraint.check(&self.catalog)?;
        let mut store = Self {
            catalog: Arc::clone(&self.catalog),
            constraints: self.constraints.clone(),
            index: self.index.clone(),
            pool: Arc::clone(&self.pool),
            antecedent_ids: self.antecedent_ids.clone(),
            filed: self.filed.clone(),
            epoch: Epoch::new(self.epoch() + 1),
            // A fresh generation: the successor is a *different* store even
            // when the source later reaches the same epoch value.
            generation: next_generation(),
        };
        let id = store.file(constraint);
        Ok((store, id))
    }

    /// The one filing step of [`ConstraintStore::build`] and
    /// [`ConstraintStore::with_constraint`]: index the (checked)
    /// constraint, intern its predicates into the store's pool, and append
    /// it.
    fn file(&mut self, constraint: HornConstraint) -> ConstraintId {
        let id = ConstraintId(self.constraints.len() as u32);
        self.index.insert(id, &constraint);
        // A table still pointing into the pool keeps the old one.
        let pool = Arc::make_mut(&mut self.pool);
        let start = self.antecedent_ids.len() as u32;
        self.antecedent_ids.extend(constraint.antecedents.iter().map(|p| pool.intern(p)));
        self.filed.push(FiledAt {
            start,
            end: self.antecedent_ids.len() as u32,
            consequent: pool.intern(&constraint.consequent),
            consequent_indexed: constraint.consequent.is_indexed(&self.catalog),
            classification: constraint.classification(),
        });
        self.constraints.push(constraint);
        id
    }

    /// The classes constraint `id` references — exactly the class set a
    /// cached query must overlap for `id` to ever become relevant to it
    /// (relevance requires `classes(id) ⊆ classes(query)`, so disjointness
    /// proves the cached rewrite untouched), and exactly the by-class
    /// postings of the [`ConstraintIndex`] that carry `id`.
    pub fn touched_classes(&self, id: ConstraintId) -> &[ClassId] {
        &self.constraints[id.index()].classes
    }

    // ---- retrieval -------------------------------------------------------

    /// The exact relevant set: every constraint whose classes and
    /// relationships the query names, as ascending [`ConstraintId`]s. The
    /// production path; writes into `out` without allocating (given a warm
    /// `scratch`) and reads nothing but the index. Equal to
    /// [`ConstraintStore::relevant_by_scan`] (property-tested in
    /// `tests/prop_index_recall.rs`).
    pub fn relevant_into(
        &self,
        query: &Query,
        scratch: &mut RetrievalScratch,
        out: &mut Vec<ConstraintId>,
    ) {
        self.index.relevant_into(query, scratch, out);
    }

    /// [`ConstraintStore::relevant_into`] into a fresh vector.
    pub fn relevant_for(&self, query: &Query) -> Vec<ConstraintId> {
        let mut out = Vec::new();
        self.relevant_into(query, &mut RetrievalScratch::new(), &mut out);
        out
    }

    /// The secondary index over the store's constraints.
    pub fn index(&self) -> &ConstraintIndex {
        &self.index
    }

    /// The relevant set by testing every constraint in turn: the reference
    /// the index is property-tested against.
    pub fn relevant_by_scan(&self, query: &Query) -> Vec<ConstraintId> {
        self.constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.relevant_to(query))
            .map(|(i, _)| ConstraintId(i as u32))
            .collect()
    }

    // ---- accessors ---------------------------------------------------------

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    pub fn constraint(&self, id: ConstraintId) -> &HornConstraint {
        &self.constraints[id.index()]
    }

    /// Constraint `id`'s predicates as ids into [`ConstraintStore::pool`].
    pub fn filed(&self, id: ConstraintId) -> Filed<'_> {
        let at = self.filed[id.index()];
        Filed {
            antecedents: &self.antecedent_ids[at.start as usize..at.end as usize],
            consequent: at.consequent,
            consequent_indexed: at.consequent_indexed,
            classification: at.classification,
        }
    }

    /// The predicates of every constraint, each once (§3's "separate
    /// structure").
    pub fn pool(&self) -> &Arc<PredicatePool> {
        &self.pool
    }

    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &HornConstraint)> {
        self.constraints.iter().enumerate().map(|(i, c)| (ConstraintId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::figure22;
    use sqo_catalog::example::figure21;
    use sqo_query::{CompOp, QueryBuilder};

    fn setup() -> (Arc<Catalog>, ConstraintStore) {
        let catalog = Arc::new(figure21().unwrap());
        let constraints = figure22(&catalog).unwrap();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            constraints,
            StoreOptions::paper_defaults(),
        )
        .unwrap();
        (catalog, store)
    }

    fn figure23_query(catalog: &Catalog) -> Query {
        QueryBuilder::new(catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "SFI")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap()
    }

    #[test]
    fn relevant_set_for_figure23() {
        let (catalog, store) = setup();
        let q = figure23_query(&catalog);
        let relevant = store.relevant_for(&q);
        let names: Vec<&str> =
            relevant.iter().map(|&id| store.constraint(id).name.as_str()).collect();
        assert!(names.contains(&"c1"), "{names:?}");
        assert!(names.contains(&"c2"), "{names:?}");
        assert!(!names.contains(&"c3"), "driver/vehicle constraint is irrelevant: {names:?}");
        assert!(!names.contains(&"c4"), "{names:?}");
        assert!(!names.contains(&"c5"), "{names:?}");
    }

    #[test]
    fn epoch_starts_at_zero_and_bumps_on_changes() {
        let (_, store) = setup();
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.note_statistics_change(), 1);
        assert_eq!(store.epoch(), 1);
        // Retrieval is semantics-preserving: no bump.
        let _ = store.relevant_for(&Query::new());
        assert_eq!(store.epoch(), 1);
        let extra = store.constraint(ConstraintId(0)).clone();
        let before = store.len();
        let (bigger, id) = store.with_constraint(extra).unwrap();
        assert_eq!(bigger.epoch(), 2);
        assert_eq!(bigger.len(), before + 1);
        assert_eq!(id.index(), before);
        assert_eq!(bigger.index().len(), bigger.len(), "the added constraint is indexed");
    }

    #[test]
    fn raise_epoch_is_monotone() {
        let (_, store) = setup();
        store.raise_epoch_to(7);
        assert_eq!(store.epoch(), 7);
        store.raise_epoch_to(3); // never lowers
        assert_eq!(store.epoch(), 7);
    }

    #[test]
    fn with_constraint_advances_epoch_and_preserves_recall() {
        let (catalog, store) = setup();
        store.note_statistics_change();
        let extra = store.constraint(ConstraintId(0)).clone();
        let bigger = store.with_constraint(extra).unwrap().0;
        assert!(bigger.epoch() > store.epoch(), "epochs must keep increasing across swaps");
        assert_eq!(bigger.len(), store.len() + 1);
        // The index stays exact across the copy.
        let q = figure23_query(&catalog);
        assert_eq!(bigger.relevant_for(&q), bigger.relevant_by_scan(&q));
    }

    #[test]
    fn cow_copies_get_their_own_generation() {
        // The epoch-collision regression: the source can independently reach
        // the derived store's epoch, but the *versions* must stay distinct.
        let (_, store) = setup();
        let extra = store.constraint(ConstraintId(0)).clone();
        let derived = store.with_constraint(extra).unwrap().0;
        store.note_statistics_change();
        assert_eq!(store.epoch(), derived.epoch(), "the collision the old scheme keyed on");
        assert_ne!(store.generation(), derived.generation());
        assert_ne!(store.version(), derived.version());
        // In-place mutation keeps the generation; only the epoch moves.
        let g = store.generation();
        store.note_statistics_change();
        assert_eq!(store.generation(), g);
    }

    #[test]
    fn touched_classes_come_from_the_index_postings() {
        let (catalog, store) = setup();
        // c1 relates vehicles and the cargo they collect.
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let c1 = store.constraint(ConstraintId(0)).clone();
        let (bigger, id) = store.with_constraint(c1.clone()).unwrap();
        let touched = bigger.touched_classes(id);
        assert_eq!(touched, c1.classes);
        assert!(touched.contains(&cargo) && touched.contains(&vehicle), "{touched:?}");
        // The invariant touched_classes relies on, for every constraint and
        // every class: the by-class posting lists `id` exactly where
        // touched_classes names the class.
        for s in [&store, &bigger] {
            for (id, _) in s.constraints() {
                for (class, _) in catalog.classes() {
                    assert_eq!(
                        s.index().of_class(class).contains(&id),
                        s.touched_classes(id).contains(&class),
                        "{id} / {class}"
                    );
                }
            }
        }
    }

    #[test]
    fn foreign_catalog_constraint_is_a_typed_error() {
        use sqo_catalog::{CatalogError, RelId};
        let (catalog, store) = setup();
        let c1 = store.constraint(ConstraintId(0)).clone();
        // As if validated against a larger catalog: a class, then a
        // relationship, this store has no posting list for.
        let far_class = ClassId(catalog.class_count() as u32);
        let far_rel = RelId(catalog.relationship_count() as u32);
        let mut bad_class = c1.clone();
        bad_class.classes.push(far_class);
        let mut bad_rel = c1.clone();
        bad_rel.relationships.push(far_rel);
        let class_err = ConstraintError::Catalog(CatalogError::UnknownClassId(far_class));
        let rel_err = ConstraintError::Catalog(CatalogError::UnknownRelId(far_rel));

        let (len, version) = (store.len(), store.version());
        assert_eq!(store.with_constraint(bad_class.clone()).unwrap_err(), class_err);
        assert_eq!(store.with_constraint(bad_rel.clone()).unwrap_err(), rel_err);
        assert_eq!(
            (store.len(), store.version()),
            (len, version),
            "a refused constraint leaves the store as it was"
        );
        assert_eq!(store.index().len(), len);
        for bad in [bad_class, bad_rel] {
            let built = ConstraintStore::build(
                Arc::clone(&catalog),
                vec![c1.clone(), bad],
                StoreOptions::paper_defaults(),
            );
            assert!(matches!(built, Err(ConstraintError::Catalog(_))), "{built:?}");
        }
    }

    /// The class set is checked, not trusted. `⊤ → cargo.quantity >= 0`
    /// stated over `{vehicle}` alone would be retrieved for a vehicle-only
    /// query and add a predicate on a class the query does not name.
    #[test]
    fn a_class_set_that_omits_a_named_class_is_refused() {
        use crate::dsl::ConstraintBuilder;
        let (catalog, store) = setup();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let mut c = ConstraintBuilder::new(&catalog, "x")
            .scope("vehicle")
            .then("cargo.quantity", CompOp::Ge, 0i64)
            .build()
            .unwrap();
        assert_eq!(c.classes, vec![cargo.min(vehicle), cargo.max(vehicle)]);
        let build = |c: &HornConstraint| {
            ConstraintStore::build(
                Arc::clone(&catalog),
                vec![c.clone()],
                StoreOptions::paper_defaults(),
            )
            .unwrap_err()
        };
        let cases = [
            (vec![vehicle], cargo),
            (vec![cargo, cargo, vehicle], cargo),
            (vec![cargo.max(vehicle), cargo.min(vehicle)], cargo.min(vehicle)),
        ];
        for (classes, at) in cases {
            c.classes = classes;
            assert_eq!(
                store.with_constraint(c.clone()).unwrap_err(),
                ConstraintError::ClassSet(at)
            );
            assert_eq!(build(&c), ConstraintError::ClassSet(at));
        }
        // `new`'s other checks run on a filed constraint too.
        let mut tautology = store.constraint(ConstraintId(0)).clone();
        tautology.antecedents.push(tautology.consequent.clone());
        assert_eq!(
            store.with_constraint(tautology.clone()).unwrap_err(),
            ConstraintError::Tautology
        );
        assert_eq!(build(&tautology), ConstraintError::Tautology);
    }

    #[test]
    fn inserted_constraint_participates_in_retrieval() {
        let (catalog, store) = setup();
        let q = figure23_query(&catalog);
        let before = store.relevant_for(&q).len();
        // Adding a copy of a relevant constraint must surface the new copy.
        let names: Vec<String> = store.constraints().map(|(_, c)| c.name.clone()).collect();
        let c1_pos = names.iter().position(|n| n == "c1").expect("c1 exists");
        let dup = store.constraint(ConstraintId(c1_pos as u32)).clone();
        let store = store.with_constraint(dup).unwrap().0;
        let after = store.relevant_for(&q).len();
        assert_eq!(after, before + 1);
    }
}
