//! The grouped constraint store (paper §3).
//!
//! Constraints are grouped by one of the object classes they reference; to
//! optimize a query, only groups attached to the query's classes are fetched.
//! The paper proves the scheme *correct* (all relevant constraints are always
//! retrieved) but not optimal — irrelevant constraints ride along. The
//! assignment policy controls how many:
//!
//! * [`AssignmentPolicy::Arbitrary`] — the paper's base scheme;
//! * [`AssignmentPolicy::LeastFrequentlyAccessed`] — the paper's refinement
//!   ("assigned to the group attached to the less frequently accessed
//!   classes");
//! * [`AssignmentPolicy::Balanced`] — the paper's alternative ("distribute
//!   constraints as evenly as possible among the groups").
//!
//! Retrieval metrics are tracked so the E6 experiment can compare policies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sqo_catalog::{AccessTracker, Catalog, ClassId};
use sqo_query::Query;

use crate::closure::{transitive_closure, ClosureOptions};
use crate::error::ConstraintError;
use crate::horn::{ConstraintId, HornConstraint};
use crate::index::{ConstraintIndex, RetrievalScratch};

/// How a constraint picks its home group among the classes it references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentPolicy {
    /// First referenced class (deterministic stand-in for "arbitrarily").
    Arbitrary,
    /// The least frequently accessed referenced class — the paper's
    /// enhancement; requires access statistics.
    #[default]
    LeastFrequentlyAccessed,
    /// The referenced class whose group is currently smallest.
    Balanced,
}

/// Store construction options.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Materialize the transitive closure at build time (§3; on by default
    /// via [`StoreOptions::paper_defaults`]).
    pub materialize_closure: bool,
    pub closure: ClosureOptions,
    pub policy: AssignmentPolicy,
}

impl StoreOptions {
    /// The configuration the paper describes: closure materialized,
    /// least-frequently-accessed grouping.
    pub fn paper_defaults() -> Self {
        Self {
            materialize_closure: true,
            closure: ClosureOptions::default(),
            policy: AssignmentPolicy::LeastFrequentlyAccessed,
        }
    }
}

/// Counters for grouping-scheme effectiveness (experiment E6).
#[derive(Debug, Default)]
pub struct RetrievalMetrics {
    pub queries: AtomicU64,
    /// Constraints fetched by the group union.
    pub retrieved: AtomicU64,
    /// Of those, constraints actually relevant to the query.
    pub relevant: AtomicU64,
}

impl RetrievalMetrics {
    /// Fraction of retrieved constraints that were irrelevant, over the
    /// store's lifetime.
    pub fn waste_ratio(&self) -> f64 {
        // ordering: advisory ratio over monotone counters; a slightly
        // stale numerator/denominator pair is still a valid estimate.
        let retrieved = self.retrieved.load(Ordering::Relaxed);
        if retrieved == 0 {
            return 0.0;
        }
        let relevant = self.relevant.load(Ordering::Relaxed); // ordering: see above
        1.0 - relevant as f64 / retrieved as f64
    }
}

/// The unambiguous cache identity of a store state: which store *instance*
/// (`generation`, globally unique per [`ConstraintStore`] ever constructed
/// in this process) at which of its semantic [`ConstraintStore::epoch`]s.
///
/// Epochs alone are **not** an identity: a copy-on-write successor starts
/// at `source.epoch() + 1`, a value the source can independently reach via
/// [`ConstraintStore::note_statistics_change`] /
/// [`ConstraintStore::insert_constraint`] — two stores with different
/// constraint sets then share an epoch, and an epoch-keyed plan cache can
/// serve a rewrite derived under the wrong constraints. Pairing the epoch
/// with a generation drawn from a process-global allocator makes collisions
/// impossible (property-tested in `tests/prop_store_version.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreVersion {
    /// Globally unique id of the store instance.
    pub generation: u64,
    /// The instance's semantic epoch at observation time.
    pub epoch: u64,
}

/// Allocates a process-globally unique store generation.
fn next_generation() -> u64 {
    static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);
    // ordering: uniqueness comes from RMW atomicity alone; generation
    // ids carry no payload that needs publishing.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// The grouped semantic-constraint store.
#[derive(Debug)]
pub struct ConstraintStore {
    catalog: Arc<Catalog>,
    constraints: Vec<HornConstraint>,
    /// groups[class] = constraints assigned to that class.
    groups: RwLock<Vec<Vec<ConstraintId>>>,
    /// Exact inverted index over `constraints` — the production
    /// retrieval path ([`ConstraintStore::relevant_into`]); the grouped
    /// scheme above stays as the paper's measured baseline.
    index: ConstraintIndex,
    policy: AssignmentPolicy,
    /// Closure limits this store was built under — persisted by snapshots
    /// so an Audit-level load can reproduce the derivation.
    closure: ClosureOptions,
    access: AccessTracker,
    metrics: RetrievalMetrics,
    /// Monotone semantic version: bumped whenever the constraint population
    /// or the statistics the optimizer consults change. Downstream caches
    /// key on the full [`StoreVersion`] (generation + epoch) — the epoch
    /// alone is ambiguous across copy-on-write store copies.
    epoch: AtomicU64,
    /// Process-globally unique instance id (see [`StoreVersion`]).
    generation: u64,
    /// Closure bookkeeping for reporting.
    pub derived_count: usize,
    pub closure_truncated: bool,
}

/// A constraint built against a different catalog can name a class or a
/// relationship this store has no group or posting list for.
fn check_catalog(catalog: &Catalog, c: &HornConstraint) -> Result<(), ConstraintError> {
    for &class in &c.classes {
        catalog.class(class)?;
    }
    for &rel in &c.relationships {
        catalog.relationship(rel)?;
    }
    Ok(())
}

/// The one group-assignment rule: the class, among those a constraint
/// references, whose group it joins — given the groups filled so far.
/// `None` only for a class-less constraint, which a validated one never is.
fn home_group(
    policy: AssignmentPolicy,
    access: &AccessTracker,
    groups: &[Vec<ConstraintId>],
    classes: &[ClassId],
) -> Option<ClassId> {
    match policy {
        AssignmentPolicy::Arbitrary => classes.first().copied(),
        AssignmentPolicy::LeastFrequentlyAccessed => access.least_accessed(classes),
        AssignmentPolicy::Balanced => {
            classes.iter().copied().min_by_key(|cl| (groups[cl.index()].len(), cl.index()))
        }
    }
}

impl ConstraintStore {
    /// Builds the store: catalog check, optional closure materialization,
    /// indexing, then group assignment.
    pub fn build(
        catalog: Arc<Catalog>,
        constraints: Vec<HornConstraint>,
        options: StoreOptions,
    ) -> Result<Self, ConstraintError> {
        for c in &constraints {
            check_catalog(&catalog, c)?;
        }
        let (constraints, derived_count, closure_truncated) = if options.materialize_closure {
            let res = transitive_closure(&catalog, constraints, options.closure)?;
            (res.constraints, res.derived_count, res.truncated)
        } else {
            (constraints, 0, false)
        };

        let access = AccessTracker::new(catalog.class_count());
        let index = ConstraintIndex::build(
            catalog.class_count(),
            catalog.relationship_count(),
            &constraints,
        );
        let store = Self {
            groups: RwLock::new(vec![Vec::new(); catalog.class_count()]),
            catalog,
            constraints,
            index,
            policy: options.policy,
            closure: options.closure,
            access,
            metrics: RetrievalMetrics::default(),
            epoch: AtomicU64::new(0),
            generation: next_generation(),
            derived_count,
            closure_truncated,
        };
        store.regroup();
        Ok(store)
    }

    /// (Re)assigns every constraint to a group according to the policy.
    /// The paper notes the LFA grouping "has to be updated as database access
    /// pattern changes" — callers invoke this periodically.
    pub fn regroup(&self) {
        let mut groups = vec![Vec::new(); self.catalog.class_count()];
        for (id, c) in self.constraints() {
            if let Some(home) = home_group(self.policy, &self.access, &groups, &c.classes) {
                groups[home.index()].push(id);
            }
        }
        *self.groups.write() = groups;
    }

    // ---- versioning & growth --------------------------------------------

    /// The store's current semantic epoch. Two calls returning the same
    /// value bracket a window in which no constraint or statistics change
    /// occurred **on this instance**, so any optimization derived in between
    /// is still valid. Cross-instance comparisons need [`ConstraintStore::version`].
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the AcqRel epoch bumps so an
        // observed epoch implies the store mutation that produced it.
        self.epoch.load(Ordering::Acquire)
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
        // ordering: AcqRel keeps statistics bumps in the epoch's single
        // total modification order; pairs with the Acquire in epoch().
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Raises the epoch to at least `floor` (monotone; never lowers it).
    /// Used when a rebuilt store replaces an older one so that epoch
    /// *sequences* keep increasing across the swap for readability — cache
    /// identity does not depend on it (the rebuilt store already has its own
    /// generation, so its versions can never collide with the old store's).
    pub fn raise_epoch_to(&self, floor: u64) {
        // ordering: AcqRel keeps the monotone fetch_max totally ordered with
        // the epoch bumps in note_*_change; pairs with the Acquire in epoch().
        self.epoch.fetch_max(floor, Ordering::AcqRel);
    }

    /// Raises the epoch strictly past `other`'s current epoch (the blessed
    /// form of `raise_epoch_to(other.epoch() + 1)`, which callers must not
    /// hand-roll — see the epoch-discipline rules in `docs/ANALYSIS.md`).
    pub fn raise_epoch_above(&self, other: &ConstraintStore) {
        self.raise_epoch_to(other.epoch().saturating_add(1));
    }

    /// Appends one constraint to the store in place, indexing it, assigning
    /// it to a group under the current policy, and bumping the epoch. A
    /// constraint naming a class or relationship outside this store's
    /// catalog is refused and the store is left as it was.
    ///
    /// The incremental path deliberately does **not** extend the transitive
    /// closure: derived shortcuts only accelerate transformation chains that
    /// remain reachable through the declared constraints, so skipping them
    /// never affects correctness. Rebuild via [`ConstraintStore::build`]
    /// when closure freshness matters.
    pub fn insert_constraint(
        &mut self,
        constraint: HornConstraint,
    ) -> Result<ConstraintId, ConstraintError> {
        check_catalog(&self.catalog, &constraint)?;
        let id = self.file(constraint);
        // ordering: Release half publishes the insertion above to
        // epoch() readers; Acquire half orders it after prior bumps.
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(id)
    }

    /// A new store equal to this one plus `constraint`, at exactly one epoch
    /// past this store's, and the id the constraint received in it. The
    /// copy-on-write companion of [`ConstraintStore::insert_constraint`] for
    /// stores shared behind an `Arc` (the serving layer swaps the new store
    /// in while in-flight queries drain against the old one, and combines
    /// the id with [`ConstraintStore::touched_classes`] to invalidate only
    /// the cache entries whose class set overlaps the new constraint's).
    ///
    /// The copy is **incremental**: the constraints, secondary index, groups
    /// and access counters are cloned as-is and only the new constraint is
    /// filed. Existing constraints keep their group homes; the newcomer is
    /// assigned under the current policy and live access statistics.
    /// Retrieval metrics restart from zero.
    pub fn with_constraint(
        &self,
        constraint: HornConstraint,
    ) -> Result<(Self, ConstraintId), ConstraintError> {
        check_catalog(&self.catalog, &constraint)?;
        let access = AccessTracker::new(self.catalog.class_count());
        for c in 0..self.catalog.class_count() as u32 {
            access.seed(ClassId(c), self.access.count(ClassId(c)));
        }
        let mut store = Self {
            groups: RwLock::new(self.groups.read().clone()),
            catalog: Arc::clone(&self.catalog),
            constraints: self.constraints.clone(),
            index: self.index.clone(),
            policy: self.policy,
            closure: self.closure,
            access,
            metrics: RetrievalMetrics::default(),
            epoch: AtomicU64::new(self.epoch() + 1),
            // A fresh generation: the successor is a *different* store even
            // when the source later reaches the same epoch value.
            generation: next_generation(),
            derived_count: self.derived_count,
            closure_truncated: self.closure_truncated,
        };
        let id = store.file(constraint);
        Ok((store, id))
    }

    /// The filing step both ways of adding share: index the (checked)
    /// constraint, append it, and put it in its home group.
    fn file(&mut self, constraint: HornConstraint) -> ConstraintId {
        let id = ConstraintId(self.constraints.len() as u32);
        self.index.insert(id, &constraint);
        let groups = self.groups.get_mut();
        if let Some(home) = home_group(self.policy, &self.access, groups, &constraint.classes) {
            groups[home.index()].push(id);
        }
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

    /// §3 group fetch: the union of groups attached to the query's classes.
    /// Every relevant constraint is guaranteed to be in the result.
    pub fn retrieve_candidates(&self, query: &Query) -> Vec<ConstraintId> {
        let groups = self.groups.read();
        let mut out = Vec::new();
        for class in &query.classes {
            if let Some(g) = groups.get(class.index()) {
                for &id in g {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Candidates filtered down to constraints relevant to `query`
    /// (classes ⊆ query classes ∧ relationships ⊆ query relationships).
    /// Updates retrieval metrics and the access-frequency counters.
    pub fn relevant_for(&self, query: &Query) -> Vec<ConstraintId> {
        let candidates = self.retrieve_candidates(query);
        // ordering: retrieval metrics are advisory counters read only
        // by waste_ratio / reports; no cross-data ordering needed.
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        self.metrics.retrieved.fetch_add(candidates.len() as u64, Ordering::Relaxed); // ordering: see above
        self.access.record(query.classes.iter().copied());
        let relevant: Vec<ConstraintId> = candidates
            .into_iter()
            .filter(|id| self.constraints[id.index()].relevant_to(query))
            .collect();
        self.metrics.relevant.fetch_add(relevant.len() as u64, Ordering::Relaxed); // ordering: see above
        relevant
    }

    /// The exact relevant set via the secondary [`ConstraintIndex`] — the
    /// production retrieval path. Writes ascending [`ConstraintId`]s into
    /// `out` without allocating (given a warm `scratch`), records the
    /// access-frequency counters that drive LFA regrouping, and returns the
    /// same set as [`ConstraintStore::relevant_for`] /
    /// [`ConstraintStore::relevant_for_ungrouped`] (property-tested in
    /// `tests/prop_index_recall.rs`). Group-waste metrics are *not* touched:
    /// the indexed path retrieves no irrelevant constraint to measure.
    pub fn relevant_into(
        &self,
        query: &Query,
        scratch: &mut RetrievalScratch,
        out: &mut Vec<ConstraintId>,
    ) {
        self.access.record(query.classes.iter().copied());
        self.index.relevant_into(query, scratch, out);
    }

    /// The secondary index over the store's constraints.
    pub fn index(&self) -> &ConstraintIndex {
        &self.index
    }

    /// Exhaustive relevance scan, bypassing the grouping scheme — the
    /// ungrouped baseline for experiment E6 and the recall property tests.
    pub fn relevant_for_ungrouped(&self, query: &Query) -> Vec<ConstraintId> {
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

    /// The group-assignment policy this store was built with (persisted by
    /// snapshots so a warm-started store groups the same way).
    pub fn policy(&self) -> AssignmentPolicy {
        self.policy
    }

    /// The closure limits this store was built under (persisted by
    /// snapshots so an Audit-level load reproduces the same derivation).
    pub fn closure_options(&self) -> ClosureOptions {
        self.closure
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

    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &HornConstraint)> {
        self.constraints.iter().enumerate().map(|(i, c)| (ConstraintId(i as u32), c))
    }

    pub fn metrics(&self) -> &RetrievalMetrics {
        &self.metrics
    }

    pub fn access_tracker(&self) -> &AccessTracker {
        &self.access
    }

    /// Group sizes per class, for diagnostics and the E6 report.
    pub fn group_sizes(&self) -> Vec<(ClassId, usize)> {
        self.groups.read().iter().enumerate().map(|(i, g)| (ClassId(i as u32), g.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::figure22;
    use crate::horn::Origin;
    use sqo_catalog::example::figure21;
    use sqo_query::{CompOp, QueryBuilder};

    fn setup(policy: AssignmentPolicy) -> (Arc<Catalog>, ConstraintStore) {
        let catalog = Arc::new(figure21().unwrap());
        let constraints = figure22(&catalog).unwrap();
        let store = ConstraintStore::build(
            Arc::clone(&catalog),
            constraints,
            StoreOptions { materialize_closure: true, closure: ClosureOptions::default(), policy },
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
    fn closure_derives_c1_c2_chain() {
        let (_, store) = setup(AssignmentPolicy::Arbitrary);
        // c1: vehicle desc -> cargo desc; c2: cargo desc -> supplier name.
        // Derived: vehicle desc -> supplier name.
        assert!(store.derived_count >= 1, "derived {}", store.derived_count);
        assert!(!store.closure_truncated);
        assert!(store
            .constraints()
            .any(|(_, c)| c.origin == Origin::Derived && c.name.contains("c1")));
    }

    #[test]
    fn grouping_recall_matches_ungrouped_scan() {
        let (catalog, store) = setup(AssignmentPolicy::LeastFrequentlyAccessed);
        let q = figure23_query(&catalog);
        let mut grouped = store.relevant_for(&q);
        let mut full = store.relevant_for_ungrouped(&q);
        grouped.sort_unstable();
        full.sort_unstable();
        assert_eq!(grouped, full, "grouping must never lose a relevant constraint");
        assert!(!full.is_empty(), "c1 and c2 are relevant to the Figure 2.3 query");
    }

    #[test]
    fn relevant_set_for_figure23() {
        let (catalog, store) = setup(AssignmentPolicy::Arbitrary);
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
    fn metrics_accumulate() {
        let (catalog, store) = setup(AssignmentPolicy::Arbitrary);
        let q = figure23_query(&catalog);
        let _ = store.relevant_for(&q);
        let m = store.metrics();
        assert_eq!(m.queries.load(Ordering::Relaxed), 1);
        assert!(m.retrieved.load(Ordering::Relaxed) >= m.relevant.load(Ordering::Relaxed));
        // Access counters bumped for the query's classes.
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(store.access_tracker().count(cargo), 1);
    }

    #[test]
    fn balanced_policy_spreads_groups() {
        let (_, store) = setup(AssignmentPolicy::Balanced);
        let sizes: Vec<usize> = store.group_sizes().iter().map(|(_, s)| *s).collect();
        let max = sizes.iter().copied().max().unwrap();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, store.len());
        // With balancing, no single group may hoard everything.
        assert!(max < store.len(), "sizes = {sizes:?}");
    }

    #[test]
    fn lfa_regroup_follows_access_pattern() {
        let (catalog, store) = setup(AssignmentPolicy::LeastFrequentlyAccessed);
        // Hammer cargo+vehicle+supplier, leaving others cold.
        let q = figure23_query(&catalog);
        for _ in 0..10 {
            let _ = store.relevant_for(&q);
        }
        store.regroup();
        // c1 references cargo and vehicle (both hot, equally) — the tie falls
        // to the smaller id; the important property is that every constraint
        // still lives in exactly one group.
        let total: usize = store.group_sizes().iter().map(|(_, s)| *s).sum();
        assert_eq!(total, store.len());
    }

    #[test]
    fn epoch_starts_at_zero_and_bumps_on_changes() {
        let (_, mut store) = setup(AssignmentPolicy::Arbitrary);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.note_statistics_change(), 1);
        assert_eq!(store.epoch(), 1);
        // Retrieval and regrouping are semantics-preserving: no bump.
        store.regroup();
        assert_eq!(store.epoch(), 1);
        let extra = store.constraint(ConstraintId(0)).clone();
        let before = store.len();
        let id = store.insert_constraint(extra).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.len(), before + 1);
        assert_eq!(id.index(), before);
        // The inserted constraint is retrievable and lives in some group.
        let total: usize = store.group_sizes().iter().map(|(_, s)| *s).sum();
        assert_eq!(total, store.len());
    }

    #[test]
    fn raise_epoch_is_monotone() {
        let (_, store) = setup(AssignmentPolicy::Arbitrary);
        store.raise_epoch_to(7);
        assert_eq!(store.epoch(), 7);
        store.raise_epoch_to(3); // never lowers
        assert_eq!(store.epoch(), 7);
    }

    #[test]
    fn with_constraint_advances_epoch_and_preserves_recall() {
        let (catalog, store) = setup(AssignmentPolicy::LeastFrequentlyAccessed);
        store.note_statistics_change();
        let extra = store.constraint(ConstraintId(0)).clone();
        let bigger = store.with_constraint(extra).unwrap().0;
        assert!(bigger.epoch() > store.epoch(), "epochs must keep increasing across swaps");
        assert_eq!(bigger.len(), store.len() + 1);
        // The grouped retrieval invariant survives the rebuild.
        let q = figure23_query(&catalog);
        let mut grouped = bigger.relevant_for(&q);
        let mut full = bigger.relevant_for_ungrouped(&q);
        grouped.sort_unstable();
        full.sort_unstable();
        assert_eq!(grouped, full);
    }

    #[test]
    fn cow_copies_get_their_own_generation() {
        // The epoch-collision regression: the source can independently reach
        // the derived store's epoch, but the *versions* must stay distinct.
        let (_, store) = setup(AssignmentPolicy::Arbitrary);
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
        let (catalog, mut store) = setup(AssignmentPolicy::Arbitrary);
        // c1 relates vehicles and the cargo they collect.
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let c1 = store.constraint(ConstraintId(0)).clone();
        // Via the COW path.
        let (bigger, id) = store.with_constraint(c1.clone()).unwrap();
        assert_eq!(bigger.touched_classes(id), c1.classes);
        // Via the in-place path.
        let id = store.insert_constraint(c1.clone()).unwrap();
        let touched = store.touched_classes(id);
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
        let (catalog, mut store) = setup(AssignmentPolicy::Balanced);
        let c1 = store.constraint(ConstraintId(0)).clone();
        // As if validated against a larger catalog: a class, then a
        // relationship, this store has no group or posting list for.
        let far_class = ClassId(catalog.class_count() as u32);
        let far_rel = RelId(catalog.relationship_count() as u32);
        let mut bad_class = c1.clone();
        bad_class.classes.push(far_class);
        let mut bad_rel = c1.clone();
        bad_rel.relationships.push(far_rel);
        let class_err = ConstraintError::Catalog(CatalogError::UnknownClassId(far_class));
        let rel_err = ConstraintError::Catalog(CatalogError::UnknownRelId(far_rel));

        let (len, version, sizes) = (store.len(), store.version(), store.group_sizes());
        assert_eq!(store.insert_constraint(bad_class.clone()).unwrap_err(), class_err);
        assert_eq!(store.insert_constraint(bad_rel.clone()).unwrap_err(), rel_err);
        assert_eq!(store.with_constraint(bad_class.clone()).unwrap_err(), class_err);
        assert_eq!(store.with_constraint(bad_rel.clone()).unwrap_err(), rel_err);
        assert_eq!(
            (store.len(), store.version(), store.group_sizes()),
            (len, version, sizes),
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

    #[test]
    fn inserted_constraint_participates_in_retrieval() {
        let (catalog, mut store) = setup(AssignmentPolicy::Balanced);
        let q = figure23_query(&catalog);
        let before = store.relevant_for(&q).len();
        // Re-inserting a relevant constraint must surface the new copy.
        let names: Vec<String> = store.constraints().map(|(_, c)| c.name.clone()).collect();
        let c1_pos = names.iter().position(|n| n == "c1").expect("c1 exists");
        let dup = store.constraint(ConstraintId(c1_pos as u32)).clone();
        store.insert_constraint(dup).unwrap();
        let after = store.relevant_for(&q).len();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn incremental_inserts_group_like_a_rebuild() {
        let catalog = Arc::new(figure21().unwrap());
        // Figure 2.2 with its closure, twice over: enough constraints sharing
        // classes that LFA and Balanced have real choices to make.
        let closed =
            transitive_closure(&catalog, figure22(&catalog).unwrap(), ClosureOptions::default())
                .unwrap()
                .constraints;
        let cs: Vec<HornConstraint> = closed.iter().chain(&closed).cloned().collect();
        for policy in [
            AssignmentPolicy::Arbitrary,
            AssignmentPolicy::LeastFrequentlyAccessed,
            AssignmentPolicy::Balanced,
        ] {
            let build = |cs: &[HornConstraint]| {
                let store = ConstraintStore::build(
                    Arc::clone(&catalog),
                    cs.to_vec(),
                    StoreOptions {
                        materialize_closure: false,
                        closure: ClosureOptions::default(),
                        policy,
                    },
                )
                .unwrap();
                // Uneven access counts, so LFA does not degenerate to Arbitrary.
                for (class, _) in catalog.classes() {
                    store.access_tracker().seed(class, u64::from(class.0 * 7 % 5));
                }
                store.regroup();
                store
            };
            let whole = build(&cs);
            for k in 0..=cs.len() {
                let mut grown = build(&cs[..k]);
                for c in &cs[k..] {
                    grown.insert_constraint(c.clone()).unwrap();
                }
                for (class, _) in catalog.classes() {
                    let mut q = Query::new();
                    q.classes.push(class);
                    assert_eq!(
                        grown.retrieve_candidates(&q),
                        whole.retrieve_candidates(&q),
                        "{policy:?}, {k} built + {} inserted, group of {class}",
                        cs.len() - k
                    );
                }
            }
        }
    }
}
