//! The paper's grouped constraint retrieval (§3).
//!
//! Each constraint is attached to one of the classes it references; to
//! optimize a query, only the groups attached to the query's classes are
//! fetched. The paper proves the scheme *correct* (every relevant
//! constraint is retrieved) but not optimal: irrelevant constraints ride
//! along. The assignment policy controls how many:
//!
//! * [`AssignmentPolicy::Arbitrary`] — the paper's base scheme;
//! * [`AssignmentPolicy::LeastFrequentlyAccessed`] — the paper's refinement
//!   ("assigned to the group attached to the less frequently accessed
//!   classes");
//! * [`AssignmentPolicy::Balanced`] — the paper's alternative ("distribute
//!   constraints as evenly as possible among the groups").
//!
//! Serving retrieves through `ConstraintStore`'s exact index instead; this
//! scheme is kept as the baseline experiment E6 measures, and as the
//! retrieval order of [`crate::StraightforwardOptimizer`].

use sqo_catalog::ClassId;
use sqo_constraints::{ConstraintId, ConstraintStore};
use sqo_query::Query;

/// How a constraint picks its home group among the classes it references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentPolicy {
    /// First referenced class (deterministic stand-in for "arbitrarily").
    Arbitrary,
    /// The least frequently accessed referenced class; ties go to the
    /// smaller class id.
    LeastFrequentlyAccessed,
    /// The referenced class whose group is smallest so far.
    Balanced,
}

/// The per-class groups over one store's constraints, the access counts
/// that drive LFA assignment, and the waste the group fetch has incurred.
#[derive(Debug, Clone)]
pub struct ConstraintGroups<'a> {
    store: &'a ConstraintStore,
    policy: AssignmentPolicy,
    /// `groups[class]` = the constraints whose home is `class`, ascending.
    groups: Vec<Vec<ConstraintId>>,
    /// Queries that named each class, as [`ConstraintGroups::record`]ed.
    accesses: Vec<u64>,
    /// Constraints fetched by the group union, over every
    /// [`ConstraintGroups::relevant_for`] call.
    retrieved: u64,
    /// Of those, the constraints actually relevant.
    relevant: u64,
}

impl<'a> ConstraintGroups<'a> {
    /// Groups `store`'s constraints under `policy`, with no access recorded.
    pub fn new(store: &'a ConstraintStore, policy: AssignmentPolicy) -> Self {
        let classes = store.catalog().class_count();
        let mut groups = Self {
            store,
            policy,
            groups: Vec::new(),
            accesses: vec![0; classes],
            retrieved: 0,
            relevant: 0,
        };
        groups.regroup();
        groups
    }

    /// Records one access to each class `query` names.
    pub fn record(&mut self, query: &Query) {
        for class in &query.classes {
            if let Some(n) = self.accesses.get_mut(class.index()) {
                *n += 1;
            }
        }
    }

    /// Reassigns every constraint to a group under the policy and the
    /// access counts recorded so far. The paper notes the LFA grouping "has
    /// to be updated as database access pattern changes".
    pub fn regroup(&mut self) {
        let mut groups = vec![Vec::new(); self.accesses.len()];
        for (id, c) in self.store.constraints() {
            let home = match self.policy {
                AssignmentPolicy::Arbitrary => c.classes.first().copied(),
                AssignmentPolicy::LeastFrequentlyAccessed => self.least_accessed(&c.classes),
                AssignmentPolicy::Balanced => c
                    .classes
                    .iter()
                    .copied()
                    .min_by_key(|cl| (groups[cl.index()].len(), cl.index())),
            };
            if let Some(home) = home {
                groups[home.index()].push(id);
            }
        }
        self.groups = groups;
    }

    /// The class of `classes` recorded least often; ties go to the smaller
    /// class id. `None` for an empty list.
    fn least_accessed(&self, classes: &[ClassId]) -> Option<ClassId> {
        classes
            .iter()
            .copied()
            .min_by_key(|cl| (self.accesses.get(cl.index()).copied().unwrap_or(0), cl.index()))
    }

    /// §3's group fetch: the union of the groups attached to the query's
    /// classes, group by group in the query's class order. Every relevant
    /// constraint is in it.
    pub fn retrieve_candidates(&self, query: &Query) -> Vec<ConstraintId> {
        let mut out = Vec::new();
        for class in &query.classes {
            if let Some(group) = self.groups.get(class.index()) {
                for &id in group {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// The candidates that are relevant to `query`, in fetch order. Records
    /// the query's class accesses and adds to the waste counters.
    pub fn relevant_for(&mut self, query: &Query) -> Vec<ConstraintId> {
        self.record(query);
        let mut ids = self.retrieve_candidates(query);
        self.retrieved += ids.len() as u64;
        ids.retain(|&id| self.store.constraint(id).relevant_to(query));
        self.relevant += ids.len() as u64;
        ids
    }

    /// Constraints fetched so far by [`ConstraintGroups::relevant_for`].
    pub fn retrieved(&self) -> u64 {
        self.retrieved
    }

    /// Of [`ConstraintGroups::retrieved`], those relevant to their query.
    pub fn relevant(&self) -> u64 {
        self.relevant
    }

    /// The fraction of retrieved constraints that were irrelevant.
    pub fn waste_ratio(&self) -> f64 {
        if self.retrieved == 0 {
            return 0.0;
        }
        1.0 - self.relevant as f64 / self.retrieved as f64
    }

    /// Group size per class.
    pub fn group_sizes(&self) -> Vec<(ClassId, usize)> {
        self.groups.iter().enumerate().map(|(i, g)| (ClassId(i as u32), g.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{example::figure21, Catalog};
    use sqo_constraints::{figure22, StoreOptions};
    use sqo_query::{CompOp, QueryBuilder};
    use std::sync::Arc;

    const POLICIES: [AssignmentPolicy; 3] = [
        AssignmentPolicy::Arbitrary,
        AssignmentPolicy::LeastFrequentlyAccessed,
        AssignmentPolicy::Balanced,
    ];

    fn store() -> ConstraintStore {
        let catalog = Arc::new(figure21().unwrap());
        let constraints = figure22(&catalog).unwrap();
        ConstraintStore::build(catalog, constraints, StoreOptions::paper_defaults()).unwrap()
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

    fn total(groups: &ConstraintGroups<'_>) -> usize {
        groups.group_sizes().iter().map(|(_, s)| s).sum()
    }

    #[test]
    fn grouping_recall_matches_ungrouped_scan() {
        let store = store();
        let q = figure23_query(store.catalog());
        for policy in POLICIES {
            let mut grouped = ConstraintGroups::new(&store, policy).relevant_for(&q);
            grouped.sort_unstable();
            assert_eq!(grouped, store.relevant_by_scan(&q), "{policy:?} lost a constraint");
        }
        assert!(!store.relevant_for(&q).is_empty(), "c1 and c2 are relevant to Figure 2.3");
    }

    #[test]
    fn metrics_accumulate() {
        let store = store();
        let catalog = store.catalog();
        let q = figure23_query(catalog);
        let mut groups = ConstraintGroups::new(&store, AssignmentPolicy::Arbitrary);
        assert_eq!(groups.waste_ratio(), 0.0, "nothing retrieved yet");
        let relevant = groups.relevant_for(&q);
        assert_eq!(groups.relevant(), relevant.len() as u64);
        assert_eq!(groups.retrieved(), groups.retrieve_candidates(&q).len() as u64);
        assert!(groups.retrieved() >= groups.relevant());
        // The query's classes were recorded once each.
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(groups.accesses[cargo.index()], 1);
    }

    #[test]
    fn access_counts_and_ranks() {
        let store = store();
        let mut groups = ConstraintGroups::new(&store, AssignmentPolicy::LeastFrequentlyAccessed);
        let (c0, c1, c2) = (ClassId(0), ClassId(1), ClassId(2));
        let mut both = Query::new();
        both.classes.extend([c0, c1]);
        let mut first = Query::new();
        first.classes.push(c0);
        groups.record(&both);
        groups.record(&first);
        assert_eq!(groups.accesses[..3], [2, 1, 0]);
        assert_eq!(groups.least_accessed(&[c0, c1, c2]), Some(c2));
        assert_eq!(groups.least_accessed(&[c0, c1]), Some(c1));
        // Ties break toward the smaller id.
        let fresh = ConstraintGroups::new(&store, AssignmentPolicy::LeastFrequentlyAccessed);
        assert_eq!(fresh.least_accessed(&[c1, c0]), Some(c0));
        assert_eq!(fresh.least_accessed(&[]), None);
    }

    #[test]
    fn balanced_policy_spreads_groups() {
        let store = store();
        let groups = ConstraintGroups::new(&store, AssignmentPolicy::Balanced);
        let sizes: Vec<usize> = groups.group_sizes().iter().map(|(_, s)| *s).collect();
        let max = sizes.iter().copied().max().unwrap();
        assert_eq!(total(&groups), store.len());
        // With balancing, no single group may hoard everything.
        assert!(max < store.len(), "sizes = {sizes:?}");
    }

    #[test]
    fn lfa_regroup_follows_access_pattern() {
        let store = store();
        let catalog = store.catalog();
        let (cargo, vehicle) =
            (catalog.class_id("cargo").unwrap(), catalog.class_id("vehicle").unwrap());
        // c1 references cargo and vehicle. Unaccessed, the tie goes to the
        // smaller id.
        let c1 = store.constraints().find(|(_, c)| c.name == "c1").unwrap().0;
        let mut groups = ConstraintGroups::new(&store, AssignmentPolicy::LeastFrequentlyAccessed);
        let home = |groups: &ConstraintGroups<'_>| {
            groups.groups.iter().position(|g| g.contains(&c1)).map(|i| ClassId(i as u32))
        };
        assert_eq!(home(&groups), Some(cargo.min(vehicle)));
        // Hammer the smaller of the two; after a regroup c1 moves to the other.
        let mut hot = Query::new();
        hot.classes.push(cargo.min(vehicle));
        for _ in 0..10 {
            groups.record(&hot);
        }
        assert_eq!(home(&groups), Some(cargo.min(vehicle)), "only regroup moves a constraint");
        groups.regroup();
        assert_eq!(home(&groups), Some(cargo.max(vehicle)));
        assert_eq!(total(&groups), store.len(), "every constraint lives in exactly one group");
    }
}
