//! The "straight-forward approach" of §4 — the baseline the paper argues
//! against:
//!
//! > "A straight-forward approach to do semantic optimization is to evaluate
//! > the profitability of each transformation, and if deemed profitable,
//! > immediately apply it to the query. This way, some transformations might
//! > preclude other transformations (eg. eliminating an antecedent predicate
//! > of a semantic constraint means it cannot be used to introduce its
//! > consequent predicate) and hence the order of transformations is
//! > important."
//!
//! Transformations are applied *physically*, one at a time, in a
//! caller-chosen order; each constraint is considered once. The outcome is
//! order-dependent by construction, which experiment E5 demonstrates.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sqo_catalog::Catalog;
use sqo_constraints::{ConstraintId, ConstraintStore};
use sqo_core::ProfitOracle;
use sqo_query::{Predicate, Query};

use crate::grouped::{AssignmentPolicy, ConstraintGroups};

/// Order in which candidate transformations are attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplicationOrder {
    /// Constraints in the order §3's grouped retrieval fetches them
    /// ([`ConstraintGroups`] under the LFA policy).
    AsRetrieved,
    /// All introductions before eliminations.
    IntroductionsFirst,
    /// All eliminations before introductions — the order that showcases
    /// preclusion (an eliminated antecedent can no longer fire a chain).
    EliminationsFirst,
    /// Deterministic shuffle of the retrieval order.
    Seeded(u64),
}

/// What the straight-forward optimizer did.
#[derive(Debug, Clone)]
pub struct StraightforwardOutcome {
    pub query: Query,
    /// Constraints applied, in application order.
    pub applied: Vec<ConstraintId>,
    /// Candidate transformations that were evaluated but rejected or
    /// precluded.
    pub skipped: usize,
}

/// The immediate-application baseline optimizer.
#[derive(Debug)]
pub struct StraightforwardOptimizer<'a> {
    store: &'a ConstraintStore,
    groups: ConstraintGroups<'a>,
    order: ApplicationOrder,
}

impl<'a> StraightforwardOptimizer<'a> {
    pub fn new(store: &'a ConstraintStore, order: ApplicationOrder) -> Self {
        let groups = ConstraintGroups::new(store, AssignmentPolicy::LeastFrequentlyAccessed);
        Self { store, groups, order }
    }

    /// Runs the baseline. Each relevant constraint is evaluated at most
    /// once, in the configured order, against the *current* physical query;
    /// profitable transformations are applied immediately.
    pub fn optimize(&self, query: &Query, oracle: &dyn ProfitOracle) -> StraightforwardOutcome {
        let catalog = self.store.catalog().clone();
        let mut q = query.clone();
        let mut order = self.groups.retrieve_candidates(&q);
        order.retain(|&id| self.store.constraint(id).relevant_to(&q));
        self.sort(&mut order);

        let mut applied = Vec::new();
        let mut skipped = 0usize;
        let mut remaining: Vec<ConstraintId> = order;
        // Passes repeat until a full pass applies nothing: a constraint whose
        // antecedents only became available later still gets its chance, but
        // one that fired or was rejected is spent.
        loop {
            let mut progressed = false;
            let mut next_round = Vec::new();
            for id in remaining.drain(..) {
                match self.try_apply(&catalog, &mut q, id, oracle) {
                    TryOutcome::Applied => {
                        applied.push(id);
                        progressed = true;
                    }
                    TryOutcome::Rejected => skipped += 1,
                    TryOutcome::NotYetEnabled => next_round.push(id),
                }
            }
            remaining = next_round;
            if !progressed || remaining.is_empty() {
                skipped += remaining.len();
                break;
            }
        }
        StraightforwardOutcome { query: q, applied, skipped }
    }

    fn sort(&self, ids: &mut [ConstraintId]) {
        match self.order {
            ApplicationOrder::AsRetrieved => {}
            ApplicationOrder::IntroductionsFirst | ApplicationOrder::EliminationsFirst => {
                // Heuristic static key: constraints whose consequent appears
                // in more queries tend to eliminate; we approximate by name
                // stability — the dynamic decision happens in try_apply, so
                // here we only bias the order deterministically.
                ids.sort_by_key(|id| id.index());
                if self.order == ApplicationOrder::EliminationsFirst {
                    ids.reverse();
                }
            }
            ApplicationOrder::Seeded(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                ids.shuffle(&mut rng);
            }
        }
    }

    fn try_apply(
        &self,
        catalog: &Catalog,
        q: &mut Query,
        id: ConstraintId,
        oracle: &dyn ProfitOracle,
    ) -> TryOutcome {
        let c = self.store.constraint(id);
        if !c.relevant_to(q) {
            return TryOutcome::Rejected;
        }
        // All antecedents must be present in the *current* query — physical
        // application means an earlier elimination can disable this forever.
        if !c.antecedents.iter().all(|a| q.satisfies_predicate(a)) {
            return TryOutcome::NotYetEnabled;
        }
        // Either way the question is "the query with the consequent, and
        // the one predicate it differs by"; each is about a new query, so
        // each opens its own formulation.
        let pred = &c.consequent;
        oracle.begin();
        if q.contains_predicate(pred) {
            // Restriction elimination. Immediate profitability: drop if the
            // oracle says removal is no worse.
            if oracle.retain_optional(q, pred) {
                return TryOutcome::Rejected;
            }
            q.remove_predicate(pred);
        } else {
            // Restriction/index introduction.
            let mut with = q.clone();
            match pred {
                Predicate::Sel(s) => with.selective_predicates.push(s.clone()),
                Predicate::Join(j) => with.join_predicates.push(*j),
            }
            if with.validate(catalog).is_err() || !oracle.retain_optional(&with, pred) {
                return TryOutcome::Rejected;
            }
            *q = with;
        }
        TryOutcome::Applied
    }
}

#[derive(Debug)]
enum TryOutcome {
    Applied,
    Rejected,
    NotYetEnabled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;
    use sqo_constraints::{figure22, StoreOptions};
    use sqo_core::{DropAllOracle, StructuralOracle};
    use sqo_query::{CompOp, QueryBuilder};
    use std::sync::Arc;

    fn store() -> ConstraintStore {
        let catalog = Arc::new(figure21().unwrap());
        ConstraintStore::build(
            Arc::clone(&catalog),
            figure22(&catalog).unwrap(),
            StoreOptions::paper_defaults(),
        )
        .unwrap()
    }

    fn fig23(catalog: &Catalog) -> Query {
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
    fn chain_applies_when_introductions_lead() {
        let store = store();
        let catalog = store.catalog().clone();
        let q = fig23(&catalog);
        // StructuralOracle retains everything: introductions are profitable,
        // eliminations are not (retain_optional == true).
        let opt = StraightforwardOptimizer::new(&store, ApplicationOrder::AsRetrieved);
        let out = opt.optimize(&q, &StructuralOracle);
        // c1 introduces cargo.desc = "frozen food".
        assert_eq!(out.applied.len(), 1);
        assert!(out
            .query
            .selective_predicates
            .iter()
            .any(|s| s.value == sqo_catalog::Value::str("frozen food")));
    }

    #[test]
    fn eliminations_preclude_chains() {
        let store = store();
        let catalog = store.catalog().clone();
        let q = fig23(&catalog);
        // DropAllOracle treats every elimination as profitable and every
        // introduction as unprofitable: supplier.name = "SFI" can be dropped
        // only after cargo.desc is introduced — which never happens, so the
        // baseline strands the chain. (Our algorithm would still lower both.)
        let opt = StraightforwardOptimizer::new(&store, ApplicationOrder::AsRetrieved);
        let out = opt.optimize(&q, &DropAllOracle);
        assert!(out.applied.is_empty(), "{out:?}");
        assert_eq!(out.query.selective_predicates.len(), 2, "nothing could fire");
    }

    #[test]
    fn orders_are_deterministic() {
        let store = store();
        let catalog = store.catalog().clone();
        let q = fig23(&catalog);
        for order in [
            ApplicationOrder::AsRetrieved,
            ApplicationOrder::IntroductionsFirst,
            ApplicationOrder::EliminationsFirst,
            ApplicationOrder::Seeded(42),
        ] {
            let opt = StraightforwardOptimizer::new(&store, order);
            let a = opt.optimize(&q, &StructuralOracle);
            let b = opt.optimize(&q, &StructuralOracle);
            assert_eq!(a.query.normalized(), b.query.normalized());
            assert_eq!(a.applied, b.applied);
        }
    }
}
