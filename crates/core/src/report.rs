//! Optimization reports: everything the benchmarks and examples need to
//! know about what one `optimize` call did, including per-phase timings
//! (the quantities behind the paper's Figure 4.1).

use std::time::Duration;

use sqo_catalog::{Catalog, ClassId};
use sqo_query::Predicate;

use crate::formulate::FormulationResult;
use crate::tag::PredicateTag;
use crate::transform::TransformLog;

/// Wall-clock timings of the algorithm's phases.
///
/// §4: "Subtracting the I/O retrieval time, the maximum time spent on actual
/// transformation…" — hence retrieval is kept separate from transformation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Retrieving the relevant constraints.
    pub retrieval: Duration,
    /// Building the transformation table (§3.1).
    pub initialization: Duration,
    /// Queue updates + transformations (§3.2, §3.3).
    pub transformation: Duration,
    /// Query formulation (§3.4).
    pub formulation: Duration,
}

impl PhaseTimings {
    /// Total optimization time (the paper's "total query transformation
    /// time (including retrieval of semantic constraints)").
    pub fn total(&self) -> Duration {
        self.retrieval + self.initialization + self.transformation + self.formulation
    }

    /// Time excluding retrieval (the paper's "actual transformation" time).
    pub fn excluding_retrieval(&self) -> Duration {
        self.initialization + self.transformation + self.formulation
    }
}

/// Full account of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// Constraints relevant to the query (rows of the table).
    pub relevant_constraints: usize,
    /// Distinct predicates in play (columns of the table).
    pub distinct_predicates: usize,
    /// Classes in the input query.
    pub query_classes: usize,
    pub transformations: TransformLog,
    pub eliminated_classes: Vec<ClassId>,
    pub retained_optional: Vec<Predicate>,
    pub dropped_redundant: Vec<Predicate>,
    pub dropped_unprofitable: Vec<Predicate>,
    pub introduced: Vec<Predicate>,
    pub final_tags: Vec<(Predicate, PredicateTag)>,
    /// The entailed predicates are contradictory: the answer is empty and
    /// execution can be skipped entirely.
    pub provably_empty: bool,
    pub timings: PhaseTimings,
}

impl OptimizationReport {
    pub(crate) fn from_parts(
        relevant_constraints: usize,
        distinct_predicates: usize,
        query_classes: usize,
        transformations: TransformLog,
        formulation: FormulationResult,
        timings: PhaseTimings,
    ) -> Self {
        Self {
            relevant_constraints,
            distinct_predicates,
            query_classes,
            transformations,
            eliminated_classes: formulation.eliminated_classes,
            retained_optional: formulation.retained_optional,
            dropped_redundant: formulation.dropped_redundant,
            dropped_unprofitable: formulation.dropped_unprofitable,
            introduced: formulation.introduced,
            final_tags: formulation.final_tags,
            provably_empty: formulation.provably_empty,
            timings,
        }
    }

    /// Whether the optimizer changed the query at all.
    pub fn changed_query(&self) -> bool {
        !self.transformations.applied.is_empty()
            || !self.eliminated_classes.is_empty()
            || !self.dropped_redundant.is_empty()
            || !self.dropped_unprofitable.is_empty()
    }

    /// Human-oriented summary.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "semantic optimization: {} relevant constraints, {} predicates, {} transformations\n",
            self.relevant_constraints,
            self.distinct_predicates,
            self.transformations.applied.len()
        ));
        for t in &self.transformations.applied {
            out.push_str(&format!(
                "  [{:?}] {} -> {}\n",
                t.kind,
                t.predicate.display(catalog),
                t.to
            ));
        }
        if !self.eliminated_classes.is_empty() {
            let names: Vec<&str> =
                self.eliminated_classes.iter().map(|&c| catalog.class_name(c)).collect();
            out.push_str(&format!("  eliminated classes: {}\n", names.join(", ")));
        }
        for p in &self.dropped_redundant {
            out.push_str(&format!("  dropped redundant: {}\n", p.display(catalog)));
        }
        for p in &self.dropped_unprofitable {
            out.push_str(&format!("  dropped unprofitable: {}\n", p.display(catalog)));
        }
        if self.provably_empty {
            out.push_str("  PROVABLY EMPTY: entailed predicates contradict; skip execution\n");
        }
        out.push_str(&format!(
            "  timings: retrieval {:?}, init {:?}, transform {:?}, formulate {:?}\n",
            self.timings.retrieval,
            self.timings.initialization,
            self.timings.transformation,
            self.timings.formulation
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_sum() {
        let t = PhaseTimings {
            retrieval: Duration::from_millis(5),
            initialization: Duration::from_millis(1),
            transformation: Duration::from_millis(2),
            formulation: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(11));
        assert_eq!(t.excluding_retrieval(), Duration::from_millis(6));
    }
}
