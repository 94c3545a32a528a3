//! Optimization reports: everything the benchmarks and examples need to
//! know about what one `optimize` call did. The optimizer reads no clock;
//! an experiment that times the phases (Figure 4.1's) times them itself.

use sqo_catalog::{Catalog, ClassId};
use sqo_query::Predicate;

use crate::formulate::FormulationResult;
use crate::tag::PredicateTag;
use crate::transform::TransformLog;

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
}

impl OptimizationReport {
    pub(crate) fn from_parts(
        relevant_constraints: usize,
        distinct_predicates: usize,
        query_classes: usize,
        transformations: TransformLog,
        formulation: FormulationResult,
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
        out
    }
}
