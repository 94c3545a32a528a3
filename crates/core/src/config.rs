//! Optimizer configuration.
//!
//! Defaults follow the paper. The queue discipline and the budget are the
//! §4 extension experiment E7 sweeps.

/// How antecedent/consequent presence in the query is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchPolicy {
    /// A query predicate satisfies an antecedent if it *implies* it
    /// (`B > 15` satisfies `B > 10`). Consequent presence for elimination
    /// remains syntactic (only an exact occurrence may be removed).
    #[default]
    Implication,
    /// The paper-literal mode: only structurally equal predicates count.
    Syntactic,
}

/// Queue discipline for pending transformations (§4 extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-in first-out — the base algorithm.
    #[default]
    Fifo,
    /// The paper's priority extension: index introduction before
    /// restriction elimination before restriction introduction. Useful with
    /// a transformation budget.
    Priority,
}

/// Full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OptimizerConfig {
    pub match_policy: MatchPolicy,
    pub queue: QueueDiscipline,
    /// Maximum number of transformations to apply (`None` = unlimited).
    /// Meaningful mostly with [`QueueDiscipline::Priority`] (§4).
    pub budget: Option<usize>,
}

impl OptimizerConfig {
    /// The configuration closest to the paper's description.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Budgeted priority-queue variant (§4).
    pub fn budgeted(budget: usize) -> Self {
        Self { queue: QueueDiscipline::Priority, budget: Some(budget), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = OptimizerConfig::default();
        assert_eq!(c.match_policy, MatchPolicy::Implication);
        assert_eq!(c.queue, QueueDiscipline::Fifo);
        assert_eq!(c.budget, None);
    }

    #[test]
    fn budgeted_uses_priority() {
        let c = OptimizerConfig::budgeted(3);
        assert_eq!(c.queue, QueueDiscipline::Priority);
        assert_eq!(c.budget, Some(3));
    }
}
