//! The profitability oracle interface (§3.4).
//!
//! Query formulation delegates its two cost–benefit decisions to "the cost
//! model in the conventional query optimizer". `sqo-core` stays independent
//! of any particular engine by asking a [`ProfitOracle`]; `sqo-exec`
//! provides the real, cost-model-based implementation
//! (`CostBasedOracle`), while the structural oracles here serve tests and
//! engine-free use.

use std::fmt;

use sqo_catalog::ClassId;
use sqo_query::{Predicate, Query};

/// Cost–benefit decisions for query formulation, asked **by difference**:
/// each question names the working query and the one predicate or class
/// the candidate lacks; no candidate query is built.
///
/// An oracle may carry what it worked out about the working query from one
/// question to the next, under this protocol: [`ProfitOracle::begin`] comes
/// before the first question about a query the oracle has not followed, and
/// after it each question's `working` is the previous question's — less
/// that question's predicate if the answer was *drop*, less its class if
/// the answer was *eliminate*. The answer is the adoption: the caller acts
/// on it before asking again. One oracle serves any number of formulations.
pub trait ProfitOracle: fmt::Debug {
    /// Opens a formulation; anything carried from an earlier one is void.
    fn begin(&self) {}

    /// Whether retaining the optional predicate `pred` of `working` is
    /// profitable. On `false` the caller removes `pred` from `working`.
    fn retain_optional(&self, working: &Query, pred: &Predicate) -> bool;

    /// Whether eliminating `class` from `working` — with its relationship
    /// and predicates — is profitable. Structural soundness has already
    /// been established by the caller, who removes the class on `true`.
    fn eliminate_class(&self, working: &Query, class: ClassId) -> bool;
}

/// Keeps every optional predicate and performs every sound class
/// elimination. Engine-free; useful as the "optimistic" baseline and in
/// unit tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct StructuralOracle;

impl ProfitOracle for StructuralOracle {
    fn retain_optional(&self, _working: &Query, _pred: &Predicate) -> bool {
        true
    }

    fn eliminate_class(&self, _working: &Query, _class: ClassId) -> bool {
        true
    }
}

/// Drops every optional predicate (reclassifies them redundant) and performs
/// every sound class elimination — the "pessimistic" counterpart.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropAllOracle;

impl ProfitOracle for DropAllOracle {
    fn retain_optional(&self, _working: &Query, _pred: &Predicate) -> bool {
        false
    }

    fn eliminate_class(&self, _working: &Query, _class: ClassId) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_oracle_is_optimistic() {
        let q = Query::new();
        let p = Predicate::sel(
            sqo_catalog::AttrRef::new(ClassId(0), sqo_catalog::AttrId(0)),
            sqo_query::CompOp::Eq,
            1i64,
        );
        assert!(StructuralOracle.retain_optional(&q, &p));
        assert!(StructuralOracle.eliminate_class(&q, ClassId(0)));
    }

    #[test]
    fn drop_all_oracle_is_pessimistic_about_predicates() {
        let q = Query::new();
        let p = Predicate::sel(
            sqo_catalog::AttrRef::new(ClassId(0), sqo_catalog::AttrId(0)),
            sqo_query::CompOp::Eq,
            1i64,
        );
        assert!(!DropAllOracle.retain_optional(&q, &p));
        assert!(DropAllOracle.eliminate_class(&q, ClassId(0)));
    }
}
