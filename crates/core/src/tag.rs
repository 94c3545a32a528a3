//! Predicate tags and transformation-table cell states.
//!
//! The tag lattice is the heart of the algorithm:
//!
//! ```text
//! Imperative  >  Optional  >  Redundant
//! ```
//!
//! Transformations only ever move a predicate *down* this lattice
//! (tentatively), which is why the order of transformations is immaterial
//! and the loop terminates in `O(m·n)`.

use std::fmt;

/// Classification of a predicate (§3.1):
/// * **Imperative** — removal would change the query's results;
/// * **Optional** — result-neutral, but may pay for itself (index use,
///   smaller intermediates); kept subject to cost–benefit analysis;
/// * **Redundant** — affects neither results nor efficiency; dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateTag {
    Imperative,
    Optional,
    Redundant,
}

impl PredicateTag {
    /// Lattice height: higher = stronger obligation to keep.
    fn height(self) -> u8 {
        match self {
            PredicateTag::Imperative => 2,
            PredicateTag::Optional => 1,
            PredicateTag::Redundant => 0,
        }
    }

    /// Whether a transformation may lower `self` to `target`
    /// (strictly down the lattice).
    pub fn can_lower_to(self, target: PredicateTag) -> bool {
        self.height() > target.height()
    }

    /// The lower (weaker) of two tags — used to keep tag evolution monotone
    /// when several constraints touch the same predicate.
    pub fn min(self, other: PredicateTag) -> PredicateTag {
        if self.height() <= other.height() {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for PredicateTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredicateTag::Imperative => "imperative",
            PredicateTag::Optional => "optional",
            PredicateTag::Redundant => "redundant",
        };
        f.write_str(s)
    }
}

/// State of one cell `t(cᵢ, pⱼ)` of the transformation table (§3.1):
/// how predicate `pⱼ` relates to constraint `cᵢ` and the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// `_` in the paper: `pⱼ` does not appear in `cᵢ`.
    NotPresent,
    /// Antecedent of `cᵢ`, not (yet) present in the query.
    AbsentAntecedent,
    /// Antecedent of `cᵢ`, present in (or implied by) the query.
    PresentAntecedent,
    /// Consequent of `cᵢ`, absent from the query — an introduction candidate.
    AbsentConsequent,
    /// Consequent of `cᵢ`, present in or introduced into the query, carrying
    /// its current tag.
    Tagged(PredicateTag),
}

impl CellState {
    /// Compact cell rendering used by the §3.5-style table dumps.
    pub fn code(self) -> &'static str {
        match self {
            CellState::NotPresent => "_",
            CellState::AbsentAntecedent => "AA",
            CellState::PresentAntecedent => "PA",
            CellState::AbsentConsequent => "AC",
            CellState::Tagged(PredicateTag::Imperative) => "I",
            CellState::Tagged(PredicateTag::Optional) => "O",
            CellState::Tagged(PredicateTag::Redundant) => "R",
        }
    }
}

impl fmt::Display for CellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How a predicate column relates to the query — with the column's tag, the
/// state every cell of the column is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnPresence {
    /// Appeared syntactically in the original query.
    InQuery,
    /// Not syntactically present, but implied by a query predicate
    /// (implication-aware matching only).
    Implied,
    /// Added by a restriction/index introduction.
    Introduced,
    /// Not present.
    Absent,
}

impl ColumnPresence {
    /// Whether the predicate can satisfy an antecedent occurrence.
    pub fn satisfies_antecedent(self) -> bool {
        !matches!(self, ColumnPresence::Absent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_order() {
        use PredicateTag::*;
        assert!(Imperative.can_lower_to(Optional));
        assert!(Imperative.can_lower_to(Redundant));
        assert!(Optional.can_lower_to(Redundant));
        assert!(!Optional.can_lower_to(Imperative));
        assert!(!Redundant.can_lower_to(Optional));
        assert!(!Imperative.can_lower_to(Imperative));
    }

    #[test]
    fn min_is_meet() {
        use PredicateTag::*;
        assert_eq!(Imperative.min(Optional), Optional);
        assert_eq!(Optional.min(Redundant), Redundant);
        assert_eq!(Redundant.min(Imperative), Redundant);
        assert_eq!(Optional.min(Optional), Optional);
    }

    #[test]
    fn cell_codes_match_paper_vocabulary() {
        assert_eq!(CellState::NotPresent.code(), "_");
        assert_eq!(CellState::AbsentAntecedent.code(), "AA");
        assert_eq!(CellState::PresentAntecedent.code(), "PA");
        assert_eq!(CellState::AbsentConsequent.code(), "AC");
        assert_eq!(CellState::Tagged(PredicateTag::Imperative).code(), "I");
    }

    #[test]
    fn presence_antecedent_satisfaction() {
        assert!(ColumnPresence::InQuery.satisfies_antecedent());
        assert!(ColumnPresence::Implied.satisfies_antecedent());
        assert!(ColumnPresence::Introduced.satisfies_antecedent());
        assert!(!ColumnPresence::Absent.satisfies_antecedent());
    }
}
