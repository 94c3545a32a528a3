//! Transitive-closure materialization (paper §3).
//!
//! > "the transitive closures of the constraints are materialized during
//! > precompilation … e.g. if (A = a) → (B > 20) and (B > 10) → (C = c) then
//! > deduce (A = a) → (C = c)"
//!
//! The derivation step is resolution with *implication-aware* unification
//! (the `B > 20` / `B > 10` pair above): whenever `cᵢ`'s consequent implies
//! one or more antecedents of `cⱼ`, a new constraint is derived with those
//! antecedents discharged. The computation runs to a fixpoint under
//! configurable limits and a fixed budget of resolution attempts; truncation
//! is safe (the closure only *adds* optimization opportunities, never
//! correctness).

use std::collections::{HashMap, HashSet};

use sqo_catalog::{AttrRef, Catalog};
use sqo_query::Predicate;

use crate::error::ConstraintError;
use crate::horn::{HornConstraint, Origin};
use crate::pool::PredicatePool;

/// Limits for the fixpoint computation.
#[derive(Debug, Clone, Copy)]
pub struct ClosureOptions {
    /// Maximum number of *derived* constraints to keep.
    pub max_derived: usize,
    /// Maximum fixpoint rounds.
    pub max_rounds: usize,
}

impl Default for ClosureOptions {
    fn default() -> Self {
        Self { max_derived: 4096, max_rounds: 8 }
    }
}

impl ClosureOptions {
    /// No closure: zero rounds, so the constraints stay exactly as given.
    pub fn none() -> Self {
        Self { max_derived: 0, max_rounds: 0 }
    }
}

/// Resolution attempts one closure may make, whatever its limits: the
/// pairs tried grow with the square of the constraints that share an
/// attribute, and a snapshot states its constraints, so without this bound
/// a file could buy boot work quadratic in its size. Past it the closure is
/// truncated. The experiments' closures make at most 40 attempts.
const RESOLUTION_BUDGET: usize = 1 << 20;

/// Outcome of the closure computation.
#[derive(Debug, Clone)]
pub struct ClosureResult {
    /// Original constraints followed by derived ones.
    pub constraints: Vec<HornConstraint>,
    /// How many of `constraints` were derived: all past the inputs.
    pub derived_count: usize,
    pub rounds: usize,
    /// True if a limit stopped the fixpoint before convergence.
    pub truncated: bool,
}

/// Canonical dedup key: order-insensitive in the antecedents. Predicates
/// are interned into a shared [`PredicatePool`] so the key is three small
/// integer lists instead of a formatted string — canonical predicates make
/// structural interning coincide with logical equality.
type DedupKey = (Vec<u32>, Vec<u32>, u32);

fn key(pool: &mut PredicatePool, c: &HornConstraint) -> DedupKey {
    let mut ants: Vec<u32> = c.antecedents.iter().map(|p| pool.intern(p).0).collect();
    ants.sort_unstable();
    let mut rels: Vec<u32> = c.relationships.iter().map(|r| r.0).collect();
    rels.sort_unstable();
    (ants, rels, pool.intern(&c.consequent).0)
}

/// Key of a posting: the attribute(s) a predicate constrains. Implication
/// never crosses attributes, so equal keys are a *complete* candidate filter
/// for "could this predicate satisfy that antecedent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AttrKey {
    /// A selective predicate on one attribute.
    Sel(AttrRef),
    /// A join predicate on a canonical (left ≤ right) attribute pair.
    Join(AttrRef, AttrRef),
}

impl AttrKey {
    /// The key under which `pred` files (and is probed).
    fn of(pred: &Predicate) -> AttrKey {
        match pred {
            Predicate::Sel(s) => AttrKey::Sel(s.attr),
            Predicate::Join(j) => AttrKey::Join(j.left, j.right),
        }
    }
}

/// Attribute-keyed postings over the working constraint set: which
/// constraints *consume* (have an antecedent on) and which *produce* (have
/// their consequent on) a given attribute key. Because implication never
/// crosses attribute keys, these postings are a complete candidate filter
/// for [`resolve`] — the fixpoint probes them instead of pairing every
/// frontier constraint against the whole set.
#[derive(Debug, Default)]
struct ResolutionIndex {
    consumers: HashMap<AttrKey, Vec<usize>>,
    producers: HashMap<AttrKey, Vec<usize>>,
}

impl ResolutionIndex {
    fn file(&mut self, i: usize, c: &HornConstraint) {
        for a in &c.antecedents {
            let bucket = self.consumers.entry(AttrKey::of(a)).or_default();
            if bucket.last() != Some(&i) {
                bucket.push(i);
            }
        }
        self.producers.entry(AttrKey::of(&c.consequent)).or_default().push(i);
    }

    fn consumers_of(&self, key: AttrKey) -> &[usize] {
        self.consumers.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Constraints whose consequent could discharge one of `c`'s
    /// antecedents, ascending and deduplicated.
    fn producers_for(&self, c: &HornConstraint, out: &mut Vec<usize>) {
        out.clear();
        for a in &c.antecedents {
            out.extend_from_slice(
                self.producers.get(&AttrKey::of(a)).map(|v| v.as_slice()).unwrap_or(&[]),
            );
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Attempts the resolution of `ci` into `cj`: discharge every antecedent of
/// `cj` that `ci`'s consequent implies.
fn resolve(catalog: &Catalog, ci: &HornConstraint, cj: &HornConstraint) -> Option<HornConstraint> {
    let discharged: Vec<bool> = cj.antecedents.iter().map(|a| ci.consequent.implies(a)).collect();
    if !discharged.iter().any(|&d| d) {
        return None;
    }
    let mut antecedents = ci.antecedents.clone();
    for (a, &d) in cj.antecedents.iter().zip(&discharged) {
        if !d && !antecedents.contains(a) {
            antecedents.push(a.clone());
        }
    }
    let mut relationships = ci.relationships.clone();
    for r in &cj.relationships {
        if !relationships.contains(r) {
            relationships.push(*r);
        }
    }
    let mut extra = ci.classes.clone();
    extra.extend(cj.classes.iter().copied());
    let name = format!("{}*{}", ci.name, cj.name);
    HornConstraint::new(
        catalog,
        name,
        antecedents,
        relationships,
        cj.consequent.clone(),
        extra,
        Origin::Derived,
    )
    .ok() // tautologies / contradictions are silently dropped
}

/// Materializes the transitive closure of `constraints`.
pub fn transitive_closure(
    catalog: &Catalog,
    constraints: Vec<HornConstraint>,
    options: ClosureOptions,
) -> Result<ClosureResult, ConstraintError> {
    let mut all = constraints;
    let inputs = all.len();
    let mut pool = PredicatePool::new();
    let mut seen: HashSet<DedupKey> = HashSet::with_capacity(all.len() * 2);
    let mut index = ResolutionIndex::default();
    for (i, c) in all.iter().enumerate() {
        seen.insert(key(&mut pool, c));
        index.file(i, c);
    }
    let mut attempts = 0usize;
    let mut truncated = false;
    let mut rounds = 0usize;

    // Frontier-based semi-naive iteration, probing the attribute-keyed
    // postings instead of pairing each new constraint with the whole set:
    // only constraints sharing an attribute key can ever resolve, so the
    // probe is recall-complete and the derived set matches the exhaustive
    // pairing exactly (same discovery order, see the merge walk below).
    let mut producers: Vec<usize> = Vec::new();
    let mut frontier: Vec<usize> = (0..all.len()).collect();
    while !frontier.is_empty() && rounds < options.max_rounds {
        rounds += 1;
        let mut fresh: Vec<HornConstraint> = Vec::new();
        'round: for &fi in &frontier {
            // `consumers` could absorb fi's consequent (direction fi → j);
            // `producers` could discharge one of fi's antecedents (j → fi).
            // Walk both ascending, trying (fi, j) before (j, fi) per j — the
            // candidate order of the exhaustive double loop.
            let consumers = index.consumers_of(AttrKey::of(&all[fi].consequent));
            index.producers_for(&all[fi], &mut producers);
            let (mut ci, mut pi) = (0usize, 0usize);
            loop {
                let j = match (consumers.get(ci), producers.get(pi)) {
                    (Some(&c), Some(&p)) => c.min(p),
                    (Some(&j), None) | (None, Some(&j)) => j,
                    (None, None) => break,
                };
                let as_consumer = consumers.get(ci) == Some(&j);
                let as_producer = producers.get(pi) == Some(&j);
                ci += usize::from(as_consumer);
                pi += usize::from(as_producer);
                if j == fi {
                    continue;
                }
                let dirs = [as_consumer.then_some((fi, j)), as_producer.then_some((j, fi))];
                for (a, b) in dirs.into_iter().flatten() {
                    if attempts == RESOLUTION_BUDGET {
                        truncated = true;
                        break 'round;
                    }
                    attempts += 1;
                    if let Some(d) = resolve(catalog, &all[a], &all[b]) {
                        let k = key(&mut pool, &d);
                        if seen.insert(k) {
                            if all.len() - inputs + fresh.len() >= options.max_derived {
                                truncated = true;
                            } else {
                                fresh.push(d);
                            }
                        }
                    }
                }
            }
        }
        if truncated {
            break; // the round's derivations are not kept
        }
        let start = all.len();
        all.extend(fresh);
        for (i, c) in all.iter().enumerate().skip(start) {
            index.file(i, c);
        }
        frontier = (start..all.len()).collect();
    }
    if !frontier.is_empty() && rounds >= options.max_rounds {
        truncated = true;
    }
    Ok(ClosureResult { derived_count: all.len() - inputs, constraints: all, rounds, truncated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{AttributeDef, Catalog, DataType};
    use sqo_query::CompOp;

    /// One class with attributes a, b, c, d — enough for chains.
    fn chain_catalog() -> Catalog {
        let mut b = Catalog::builder();
        b.class(
            "t",
            vec![
                AttributeDef::new("a", DataType::Int),
                AttributeDef::new("b", DataType::Int),
                AttributeDef::new("c", DataType::Int),
                AttributeDef::new("d", DataType::Int),
            ],
        )
        .unwrap();
        b.build().unwrap()
    }

    fn mk(
        cat: &Catalog,
        name: &str,
        ante: (&str, CompOp, i64),
        cons: (&str, CompOp, i64),
    ) -> HornConstraint {
        HornConstraint::new(
            cat,
            name,
            vec![Predicate::sel(cat.attr_ref("t", ante.0).unwrap(), ante.1, ante.2)],
            vec![],
            Predicate::sel(cat.attr_ref("t", cons.0).unwrap(), cons.1, cons.2),
            vec![],
            Origin::Declared,
        )
        .unwrap()
    }

    /// 750 constraints on one attribute, none of which resolves with
    /// another, pair up about 1.1 million ways: the fixpoint stops at its
    /// resolution budget and reports truncation instead of trying them all.
    #[test]
    fn resolution_attempts_are_bounded() {
        let cat = chain_catalog();
        let same_key: Vec<HornConstraint> = (0..750)
            .map(|i| mk(&cat, "s", ("a", CompOp::Gt, i), ("a", CompOp::Lt, i + 10)))
            .collect();
        let res = transitive_closure(&cat, same_key, ClosureOptions::default()).unwrap();
        assert_eq!((res.derived_count, res.constraints.len()), (0, 750));
        assert!(res.truncated, "the budget stopped the fixpoint");
    }

    #[test]
    fn derives_the_papers_example() {
        // (A = 1) -> (B > 20), (B > 10) -> (C = 3)  ⊢  (A = 1) -> (C = 3)
        let cat = chain_catalog();
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Gt, 20));
        let c2 = mk(&cat, "c2", ("b", CompOp::Gt, 10), ("c", CompOp::Eq, 3));
        let res = transitive_closure(&cat, vec![c1, c2], ClosureOptions::default()).unwrap();
        assert_eq!(res.derived_count, 1);
        assert!(!res.truncated);
        let derived = &res.constraints[2];
        assert_eq!(derived.origin, Origin::Derived);
        assert_eq!(
            derived.antecedents,
            vec![Predicate::sel(cat.attr_ref("t", "a").unwrap(), CompOp::Eq, 1i64)]
        );
        assert_eq!(
            derived.consequent,
            Predicate::sel(cat.attr_ref("t", "c").unwrap(), CompOp::Eq, 3i64)
        );
    }

    #[test]
    fn no_derivation_without_implication() {
        // (A = 1) -> (B > 5) does NOT discharge (B > 10).
        let cat = chain_catalog();
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Gt, 5));
        let c2 = mk(&cat, "c2", ("b", CompOp::Gt, 10), ("c", CompOp::Eq, 3));
        let res = transitive_closure(&cat, vec![c1, c2], ClosureOptions::default()).unwrap();
        assert_eq!(res.derived_count, 0);
    }

    #[test]
    fn three_step_chain_closes() {
        let cat = chain_catalog();
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Eq, 2));
        let c2 = mk(&cat, "c2", ("b", CompOp::Eq, 2), ("c", CompOp::Eq, 3));
        let c3 = mk(&cat, "c3", ("c", CompOp::Eq, 3), ("d", CompOp::Eq, 4));
        let res = transitive_closure(&cat, vec![c1, c2, c3], ClosureOptions::default()).unwrap();
        // Derived: a->c, b->d, a->d  (a->d reachable in round 2)
        assert_eq!(res.derived_count, 3);
        assert!(res.rounds >= 2);
        let a_to_d = res.constraints.iter().any(|c| {
            c.antecedents == vec![Predicate::sel(cat.attr_ref("t", "a").unwrap(), CompOp::Eq, 1i64)]
                && c.consequent == Predicate::sel(cat.attr_ref("t", "d").unwrap(), CompOp::Eq, 4i64)
        });
        assert!(a_to_d, "a -> d must be derived transitively");
    }

    #[test]
    fn cycles_terminate() {
        // a=1 -> b=2, b=2 -> a=1: derivations are tautologies, dropped.
        let cat = chain_catalog();
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Eq, 2));
        let c2 = mk(&cat, "c2", ("b", CompOp::Eq, 2), ("a", CompOp::Eq, 1));
        let res = transitive_closure(&cat, vec![c1, c2], ClosureOptions::default()).unwrap();
        assert_eq!(res.derived_count, 0);
        assert!(!res.truncated);
    }

    #[test]
    fn limit_truncates_gracefully() {
        let cat = chain_catalog();
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Eq, 2));
        let c2 = mk(&cat, "c2", ("b", CompOp::Eq, 2), ("c", CompOp::Eq, 3));
        let c3 = mk(&cat, "c3", ("c", CompOp::Eq, 3), ("d", CompOp::Eq, 4));
        let res = transitive_closure(
            &cat,
            vec![c1, c2, c3],
            ClosureOptions { max_derived: 1, max_rounds: 8 },
        )
        .unwrap();
        assert!(res.truncated);
        // The limit stopped round 1, whose derivations are not kept.
        assert_eq!((res.derived_count, res.constraints.len()), (0, 3));
    }

    /// The budget stops a round that has already derived `c1*c2`: the round
    /// is dropped, and so is its count.
    #[test]
    fn budget_truncation_counts_only_what_it_keeps() {
        let cat = chain_catalog();
        let mut inputs = vec![
            mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Gt, 20)),
            mk(&cat, "c2", ("b", CompOp::Gt, 10), ("c", CompOp::Eq, 3)),
        ];
        inputs.extend(
            (0..750).map(|i| mk(&cat, "s", ("d", CompOp::Gt, i), ("d", CompOp::Lt, i + 10))),
        );
        let res = transitive_closure(&cat, inputs, ClosureOptions::default()).unwrap();
        assert!(res.truncated, "the budget stopped the fixpoint");
        assert_eq!(res.derived_count, res.constraints.len() - 752);
    }

    /// The round limit stops after round 1 kept `a -> c` and `b -> d`;
    /// `a -> d` needed round 2.
    #[test]
    fn round_truncation_counts_what_it_keeps() {
        let cat = chain_catalog();
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Eq, 2));
        let c2 = mk(&cat, "c2", ("b", CompOp::Eq, 2), ("c", CompOp::Eq, 3));
        let c3 = mk(&cat, "c3", ("c", CompOp::Eq, 3), ("d", CompOp::Eq, 4));
        let res = transitive_closure(
            &cat,
            vec![c1, c2, c3],
            ClosureOptions { max_derived: 4096, max_rounds: 1 },
        )
        .unwrap();
        assert!(res.truncated);
        assert_eq!((res.derived_count, res.constraints.len()), (2, 5));
    }

    #[test]
    fn multi_antecedent_discharge_keeps_remainder() {
        let cat = chain_catalog();
        // c1: (a=1) -> (b=2).  c2: (b=2) ∧ (c=3) -> (d=4).
        let c1 = mk(&cat, "c1", ("a", CompOp::Eq, 1), ("b", CompOp::Eq, 2));
        let c2 = HornConstraint::new(
            &cat,
            "c2",
            vec![
                Predicate::sel(cat.attr_ref("t", "b").unwrap(), CompOp::Eq, 2i64),
                Predicate::sel(cat.attr_ref("t", "c").unwrap(), CompOp::Eq, 3i64),
            ],
            vec![],
            Predicate::sel(cat.attr_ref("t", "d").unwrap(), CompOp::Eq, 4i64),
            vec![],
            Origin::Declared,
        )
        .unwrap();
        let res = transitive_closure(&cat, vec![c1, c2], ClosureOptions::default()).unwrap();
        assert_eq!(res.derived_count, 1);
        let d = &res.constraints[2];
        // Derived: (a=1) ∧ (c=3) -> (d=4)
        assert_eq!(d.antecedents.len(), 2);
        assert!(d.antecedents.contains(&Predicate::sel(
            cat.attr_ref("t", "a").unwrap(),
            CompOp::Eq,
            1i64
        )));
        assert!(d.antecedents.contains(&Predicate::sel(
            cat.attr_ref("t", "c").unwrap(),
            CompOp::Eq,
            3i64
        )));
    }
}
