//! Serving-layer snapshot codecs: the CONSTRAINTS and QUERIES sections.
//!
//! The database sections are owned by `sqo-storage`; this module persists
//! what the serving layer adds on top — the compiled constraint store's
//! identity and contents, and the queries the plan cache held. Plans are
//! not persisted: a warm boot derives each query's entry again. The byte
//! layouts are specified normatively in `docs/FORMAT.md`; the validation
//! levels in `docs/VALIDATION.md`.

#![deny(missing_docs)]

use std::sync::Arc;

use sqo_catalog::{Catalog, ClassId, RelId};
use sqo_constraints::{
    transitive_closure, ClosureOptions, ConstraintError, ConstraintStore, HornConstraint, Origin,
    StoreOptions, StoreVersion,
};
use sqo_exec::ExecError;
use sqo_query::{Query, QueryError, QueryFingerprint};
use sqo_snapshot::{
    read_predicate, read_query, write_predicate, write_query, ByteReader, ByteWriter, LoadError,
};

use crate::cache::CacheEntry;
use crate::ServiceError;

/// Everything the CONSTRAINTS section carries: the store's semantic
/// identity and the exact constraint list it compiled, sufficient to
/// rebuild an equivalent [`ConstraintStore`] without re-running the
/// closure fixpoint.
#[derive(Debug, Clone)]
pub struct ConstraintSeed {
    /// Semantic epoch of the store at save time (restored monotonically via
    /// [`ConstraintStore::raise_epoch_to`]).
    pub epoch: u64,
    /// Generation of the saved store — informational only: generations are
    /// process-local, so a warm-started store always gets a fresh one.
    pub saved_generation: u64,
    /// Closure limits the store was built with (persisted so an Audit-level
    /// re-derivation reproduces the same truncation behaviour).
    pub closure: ClosureOptions,
    /// Number of closure-derived constraints in `constraints`.
    pub derived_count: usize,
    /// Whether a closure limit stopped the fixpoint before convergence.
    pub closure_truncated: bool,
    /// The full constraint list, declared and derived, in store order.
    pub constraints: Vec<HornConstraint>,
}

fn origin_tag(origin: Origin) -> u8 {
    match origin {
        Origin::Declared => 0,
        Origin::Derived => 1,
        Origin::Dynamic => 2,
    }
}

/// Encodes a [`ConstraintStore`] as the CONSTRAINTS section payload.
pub fn encode_constraints(store: &ConstraintStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(store.epoch());
    w.u64(store.generation());
    // The v1 layout's group-assignment policy byte: the LFA tag every
    // store has written. Readers ignore it.
    w.u8(1);
    let closure = store.closure_options();
    w.u64(closure.max_derived as u64);
    w.u64(closure.max_rounds as u64);
    w.u64(store.derived_count as u64);
    w.u8(u8::from(store.closure_truncated));
    w.u32(store.len() as u32);
    for (_, c) in store.constraints() {
        w.str(&c.name);
        w.u32(c.antecedents.len() as u32);
        for p in &c.antecedents {
            write_predicate(&mut w, p);
        }
        w.u32(c.relationships.len() as u32);
        for r in &c.relationships {
            w.u32(r.0);
        }
        write_predicate(&mut w, &c.consequent);
        w.u32(c.classes.len() as u32);
        for cl in &c.classes {
            w.u32(cl.0);
        }
        w.u8(origin_tag(c.origin));
    }
    w.finish()
}

/// Decodes the CONSTRAINTS section payload.
///
/// Checks structure, refuses an epoch at or above
/// [`sqo_snapshot::EPOCH_LIMIT`], from which a store could not keep
/// advancing, requires each constraint's class list to be strictly
/// ascending, and cross-checks `derived_count` against the number of
/// derived constraints. The ids the constraints name are resolved once,
/// by the store [`rebuild_store`] builds.
///
/// # Errors
/// [`LoadError::Malformed`] on structural damage, an out-of-range epoch or
/// a wrong `derived_count`, and [`LoadError::UnsortedPosting`] for a class
/// list out of order.
pub fn decode_constraints(payload: &[u8]) -> Result<ConstraintSeed, LoadError> {
    let mut r = ByteReader::new(payload, "CONSTRAINTS");
    let epoch = r.epoch()?;
    let saved_generation = r.u64()?;
    // The v1 layout's assignment-policy byte: must be 0, 1 or 2, and is
    // otherwise ignored.
    let policy = r.u8()?;
    if policy > 2 {
        return Err(r.malformed(format!("unknown assignment-policy tag {policy}")));
    }
    let closure = ClosureOptions { max_derived: r.u64()? as usize, max_rounds: r.u64()? as usize };
    let derived_count = r.u64()? as usize;
    let closure_truncated = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(r.malformed(format!("closure_truncated must be 0/1, got {t}"))),
    };
    let mut constraints = Vec::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let mut antecedents = Vec::new();
        for _ in 0..r.count()? {
            antecedents.push(read_predicate(&mut r)?);
        }
        let mut relationships = Vec::new();
        for _ in 0..r.count()? {
            relationships.push(RelId(r.u32()?));
        }
        let consequent = read_predicate(&mut r)?;
        let mut classes = Vec::new();
        for _ in 0..r.count()? {
            let class = ClassId(r.u32()?);
            if classes.last().is_some_and(|prev| *prev >= class) {
                return Err(LoadError::UnsortedPosting {
                    section: "CONSTRAINTS",
                    detail: format!("constraint {name:?} class list is not strictly ascending"),
                });
            }
            classes.push(class);
        }
        let origin = match r.u8()? {
            0 => Origin::Declared,
            1 => Origin::Derived,
            2 => Origin::Dynamic,
            t => return Err(r.malformed(format!("unknown origin tag {t}"))),
        };
        constraints.push(HornConstraint {
            name,
            antecedents,
            relationships,
            consequent,
            classes,
            origin,
        });
    }
    r.expect_exhausted()?;
    let actual = constraints.iter().filter(|c| c.origin == Origin::Derived).count();
    if actual != derived_count {
        return Err(r.malformed(format!(
            "derived_count says {derived_count} but {actual} constraints are Derived"
        )));
    }
    Ok(ConstraintSeed {
        epoch,
        saved_generation,
        closure,
        derived_count,
        closure_truncated,
        constraints,
    })
}

/// Audit-level cross-check of a store [`rebuild_store`] built from a
/// snapshot: re-runs the closure fixpoint over its non-derived constraints
/// under the persisted [`ClosureOptions`] and requires every persisted
/// derived constraint to be re-derivable. When the original closure
/// converged (not truncated) and no Dynamic constraints muddy the picture,
/// the re-derivation must match exactly.
///
/// # Errors
/// [`LoadError::AuditMismatch`] when the persisted derived set is not a
/// subset of (or, under convergence, not equal to) the re-derived set;
/// [`LoadError::Malformed`] if the closure itself rejects the inputs.
pub fn audit_constraints(store: &ConstraintStore) -> Result<(), LoadError> {
    let persisted = || store.constraints().map(|(_, c)| c);
    let base: Vec<HornConstraint> =
        persisted().filter(|c| c.origin != Origin::Derived).cloned().collect();
    let has_dynamic = base.iter().any(|c| c.origin == Origin::Dynamic);
    let rederived =
        transitive_closure(store.catalog(), base, store.closure_options()).map_err(|e| {
            LoadError::Malformed {
                section: "CONSTRAINTS",
                detail: format!("closure re-derivation rejected the constraint set: {e}"),
            }
        })?;
    let fresh: Vec<&HornConstraint> =
        rederived.constraints.iter().filter(|c| c.origin == Origin::Derived).collect();
    for c in persisted().filter(|c| c.origin == Origin::Derived) {
        if !fresh.iter().any(|f| {
            f.antecedents == c.antecedents
                && f.relationships == c.relationships
                && f.consequent == c.consequent
                && f.classes == c.classes
        }) {
            return Err(LoadError::AuditMismatch {
                detail: format!(
                    "persisted derived constraint {:?} is not re-derivable from the declared set",
                    c.name
                ),
            });
        }
    }
    if !store.closure_truncated && !rederived.truncated && !has_dynamic {
        let persisted = store.derived_count;
        let fresh_count = fresh.len();
        if persisted != fresh_count {
            return Err(LoadError::AuditMismatch {
                detail: format!(
                    "converged closure re-derives {fresh_count} constraints, snapshot has \
                     {persisted}"
                ),
            });
        }
    }
    Ok(())
}

/// Rebuilds a live [`ConstraintStore`] from a decoded seed: constraints
/// are taken verbatim (`materialize_closure: false` — the derived set is
/// already in the list), the saved semantic epoch is restored monotonically
/// and the store gets a fresh process-local generation. Building the store
/// resolves every class, relationship and attribute the constraints name,
/// the same check a live `add_constraint` passes.
///
/// # Errors
/// [`LoadError::DanglingReference`] for an id the catalog does not
/// resolve; [`LoadError::Malformed`] for any other refusal (a literal of
/// the wrong type).
pub fn rebuild_store(
    catalog: Arc<Catalog>,
    seed: ConstraintSeed,
) -> Result<ConstraintStore, LoadError> {
    let options = StoreOptions { materialize_closure: false, closure: seed.closure };
    let mut store = ConstraintStore::build(catalog, seed.constraints, options).map_err(|e| {
        let detail = format!("store compilation rejected the snapshot: {e}");
        match e {
            ConstraintError::Catalog(_) => {
                LoadError::DanglingReference { section: "CONSTRAINTS", detail }
            }
            _ => LoadError::Malformed { section: "CONSTRAINTS", detail },
        }
    })?;
    store.derived_count = seed.derived_count;
    store.closure_truncated = seed.closure_truncated;
    store.raise_epoch_to(seed.epoch);
    Ok(store)
}

/// Encodes the QUERIES section payload from a cache dump: the canonical
/// query of every entry valid at `current`, in dump order (stale entries
/// awaiting purge are skipped: the saving service no longer serves them
/// warm either).
pub(crate) fn encode_queries(
    entries: &[(QueryFingerprint, StoreVersion, Arc<CacheEntry>)],
    current: StoreVersion,
) -> Vec<u8> {
    let live: Vec<_> = entries.iter().filter(|(_, v, _)| *v == current).collect();
    let mut w = ByteWriter::new();
    w.u32(live.len() as u32);
    for (_, _, entry) in live {
        write_query(&mut w, &entry.canonical);
    }
    w.finish()
}

/// Decodes the QUERIES section payload. Only the structure is checked
/// here: what a query names is resolved by the optimizer that derives its
/// entry ([`refused_query`] types its refusal).
///
/// # Errors
/// [`LoadError::Malformed`] for structural damage.
pub(crate) fn decode_queries(payload: &[u8]) -> Result<Vec<Query>, LoadError> {
    let mut r = ByteReader::new(payload, "QUERIES");
    let mut queries = Vec::new();
    for _ in 0..r.count()? {
        queries.push(read_query(&mut r)?);
    }
    r.expect_exhausted()?;
    Ok(queries)
}

/// The load error for a persisted query the optimizer or planner refuses
/// to derive: [`LoadError::DanglingReference`] when it names an id the
/// catalog does not resolve, [`LoadError::Malformed`] otherwise.
pub(crate) fn refused_query(e: ServiceError) -> LoadError {
    let detail = format!("a persisted query does not derive: {e}");
    match e {
        ServiceError::Query(QueryError::Catalog(_))
        | ServiceError::Exec(ExecError::Catalog(_) | ExecError::Query(QueryError::Catalog(_))) => {
            LoadError::DanglingReference { section: "QUERIES", detail }
        }
        _ => LoadError::Malformed { section: "QUERIES", detail },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_workload::{paper_scenario, DbSize};

    #[test]
    fn constraint_store_roundtrips_at_audit() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        let seed = decode_constraints(&bytes).unwrap();
        assert_eq!(seed.epoch, s.store.epoch());
        assert_eq!(seed.derived_count, s.store.derived_count);
        let rebuilt = rebuild_store(catalog, seed).unwrap();
        audit_constraints(&rebuilt).unwrap();
        assert_eq!(rebuilt.len(), s.store.len());
        assert_eq!(rebuilt.epoch(), s.store.epoch());
        assert_ne!(rebuilt.generation(), s.store.generation(), "fresh generation");
        for ((_, a), (_, b)) in rebuilt.constraints().zip(s.store.constraints()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tampered_derived_constraint_fails_audit() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        let mut seed = decode_constraints(&bytes).unwrap();
        let victim = seed
            .constraints
            .iter_mut()
            .find(|c| c.origin == Origin::Derived)
            .expect("scenario materializes a closure");
        // Flip the consequent's operator: still well-formed, no longer derivable.
        if let sqo_query::Predicate::Sel(sel) = &mut victim.consequent {
            sel.op = match sel.op {
                sqo_query::CompOp::Eq => sqo_query::CompOp::Ne,
                _ => sqo_query::CompOp::Eq,
            };
        } else {
            victim.classes = vec![];
        }
        let store = rebuild_store(catalog, seed).unwrap();
        assert!(matches!(audit_constraints(&store), Err(LoadError::AuditMismatch { .. })));
    }

    #[test]
    fn truncated_constraints_section_is_clean_error() {
        let s = paper_scenario(DbSize::Db1, 7);
        let bytes = encode_constraints(&s.store);
        for cut in [0, 8, 17, 33, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_constraints(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }
}
