//! Serving-layer snapshot codecs: the CONSTRAINTS and QUERIES sections.
//!
//! The database sections are owned by `sqo-storage`; this module persists
//! what the serving layer adds on top — the constraint store's epoch and
//! constraints, and the queries the plan cache held. Derived state is not
//! persisted: a warm boot derives each query's entry again. The byte
//! layouts are specified normatively in `docs/FORMAT.md`; the validation
//! levels in `docs/VALIDATION.md`.

#![deny(missing_docs)]

use std::sync::Arc;

use sqo_catalog::{Catalog, ClassId, RelId};
use sqo_constraints::{
    ConstraintError, ConstraintStore, HornConstraint, StoreOptions, StoreVersion,
};
use sqo_exec::ExecError;
use sqo_query::{Query, QueryError, QueryFingerprint};
use sqo_snapshot::{
    read_predicate, read_query, write_predicate, write_query, ByteReader, ByteWriter, LoadError,
};

use crate::cache::CacheEntry;
use crate::ServiceError;

/// Encodes a [`ConstraintStore`] as the CONSTRAINTS section payload: its
/// epoch and its constraints, in store order.
pub fn encode_constraints(store: &ConstraintStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(store.epoch());
    w.u32(store.len() as u32);
    for (_, c) in store.constraints() {
        write_constraint(&mut w, c, store.catalog());
    }
    w.finish()
}

/// One constraint as the CONSTRAINTS section lays it out: the arguments
/// [`HornConstraint::new`] takes to rebuild it, its scope classes the only
/// part of its class set the predicates and relationships do not state.
fn write_constraint(w: &mut ByteWriter, c: &HornConstraint, catalog: &Catalog) {
    w.str(&c.name);
    w.u32(c.antecedents.len() as u32);
    for p in &c.antecedents {
        write_predicate(w, p);
    }
    w.u32(c.relationships.len() as u32);
    for r in &c.relationships {
        w.u32(r.0);
    }
    write_predicate(w, &c.consequent);
    let scope = c.scope_classes(catalog);
    w.u32(scope.len() as u32);
    for class in scope {
        w.u32(class.0);
    }
}

/// Decodes the CONSTRAINTS section payload into the store it describes:
/// each entry rebuilt by [`HornConstraint::new`], so a file states no
/// constraint a caller could not build, then [`ConstraintStore::build`]
/// over them in file order, at the saved epoch with a fresh process-local
/// generation. The store holds exactly the constraints the file states.
///
/// # Errors
/// [`LoadError::Malformed`] on structural damage, an epoch at or above
/// [`sqo_snapshot::EPOCH_LIMIT`] (from which a store could not keep
/// advancing), or a constraint `new` refuses (a literal of the wrong type,
/// an antecedent that implies the consequent, contradictory antecedents);
/// [`LoadError::DanglingReference`] for an id the catalog does not
/// resolve.
pub fn decode_constraints(
    payload: &[u8],
    catalog: Arc<Catalog>,
) -> Result<ConstraintStore, LoadError> {
    let mut r = ByteReader::new(payload, "CONSTRAINTS");
    let epoch = r.epoch()?;
    let mut stated = Vec::new();
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
        let mut scope = Vec::new();
        for _ in 0..r.count()? {
            scope.push(ClassId(r.u32()?));
        }
        let c = HornConstraint::new(&catalog, name, antecedents, relationships, consequent, scope)
            .map_err(refused_constraint)?;
        stated.push(c);
    }
    r.expect_exhausted()?;
    let store = ConstraintStore::build(catalog, stated, StoreOptions::paper_defaults())
        .map_err(refused_constraint)?;
    store.raise_epoch_to(epoch);
    Ok(store)
}

/// The load error for a stated constraint the constraint check refuses:
/// [`LoadError::DanglingReference`] when it names an id the catalog does
/// not resolve, [`LoadError::Malformed`] otherwise.
fn refused_constraint(e: ConstraintError) -> LoadError {
    let detail = format!("a stated constraint does not build: {e}");
    match e {
        ConstraintError::Catalog(_) => {
            LoadError::DanglingReference { section: "CONSTRAINTS", detail }
        }
        _ => LoadError::Malformed { section: "CONSTRAINTS", detail },
    }
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

    /// The store decodes into the encoded constraints, in order, and epoch,
    /// under a fresh generation. (The name is older than the single load
    /// level; the decoder takes none.)
    #[test]
    fn constraint_store_roundtrips_at_audit() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        let rebuilt = decode_constraints(&bytes, catalog).unwrap();
        assert_eq!(rebuilt.len(), s.store.len());
        for ((_, x), (_, y)) in rebuilt.constraints().zip(s.store.constraints()) {
            assert_eq!(x, y);
        }
        assert_eq!(rebuilt.epoch(), s.store.epoch());
        assert_ne!(rebuilt.generation(), s.store.generation(), "fresh generation");
    }

    #[test]
    fn truncated_constraints_section_is_clean_error() {
        let s = paper_scenario(DbSize::Db1, 7);
        let catalog = Arc::clone(s.store.catalog());
        let bytes = encode_constraints(&s.store);
        for cut in [0, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_constraints(&bytes[..cut], Arc::clone(&catalog)).is_err(),
                "cut at {cut} decoded"
            );
        }
    }
}
