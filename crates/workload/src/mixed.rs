//! Mixed read/write serving workloads.
//!
//! Extends the Zipf-skewed repeated-query stream of
//! [`crate::service_workload`] with **data writes** for the mutable-data
//! serving experiments (E11): a configurable fraction of requests become
//! write operations, themselves Zipf-skewed across the writable classes.
//!
//! Writes must not silently break the semantic world the optimizer trusts,
//! so the generator only emits two provably safe shapes:
//!
//! * **Insert-duplicate** — clone a live instance of a class together with
//!   the link edges whose opposite end is declared `Many`. Every Horn
//!   constraint binding that involves the duplicate mirrors a binding of
//!   its source with identical attribute values (bindings needing links the
//!   duplicate lacks are vacuous), so constraints that held keep holding;
//!   copying exactly the `Many`-opposite edges also preserves the to-one
//!   and total-participation declarations (see [`dup_safe_classes`]).
//! * **Delete-duplicate** — remove *any* live duplicate of a class (the
//!   stream picks one pseudo-randomly). Duplicates only ever *added* edges,
//!   so removing one restores a previously valid state. Deleting a
//!   non-newest duplicate swap-renumbers the extent's last object — always
//!   itself a duplicate while any duplicate is live, so the base rows that
//!   `source_rank` indexes are never renumbered — and the applier re-maps
//!   its tracked ids from the batch's
//!   [`WriteReceipt`](sqo_storage::WriteReceipt) instead of relying on a
//!   LIFO-only convention.
//!
//! The [`MixedApplier`] resolves these logical writes into concrete
//! [`DataWrite`] batches against the current snapshot and tracks the live
//! duplicates per class.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_catalog::{Catalog, ClassId, Multiplicity, RelId};
use sqo_query::Query;
use sqo_storage::{DataWrite, Database, ObjectId, WriteReceipt};

use crate::service_workload::{respell, service_workload, ServiceWorkloadConfig, Zipf};

/// One logical write of a mixed workload, resolved against a live snapshot
/// by [`MixedApplier::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Duplicate (tuple + safe links) the instance of `class` at
    /// `source_rank % original cardinality`. Ranks index the *original*
    /// population, which duplicate-only deletion never renumbers.
    InsertDup { class: ClassId, source_rank: u32 },
    /// Delete the live duplicate of `class` at position `pick % live
    /// count` — any duplicate, not just the newest; falls back to an insert
    /// when none is live.
    DeleteDup { class: ClassId, pick: u32 },
}

/// One request of a mixed read/write stream.
#[derive(Debug, Clone)]
pub enum MixedOp {
    /// A query request: `index` names the distinct query it repeats.
    Read { index: usize, query: Query },
    /// A write request.
    Write(WriteKind),
}

/// Knobs for [`mixed_workload`].
#[derive(Debug, Clone, Copy)]
pub struct MixedWorkloadConfig {
    pub seed: u64,
    /// Number of distinct queries drawn from the pool.
    pub distinct: usize,
    /// Total requests (reads + writes) in the stream.
    pub requests: usize,
    /// Zipf skew of query popularity (see [`ServiceWorkloadConfig`]).
    pub zipf_s: f64,
    /// Emit each read as a shuffled spelling of its query.
    pub shuffle_spellings: bool,
    /// Fraction of requests that are writes, in `[0, 1]`.
    pub write_ratio: f64,
    /// Zipf skew of writes across the writable classes (`0` = uniform).
    pub write_zipf_s: f64,
    /// Fraction of writes that are deletions (of earlier duplicates).
    pub delete_fraction: f64,
}

impl Default for MixedWorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 31,
            distinct: 16,
            requests: 1024,
            zipf_s: 1.1,
            shuffle_spellings: true,
            write_ratio: 0.05,
            write_zipf_s: 0.8,
            delete_fraction: 0.4,
        }
    }
}

/// A generated mixed read/write request stream.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// The distinct queries, by popularity rank (index 0 = hottest).
    pub distinct: Vec<Query>,
    /// The request stream.
    pub ops: Vec<MixedOp>,
    pub reads: usize,
    pub writes: usize,
}

/// Classes that can safely receive insert-duplicate writes: every incident
/// relationship end of the class that is declared `total` must face a
/// `Many` opposite end (so the duplicated edge set satisfies totality
/// without overflowing anyone's to-one side). Self-relationships with a
/// total end disqualify a class (conservatively — edges to oneself cannot
/// be copied soundly).
pub fn dup_safe_classes(catalog: &Catalog) -> Vec<ClassId> {
    catalog
        .classes()
        .map(|(cid, _)| cid)
        .filter(|&cid| {
            let copyable = copyable_rels(catalog, cid);
            catalog.relationships().all(|(rid, def)| {
                let (a, b) = def.classes();
                if a != cid && b != cid {
                    return true;
                }
                if a == b {
                    // Self-relationship: safe only if neither end is total.
                    return !def.left.total && !def.right.total;
                }
                let (own, _) =
                    if a == cid { (&def.left, &def.right) } else { (&def.right, &def.left) };
                !own.total || copyable.contains(&rid)
            })
        })
        .collect()
}

/// The relationships whose edges an insert-duplicate of `class` copies:
/// exactly those whose opposite end is declared `Many` (the opposite object
/// may gain a link without violating its to-one declaration).
pub fn copyable_rels(catalog: &Catalog, class: ClassId) -> Vec<RelId> {
    catalog
        .relationships()
        .filter(|(_, def)| {
            let (a, b) = def.classes();
            if a == b {
                return false; // never copy self-relationship edges
            }
            let other = if a == class {
                &def.right
            } else if b == class {
                &def.left
            } else {
                return false;
            };
            other.multiplicity == Multiplicity::Many
        })
        .map(|(rid, _)| rid)
        .collect()
}

/// The constraint- and integrity-preserving duplicate insert: clones the
/// tuple of `class`'s instance at `source_rank % cardinality` together with
/// exactly the edges of `rels` — normally [`copyable_rels`]`(catalog,
/// class)`, the shape [`dup_safe_classes`] proves safe. Single source of
/// truth for every driver that fabricates safe writes ([`MixedApplier`]).
pub fn dup_insert(db: &Database, class: ClassId, source_rank: u32, rels: &[RelId]) -> DataWrite {
    let source = ObjectId(source_rank % db.cardinality(class).max(1) as u32);
    // invariant: the modulo keeps `source` under the cardinality, and
    // dup-safe classes are generated non-empty.
    let tuple = db.tuple(class, source).expect("source rank in range");
    let links: Vec<(RelId, ObjectId)> = rels
        .iter()
        .flat_map(|&rel| {
            // invariant: `rels` comes from copyable_rels(catalog, class),
            // every member of which has `class` as an endpoint.
            db.traverse(rel, class, source)
                .expect("copyable rel touches class") // invariant: see above
                .iter()
                .map(move |&other| (rel, other))
        })
        .collect();
    DataWrite::Insert { class, tuple, links }
}

/// Builds a mixed stream: reads follow the same Zipf-over-distinct-queries
/// law as [`service_workload`]; a `write_ratio` fraction of slots become
/// writes over the catalog's [`dup_safe_classes`], themselves Zipf-skewed
/// by `write_zipf_s`.
pub fn mixed_workload(
    pool: &[Query],
    catalog: &Catalog,
    config: &MixedWorkloadConfig,
) -> MixedWorkload {
    assert!((0.0..=1.0).contains(&config.write_ratio), "write_ratio must be a fraction");
    let writable = dup_safe_classes(catalog);
    assert!(!writable.is_empty(), "no class admits safe duplicate writes");
    // Reuse the read-stream generator for distinct-query selection and
    // popularity ranks, so E11 samples queries the way the read-only
    // serving tests do.
    let reads = service_workload(
        pool,
        &ServiceWorkloadConfig {
            seed: config.seed,
            distinct: config.distinct,
            requests: config.requests,
            zipf_s: config.zipf_s,
            shuffle_spellings: false, // respelled below with our own rng
        },
    );
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let class_zipf = Zipf::new(writable.len(), config.write_zipf_s);
    let mut ops = Vec::with_capacity(config.requests);
    let (mut n_reads, mut n_writes) = (0usize, 0usize);
    for (query, &index) in reads.requests.iter().zip(&reads.indices) {
        let is_write = rng.gen_range(0.0..1.0) < config.write_ratio;
        if is_write {
            let class = writable[class_zipf.sample(&mut rng)];
            let kind = if rng.gen_range(0.0..1.0) < config.delete_fraction {
                WriteKind::DeleteDup { class, pick: rng.gen_range(0..u32::MAX) }
            } else {
                WriteKind::InsertDup { class, source_rank: rng.gen_range(0..u32::MAX) }
            };
            ops.push(MixedOp::Write(kind));
            n_writes += 1;
        } else {
            let query =
                if config.shuffle_spellings { respell(query, &mut rng) } else { query.clone() };
            ops.push(MixedOp::Read { index, query });
            n_reads += 1;
        }
    }
    MixedWorkload { distinct: reads.distinct, ops, reads: n_reads, writes: n_writes }
}

/// Resolves [`WriteKind`]s into concrete [`DataWrite`] batches and tracks
/// the live duplicates per class.
///
/// Deletion is **not** restricted to the newest duplicate: the applier
/// consumes each committed batch's [`WriteReceipt`] and re-maps every
/// tracked id through the reported swap-remove moves, so any live duplicate
/// may be deleted at any time.
///
/// Concurrent drivers must serialize `resolve` + submit + `confirm` (e.g.
/// behind one mutex): resolution reads the snapshot the batch will apply
/// to, and the live sets must observe commits in order.
#[derive(Debug)]
pub struct MixedApplier {
    /// Original per-class cardinalities; ranks index into these rows, which
    /// duplicate-only deletion never renumbers (the renumbered last object
    /// is always itself a duplicate while any duplicate is live).
    base_cards: Vec<usize>,
    copy_rels: Vec<Vec<RelId>>,
    /// Live duplicate ids per class, in insertion order.
    live: Vec<Vec<ObjectId>>,
}

impl MixedApplier {
    pub fn new(db: &Database) -> Self {
        let catalog = db.catalog();
        let classes = catalog.class_count();
        Self {
            base_cards: (0..classes).map(|c| db.cardinality(ClassId(c as u32))).collect(),
            copy_rels: (0..classes).map(|c| copyable_rels(catalog, ClassId(c as u32))).collect(),
            live: vec![Vec::new(); classes],
        }
    }

    /// Number of live (not yet deleted) duplicates of `class`.
    pub fn live_dups(&self, class: ClassId) -> usize {
        self.live[class.index()].len()
    }

    /// Resolves `kind` against the current snapshot into the batch to
    /// submit. Returns `(class, victim, batch)` where `victim` names the
    /// duplicate a delete will remove (`None` for inserts); pass the
    /// committed outcome's receipt to [`MixedApplier::confirm`].
    pub fn resolve(
        &self,
        db: &Database,
        kind: &WriteKind,
    ) -> (ClassId, Option<ObjectId>, Vec<DataWrite>) {
        match *kind {
            WriteKind::DeleteDup { class, pick } => {
                let live = &self.live[class.index()];
                if !live.is_empty() {
                    let victim = live[pick as usize % live.len()];
                    return (
                        class,
                        Some(victim),
                        vec![DataWrite::Delete { class, object: victim }],
                    );
                }
                // Nothing to delete yet: degrade to an insert so the write
                // ratio holds.
                self.resolve(db, &WriteKind::InsertDup { class, source_rank: pick })
            }
            WriteKind::InsertDup { class, source_rank } => {
                // Ranks index the original population (never renumbered), so
                // wrap by the *base* cardinality, not the live one.
                let base = self.base_cards[class.index()].max(1);
                let write = dup_insert(
                    db,
                    class,
                    source_rank % base as u32,
                    &self.copy_rels[class.index()],
                );
                (class, None, vec![write])
            }
        }
    }

    /// Records a committed batch: registers the inserted duplicate or
    /// retires the deleted one, then re-maps every tracked id through the
    /// receipt's swap-remove moves (in order).
    pub fn confirm(&mut self, class: ClassId, victim: Option<ObjectId>, receipt: &WriteReceipt) {
        match victim {
            // invariant: the applier submits single-insert batches only,
            // so a no-victim receipt carries exactly one inserted id.
            None => self.live[class.index()]
                .push(*receipt.inserted.first().expect("insert batches insert exactly one object")), // invariant: see above
            Some(v) => {
                let live = &mut self.live[class.index()];
                // invariant: victims are drawn from `self.live` and each
                // is deleted (and thus retired here) at most once.
                let at = live.iter().position(|&o| o == v).expect("victim was a live duplicate");
                live.remove(at);
            }
        }
        for &(mclass, from, to) in &receipt.moves {
            for id in self.live[mclass.index()].iter_mut() {
                if *id == from {
                    *id = to;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_schema::bench_catalog;
    use crate::scenarios::{paper_scenario, DbSize};
    use sqo_storage::VersionedDatabase;
    use std::sync::Arc;

    #[test]
    fn every_bench_class_is_dup_safe_with_the_right_edges() {
        let catalog = bench_catalog().unwrap();
        let safe = dup_safe_classes(&catalog);
        assert_eq!(safe.len(), 5, "all bench classes admit duplicate writes: {safe:?}");
        // Cargo copies its two total spine edges; supplier must *not* copy
        // `supplies` (the cargo side is to-one) but copies the fan.
        let cargo = catalog.class_id("cargo").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        let contracts = catalog.rel_id("contracts").unwrap();
        let cargo_rels = copyable_rels(&catalog, cargo);
        assert!(cargo_rels.contains(&supplies) && cargo_rels.contains(&collects));
        let supplier_rels = copyable_rels(&catalog, supplier);
        assert!(!supplier_rels.contains(&supplies), "{supplier_rels:?}");
        assert!(supplier_rels.contains(&contracts), "{supplier_rels:?}");
    }

    #[test]
    fn mixed_workload_is_deterministic_and_honors_the_ratio() {
        let s = paper_scenario(DbSize::Db1, 42);
        let config = MixedWorkloadConfig { requests: 600, write_ratio: 0.2, ..Default::default() };
        let a = mixed_workload(&s.queries, &s.catalog, &config);
        let b = mixed_workload(&s.queries, &s.catalog, &config);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.reads + a.writes, 600);
        let ratio = a.writes as f64 / 600.0;
        assert!((0.12..0.28).contains(&ratio), "write ratio ~0.2, got {ratio}");
        for (x, y) in a.ops.iter().zip(&b.ops) {
            match (x, y) {
                (MixedOp::Read { index: i, query: q }, MixedOp::Read { index: j, query: p }) => {
                    assert_eq!(i, j);
                    assert_eq!(q, p);
                }
                (MixedOp::Write(k), MixedOp::Write(l)) => assert_eq!(k, l),
                _ => panic!("streams diverged"),
            }
        }
    }

    #[test]
    fn zero_ratio_degenerates_to_a_pure_read_stream() {
        let s = paper_scenario(DbSize::Db1, 7);
        let wl = mixed_workload(
            &s.queries,
            &s.catalog,
            &MixedWorkloadConfig { requests: 100, write_ratio: 0.0, ..Default::default() },
        );
        assert_eq!(wl.writes, 0);
        assert_eq!(wl.reads, 100);
    }

    #[test]
    fn non_lifo_deletes_remap_tracked_ids_from_the_receipt() {
        let s = paper_scenario(DbSize::Db1, 42);
        let catalog = Arc::clone(&s.catalog);
        let handle = VersionedDatabase::new(Arc::new(s.db));
        let cargo = catalog.class_id("cargo").unwrap();
        let base = handle.snapshot().cardinality(cargo);
        let mut applier = MixedApplier::new(&handle.snapshot());
        // Three duplicates, then delete the *oldest* (pick 0 of 3): the
        // newest duplicate is swap-renumbered onto the victim's id and the
        // applier must keep tracking it through the receipt.
        for rank in 0..3 {
            let (class, victim, batch) = applier.resolve(
                &handle.snapshot(),
                &WriteKind::InsertDup { class: cargo, source_rank: rank },
            );
            let outcome = handle.write(&batch).unwrap();
            applier.confirm(class, victim, &outcome.receipt);
        }
        assert_eq!(applier.live_dups(cargo), 3);
        let (class, victim, batch) =
            applier.resolve(&handle.snapshot(), &WriteKind::DeleteDup { class: cargo, pick: 0 });
        assert_eq!(victim, Some(ObjectId(base as u32)), "oldest duplicate chosen");
        let outcome = handle.write(&batch).unwrap();
        assert_eq!(
            outcome.receipt.moves,
            vec![(cargo, ObjectId(base as u32 + 2), ObjectId(base as u32))],
            "the newest duplicate moved onto the victim's id"
        );
        applier.confirm(class, victim, &outcome.receipt);
        assert_eq!(applier.live_dups(cargo), 2);
        // Both remaining tracked ids are live and deletable in any order.
        for pick in [1u32, 0] {
            let (class, victim, batch) =
                applier.resolve(&handle.snapshot(), &WriteKind::DeleteDup { class: cargo, pick });
            let outcome = handle.write(&batch).unwrap();
            applier.confirm(class, victim, &outcome.receipt);
        }
        assert_eq!(applier.live_dups(cargo), 0);
        assert_eq!(handle.snapshot().cardinality(cargo), base, "all duplicates retired");
    }

    #[test]
    fn applying_a_whole_write_stream_preserves_constraints_and_integrity() {
        let s = paper_scenario(DbSize::Db1, 42);
        let catalog = Arc::clone(&s.catalog);
        let store = s.store;
        let handle = VersionedDatabase::new(Arc::new(s.db));
        let wl = mixed_workload(
            &s.queries,
            &catalog,
            &MixedWorkloadConfig { requests: 300, write_ratio: 0.5, ..Default::default() },
        );
        let mut applier = MixedApplier::new(&handle.snapshot());
        let (mut inserts, mut deletes) = (0usize, 0usize);
        for op in &wl.ops {
            let MixedOp::Write(kind) = op else { continue };
            let snapshot = handle.snapshot();
            let (class, victim, batch) = applier.resolve(&snapshot, kind);
            // Integrity is enforced on every batch by the handle itself.
            let outcome = handle.write(&batch).expect("safe write rejected");
            applier.confirm(class, victim, &outcome.receipt);
            if victim.is_none() {
                inserts += 1;
            } else {
                deletes += 1;
            }
        }
        assert_eq!(inserts + deletes, wl.writes);
        assert!(deletes >= 1, "the stream exercises deletion");
        let final_db = handle.snapshot();
        assert_eq!(final_db.data_version(), wl.writes as u64);
        // Net growth accounting holds per class.
        for (cid, _) in catalog.classes() {
            assert_eq!(
                final_db.cardinality(cid),
                52 + applier.live_dups(cid),
                "{}",
                catalog.class_name(cid)
            );
        }
        // Every constraint still holds on the final instance — the write
        // stream never left the semantic world the optimizer trusts.
        for (_, c) in store.constraints() {
            assert!(final_db.check_constraint(c).is_empty(), "{} violated", c.name);
        }
    }
}
