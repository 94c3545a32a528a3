//! The sharded semantic-plan cache.
//!
//! Keyed by the **canonical query fingerprint**, which any spelling of a
//! query hashes to without being canonicalized ([`Query::fingerprint`]). A
//! slot is verified against the request as spelled: the slot's canonical
//! query must hold the same set of elements in each of the five parts
//! ([`Query::same_canonical`]), which rules out 64-bit collisions without
//! building the request's canonical form. Every slot additionally
//! records the [`StoreVersion`] (constraint-store generation + epoch) its
//! rewrite was derived under, and a lookup only hits when the caller's
//! current version matches. Versions — not raw epochs — are the identity:
//! epochs collide across copy-on-write store swaps (see
//! [`sqo_constraints::StoreVersion`]), and an epoch-keyed cache can serve a
//! plan derived under the wrong constraints.
//!
//! Invalidation is two-level:
//!
//! * **Constraint inserts** call [`ShardedCache::invalidate_classes`] with
//!   the inserted constraint's touched class set: entries whose canonical
//!   query overlaps it are removed, all others are *revalidated* — re-stamped
//!   to the successor store's version in place (sound because constraint
//!   relevance requires `classes(c) ⊆ classes(q)`; a disjoint query's
//!   relevant set, and hence its rewrite and plan, is unchanged).
//! * **Statistics changes and store swaps** call
//!   [`ShardedCache::purge_stale`], which drops everything not derived under
//!   the current version — including entries stamped with *future* epochs of
//!   a different store generation, the case the old `epoch >= floor`
//!   retention silently kept alive.
//!
//! Data writes never touch the plan cache at all: plans depend only on
//! constraints and the statistics tier. What a data write expires is the
//! **result memo** of each entry whose plan reads a class the batch changed
//! ([`CacheEntry::memoized_results`]); every other memo keeps serving.
//!
//! # When a result memo may be served
//!
//! A memo is `(E, rows)`: the rows the entry's plan `P` produced on the
//! snapshot of data epoch `E`. A reader at data epoch `E'` (loaded from
//! the write path's epoch; checking a memo pins no snapshot) is served it
//! when `E' == E`, or when `E' > E` and none of the classes
//! `P` binds (its root and each step's class) was written after `E` in the
//! lineage the rows were read from — the rows carry that lineage's
//! per-class write epochs ([`ResultSet::written_after`],
//! `sqo_storage::WriteEpochs`), so the check needs no database handle and
//! is one comparison when no write happened.
//!
//! *Why that is sound.* `P` is a plan of the optimized query `Q'`, and a
//! cached `P` already survives data writes on the standing assumption that
//! every committed state satisfies the constraints — that, and nothing
//! else, is what makes re-executing `P` at `E'` answer the original query
//! `Q` at all (the paper's contract, and Chirkova's equivalence under
//! dependencies in PAPERS.md: `Q' ≡ Q` on every database satisfying them).
//! Under the same assumption `P(S_E') = Q'(S_E') = Q(S_E')`. An execution
//! of `P` reads only the extents and indexes of the classes it binds and
//! the link tables of the relationships it traverses, and a traversed
//! relationship has both endpoint classes bound; storage raises a class's
//! write epoch for every batch that changes its extent or a link table it
//! is an endpoint of. So if no bound class was written in `(E, E']`, `P`
//! reads the same shards in both states and `P(S_E') = P(S_E)` — the memo.
//!
//! *Why the plan's classes and not the original query's.* A class the
//! optimizer eliminated constrains the answer only through the constraint
//! that justified eliminating it, which holds on every legal state. A
//! write to that class that broke the constraint would make today's
//! re-execution of `P` as wrong as the memo; keeping the class in the read
//! set would buy nothing (`tests/class_precise_memo.rs` pins it).
//!
//! *The conservative side.* A reader older than the memo (`E' < E`), a
//! write epoch already raised by a batch whose snapshot is not swapped in
//! yet, a lineage forked into two `VersionedDatabase`s, and a memo with no
//! lineage (a provably-empty entry's hand-built empty set): all
//! re-execute. Storage raises the write epochs *before* it swaps the
//! snapshot in, so the other side cannot happen: a reader holding epoch
//! `E'` sees every raise of every epoch `≤ E'`. One imprecision is
//! accepted: a bare `Link`/`Unlink` raises both endpoint classes, so it
//! also expires memos that read one of them without traversing that
//! relationship.
//!
//! Shards are independent `RwLock`s (`sqo_query::sync`, rank
//! `CACHE_SHARD`) selected by fingerprint bits, so concurrent readers of
//! *different* queries never contend, and readers of the *same* hot query
//! share a read lock. A shard's map is keyed by the fingerprint as it is:
//! it is already a mixed 64-bit hash, and the capacity bound keeps the
//! worst probe bounded however the keys fall.
//!
//! # Eviction: CLOCK
//!
//! Each shard evicts past its capacity by CLOCK (second chance). Its keys
//! stand in a ring in insertion order, and the *hand* is the ring's front.
//! A hit sets its slot's reference bit: a relaxed load, and a store only
//! when the bit is clear, under the shared read lock, so a hot entry's hits
//! write nothing and no hit touches a line another query's hit writes. An
//! insert into a full shard moves the hand: a slot with its bit set has
//! the bit cleared and goes to the back of the ring, and the first slot
//! without one is evicted. Among the slots without a bit the hand thus
//! evicts the one inserted first; a shard that served no hit evicts
//! exactly as LRU did, which is why an all-miss stream cycling more
//! distinct queries than a shard holds never hits (the cold workloads'
//! invariant, `tests::a_cycle_longer_than_a_shard_never_hits`). Each
//! eviction is O(1) amortized: every slot the hand passes lost its bit, so
//! one sweep finds a victim. Replacing a live key moves it to the back of
//! the ring, as a fresh insert; that takes a scan of the shard's ring, and
//! happens only when two misses of one query race or an entry is derived
//! again under a new version.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use sqo_catalog::{AttrRef, ClassId};
use sqo_constraints::StoreVersion;
use sqo_exec::{PhysicalPlan, ResultSet};
use sqo_query::sync::{CountPair, Counter, Held, RwLock, Unlocked, CACHE_MEMO, CACHE_SHARD};
use sqo_query::{Query, QueryFingerprint};

use crate::singleflight::FlightTable;

/// One cached optimization: everything needed to answer the query again
/// without re-running the transformation fixpoint or the planner.
#[derive(Debug)]
pub struct CacheEntry {
    /// The canonical query — kept to disarm 64-bit fingerprint collisions.
    pub canonical: Query,
    /// The semantically optimized query.
    pub optimized: Query,
    /// The physical plan, shareable across executing threads. `None` iff
    /// the optimizer proved the answer empty (no plan is ever needed).
    pub plan: Option<Arc<PhysicalPlan>>,
    /// The optimizer proved the predicate set unsatisfiable: the answer is
    /// empty in every database state satisfying the constraints.
    pub provably_empty: bool,
    /// Result columns, for materializing empty answers without a plan.
    pub columns: Vec<AttrRef>,
    /// Result memo with the **data epoch** it was computed at: a plan
    /// survives every data write, its materialized answer those that leave
    /// the plan's classes alone (module docs). Readers it is valid for
    /// share the `Arc`; the first reader after a write to one of the
    /// plan's classes re-executes and republishes (monotone: a racing
    /// older execution never overwrites a newer one).
    results: RwLock<CACHE_MEMO, Option<(u64, Arc<ResultSet>)>>,
}

impl CacheEntry {
    pub fn new(
        canonical: Query,
        optimized: Query,
        plan: Option<Arc<PhysicalPlan>>,
        provably_empty: bool,
        columns: Vec<AttrRef>,
    ) -> Self {
        Self { canonical, optimized, plan, provably_empty, columns, results: RwLock::new(None) }
    }

    /// The memoized result set, iff it answers a reader at `data_epoch`:
    /// it was computed at that epoch, or at an earlier one and no class
    /// the plan binds was written since (module docs, *When a result memo
    /// may be served*).
    pub fn memoized_results(&self, data_epoch: u64) -> Option<Arc<ResultSet>> {
        match &*self.results.read(&mut Unlocked::new()) {
            Some((epoch, results)) if *epoch == data_epoch => Some(Arc::clone(results)),
            Some((epoch, results))
                if *epoch < data_epoch && self.unwritten_since(*epoch, results) =>
            {
                Some(Arc::clone(results))
            }
            _ => None,
        }
    }

    /// Whether `results`, computed at `epoch`, are provably what the plan
    /// would produce now: its lineage is known and no bound class was
    /// written after `epoch`. An entry without a plan proves nothing.
    fn unwritten_since(&self, epoch: u64, results: &ResultSet) -> bool {
        let Some(plan) = &self.plan else { return false };
        results.written_after(epoch, plan.bound_classes()) == Some(false)
    }

    /// Publishes results computed at `data_epoch`. Keeps whichever memo is
    /// newer, so a slow executor racing a write can never clobber the
    /// post-write recomputation.
    pub fn publish_results(&self, data_epoch: u64, results: &Arc<ResultSet>) {
        let mut held = Unlocked::new();
        let mut slot = self.results.write(&mut held);
        match &*slot {
            Some((epoch, _)) if *epoch > data_epoch => {}
            _ => *slot = Some((data_epoch, Arc::clone(results))),
        }
    }
}

#[derive(Debug)]
struct Slot {
    entry: Arc<CacheEntry>,
    /// The store version the entry's rewrite is valid under. Re-stamped in
    /// place (under the shard write lock) when a constraint insert proves
    /// the entry untouched.
    version: StoreVersion,
    /// The CLOCK reference bit (module docs, *Eviction*): 1 once a hit
    /// found the slot since the hand last passed it. Relaxed: a hit the
    /// hand misses costs the slot its second chance, nothing else.
    referenced: Counter,
}

impl Slot {
    /// Sets the reference bit, writing only when it is clear.
    fn reference(&self) {
        if self.referenced.get() == 0 {
            self.referenced.set(1);
        }
    }
}

/// The identity hasher over a fingerprint's one `u64` (module docs).
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Never called: the only key is `QueryFingerprint(u64)`, whose
        // derived `Hash` calls `write_u64` alone. Folding keeps it a hash.
        self.0 = bytes.iter().fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// One shard: its slots, and their keys in the hand's sweep order.
#[derive(Debug, Default)]
struct Shard {
    slots: HashMap<QueryFingerprint, Slot, BuildHasherDefault<Prehashed>>,
    /// Exactly the keys of `slots`; the front is under the hand.
    ring: VecDeque<QueryFingerprint>,
}

impl Shard {
    /// Moves the hand to the first slot without a reference bit, clearing
    /// every bit it passes, and removes that slot.
    fn evict(&mut self) -> Option<Slot> {
        while let Some(key) = self.ring.pop_front() {
            let Some(slot) = self.slots.remove(&key) else { continue };
            if slot.referenced.get() == 0 {
                return Some(slot);
            }
            slot.referenced.set(0);
            self.slots.insert(key, slot);
            self.ring.push_back(key);
        }
        None
    }

    /// Keeps the slots `keep` accepts, and their keys in ring order.
    fn retain(&mut self, mut keep: impl FnMut(&mut Slot) -> bool) {
        self.slots.retain(|_, slot| keep(slot));
        let slots = &self.slots;
        self.ring.retain(|key| slots.contains_key(key));
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Point-in-time cache counters (monotone except `entries`/`shard_sizes`).
///
/// Snapshots are **self-consistent**: `hits + misses == lookups` holds in
/// every snapshot, even one taken mid-flight while other threads are
/// looking up. The cache counts lookups and hits as one
/// [`CountPair`] (a lookup bumped *before* the outcome is decided, its
/// hit after) and derives `misses = lookups - hits`; the pair's read never
/// shows `hits > lookups`. With three independent counters a snapshot
/// could tear — a hit bumped but not yet its lookup — and `hits + misses`
/// would disagree with `lookups`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Completed lookups (`hits + misses`, exactly, in every snapshot).
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    /// Capacity (CLOCK) and staleness (purge) removals.
    pub evictions: u64,
    /// Entries removed because a constraint insert touched their classes.
    pub invalidations: u64,
    /// Entries kept across a constraint insert (class sets disjoint) and
    /// re-stamped to the successor store's version.
    pub revalidations: u64,
    pub entries: usize,
    pub shard_sizes: Vec<usize>,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; `0` before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

/// N-way sharded CLOCK cache of [`CacheEntry`]s.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<RwLock<CACHE_SHARD, Shard>>,
    /// In-flight misses (singleflight): registered when a lookup misses,
    /// retired when the leader publishes the entry it derived. Behind an
    /// `Arc` so leader guards and follower waiters can outlive the borrow.
    flights: Arc<FlightTable>,
    per_shard_capacity: usize,
    /// `(lookups, hits)`: a lookup is counted before its hit, so `hits <=
    /// lookups` in every read (see [`CacheStats`]).
    lookups: CountPair,
    insertions: Counter,
    evictions: Counter,
    invalidations: Counter,
    revalidations: Counter,
}

impl ShardedCache {
    /// A cache with `shards` shards (rounded up to a power of two, min 1)
    /// and `capacity` total entries split evenly across them.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::default()).collect(),
            flights: Arc::new(FlightTable::default()),
            per_shard_capacity,
            lookups: CountPair::default(),
            insertions: Counter::default(),
            evictions: Counter::default(),
            invalidations: Counter::default(),
            revalidations: Counter::default(),
        }
    }

    /// The singleflight in-flight miss registry attached to this cache.
    pub(crate) fn flights(&self) -> &Arc<FlightTable> {
        &self.flights
    }

    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard_of(&self, fingerprint: QueryFingerprint) -> &RwLock<CACHE_SHARD, Shard> {
        // Fibonacci hashing over the fingerprint bits.
        let h = fingerprint.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Looks up `fingerprint` (the key of `query`, in any spelling),
    /// verifying both that the stored canonical query is `query`'s (set
    /// equality per part, [`Query::same_canonical`], to rule out 64-bit
    /// fingerprint collisions) and that the entry is valid under
    /// `version`. Counts a hit or a miss.
    pub fn get(
        &self,
        fingerprint: QueryFingerprint,
        query: &Query,
        version: StoreVersion,
    ) -> Option<Arc<CacheEntry>> {
        // The lookup first: `hits <= lookups` in every stats() snapshot.
        self.lookups.add_outer();
        self.find(fingerprint, query, version, |slot| {
            slot.reference();
            self.lookups.add_inner();
        })
    }

    /// [`ShardedCache::get`]'s answer, as a look that is not a request: it
    /// counts neither a lookup nor a hit and sets no reference bit. A singleflight
    /// leader's re-check before it derives ([`crate::QueryService::complete_miss`]).
    pub fn peek(
        &self,
        fingerprint: QueryFingerprint,
        query: &Query,
        version: StoreVersion,
    ) -> Option<Arc<CacheEntry>> {
        self.find(fingerprint, query, version, |_| ())
    }

    /// The entry of `fingerprint` that is `query`'s and valid under
    /// `version`, after `found` ran on its slot under the shard's lock.
    fn find(
        &self,
        fingerprint: QueryFingerprint,
        query: &Query,
        version: StoreVersion,
        found: impl FnOnce(&Slot),
    ) -> Option<Arc<CacheEntry>> {
        let mut held = Unlocked::new();
        let shard = self.shard_of(fingerprint).read(&mut held);
        let slot = shard.slots.get(&fingerprint).filter(|slot| {
            slot.version == version && query.same_canonical(&slot.entry.canonical)
        })?;
        found(slot);
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts (or replaces) an entry derived under `version`, evicting the
    /// entry under the target shard's CLOCK hand if it is full (module
    /// docs, *Eviction*).
    ///
    /// The evicted and the replaced slot are dropped after the shard's lock
    /// is released. Dropping the last `Arc` of an entry frees its memoized
    /// answer — a few buffers and one reference per distinct string — which
    /// no reader of the shard should wait for: the whole insert, that free
    /// included, traces at about 4 µs at 20,000 objects per class on a
    /// 2-core host (`cold_scaled`'s `service.cache_insert_ns_per_op`), as at
    /// the paper's size.
    pub fn insert(
        &self,
        fingerprint: QueryFingerprint,
        version: StoreVersion,
        entry: Arc<CacheEntry>,
    ) {
        let mut held = Unlocked::new();
        let mut shard = self.shard_of(fingerprint).write(&mut held);
        let mut evicted = None;
        if shard.slots.contains_key(&fingerprint) {
            // A replacement is a fresh insert: its key goes to the back.
            shard.ring.retain(|key| *key != fingerprint);
        } else if shard.len() >= self.per_shard_capacity {
            evicted = shard.evict();
            self.evictions.add(u64::from(evicted.is_some()));
        }
        let slot = Slot { entry, version, referenced: Counter::new(0) };
        self.insertions.add(1);
        shard.ring.push_back(fingerprint);
        let replaced = shard.slots.insert(fingerprint, slot);
        debug_assert_eq!(shard.ring.len(), shard.len(), "the ring holds every key once");
        drop(shard);
        drop((evicted, replaced));
    }

    /// Class-overlap invalidation for a constraint insert that moved the
    /// store from `prev` to `next`: entries valid at `prev` whose canonical
    /// query mentions any of `touched` are removed; entries valid at `prev`
    /// with a disjoint class set are revalidated (re-stamped to `next`);
    /// entries already at `next` are kept untouched (a reader that raced
    /// the store swap cached them under the successor — they are valid);
    /// entries at any *other* version are stale strays and are removed.
    /// `held` is the caller's lock token (the service's store writer).
    pub fn invalidate_classes<const H: u8>(
        &self,
        held: &mut Held<H>,
        prev: StoreVersion,
        next: StoreVersion,
        touched: &[ClassId],
    ) {
        for shard in &self.shards {
            shard.write(held).retain(|slot| {
                if slot.version == next {
                    return true;
                }
                if slot.version != prev {
                    self.evictions.add(1);
                    return false;
                }
                let overlaps = slot.entry.canonical.classes.iter().any(|c| touched.contains(c));
                if overlaps {
                    self.invalidations.add(1);
                    false
                } else {
                    slot.version = next;
                    self.revalidations.add(1);
                    true
                }
            });
        }
    }

    /// Drops every entry not derived under `current` — both entries from
    /// older epochs of the same store and entries from *any* epoch of a
    /// different (e.g. swapped-out) store generation, which a bare
    /// epoch-floor retention would wrongly keep. `held` is the caller's
    /// lock token.
    pub fn purge_stale<const H: u8>(&self, held: &mut Held<H>, current: StoreVersion) {
        for shard in &self.shards {
            let mut shard = shard.write(held);
            let before = shard.len();
            shard.retain(|slot| slot.version == current);
            self.evictions.add((before - shard.len()) as u64);
        }
    }

    /// A point-in-time dump of every live entry with the version it is
    /// valid under, ordered by fingerprint for determinism — the snapshot
    /// save path (the QUERIES section).
    pub fn entries(&self) -> Vec<(QueryFingerprint, StoreVersion, Arc<CacheEntry>)> {
        let mut out: Vec<(QueryFingerprint, StoreVersion, Arc<CacheEntry>)> = Vec::new();
        let mut held = Unlocked::new();
        for shard in &self.shards {
            let shard = shard.read(&mut held);
            out.extend(
                shard.slots.iter().map(|(fp, slot)| (*fp, slot.version, Arc::clone(&slot.entry))),
            );
        }
        out.sort_by_key(|(fp, _, _)| fp.0);
        out
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read(&mut Unlocked::new()).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        // One read-lock pass: `entries` is derived from the same snapshot
        // as `shard_sizes`, so the two never disagree.
        let shard_sizes: Vec<usize> =
            self.shards.iter().map(|s| s.read(&mut Unlocked::new()).len()).collect();
        // `hits <= lookups` in this read, so the derived `misses` can never
        // underflow (tests::stats_hits_never_exceed_lookups).
        let (lookups, hits) = self.lookups.read();
        CacheStats {
            lookups,
            hits,
            misses: lookups - hits,
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            revalidations: self.revalidations.get(),
            entries: shard_sizes.iter().sum(),
            shard_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::Value;
    use sqo_exec::{execute, plan_query_shared, CostModel};
    use sqo_query::QueryBuilder;
    use sqo_storage::{DataWrite, Database, IntegrityOptions, ObjectId, VersionedDatabase};
    use std::sync::atomic::Ordering;

    fn entry(q: &Query) -> Arc<CacheEntry> {
        Arc::new(CacheEntry::new(q.clone(), q.clone(), None, true, vec![]))
    }

    fn fp(v: u64) -> QueryFingerprint {
        QueryFingerprint(v)
    }

    /// Stands in for the version of store `generation` at `epoch`. No
    /// version can be built from parts, so each distinct pair is the
    /// version of its own real store: equal pairs give equal versions,
    /// distinct pairs distinct ones, on every thread.
    fn v(generation: u64, epoch: u64) -> StoreVersion {
        use sqo_constraints::{ConstraintStore, StoreOptions};
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static VERSIONS: OnceLock<Mutex<HashMap<(u64, u64), StoreVersion>>> = OnceLock::new();
        let mut versions = VERSIONS.get_or_init(Mutex::default).lock().unwrap();
        *versions.entry((generation, epoch)).or_insert_with(|| {
            let catalog = Arc::new(sqo_catalog::example::figure21().unwrap());
            ConstraintStore::build(catalog, vec![], StoreOptions::paper_defaults())
                .unwrap()
                .version()
        })
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedCache::new(4, 64);
        let q = Query::new();
        cache.insert(fp(1), v(0, 0), entry(&q));
        assert!(cache.get(fp(1), &q, v(0, 0)).is_some());
        assert!(cache.get(fp(2), &q, v(0, 0)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn version_mismatch_misses() {
        let cache = ShardedCache::new(2, 8);
        let q = Query::new();
        cache.insert(fp(1), v(0, 0), entry(&q));
        assert!(cache.get(fp(1), &q, v(0, 1)).is_none(), "new epoch must miss");
        assert!(cache.get(fp(1), &q, v(1, 0)).is_none(), "other generation must miss");
        cache.insert(fp(1), v(0, 1), entry(&q));
        assert_eq!(cache.len(), 1, "one slot per fingerprint");
        cache.purge_stale(&mut Unlocked::new(), v(0, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(fp(1), &q, v(0, 1)).is_some());
    }

    #[test]
    fn purge_drops_future_epochs_of_other_generations() {
        // The old `epoch >= floor` retention kept these: an entry stamped by
        // a swapped-out store whose epoch ran ahead of the current store's.
        let cache = ShardedCache::new(1, 8);
        let q = Query::new();
        cache.insert(fp(1), v(7, 40), entry(&q));
        cache.purge_stale(&mut Unlocked::new(), v(8, 3));
        assert_eq!(cache.len(), 0, "a stray from another store must not survive the swap");
    }

    #[test]
    fn fingerprint_collision_is_detected() {
        let cache = ShardedCache::new(1, 8);
        let q = Query::new();
        let mut other = Query::new();
        other.classes.push(ClassId(0));
        cache.insert(fp(7), v(0, 0), entry(&q));
        // Same fingerprint, different canonical query: must miss.
        assert!(cache.get(fp(7), &other, v(0, 0)).is_none());
    }

    /// The cold workloads' invariant: a stream that cycles more distinct
    /// queries than a shard holds, each looked up and inserted on its miss,
    /// never hits — the hand evicts in insertion order, so every key is
    /// gone by the time the cycle comes back to it. Evicting in any other
    /// order (hash order, say) would keep some keys and hit.
    #[test]
    fn a_cycle_longer_than_a_shard_never_hits() {
        let cache = ShardedCache::new(1, 64);
        let q = Query::new();
        for _ in 0..4 {
            for key in 0..65 {
                assert!(cache.get(fp(key), &q, v(0, 0)).is_none(), "key {key} hit");
                cache.insert(fp(key), v(0, 0), entry(&q));
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 4 * 65, 64));
        assert_eq!(s.evictions, 4 * 65 - 64);
    }

    /// An entry that was hit survives one sweep of the hand: the hand
    /// clears its bit and passes it, evicting the next entry without one.
    #[test]
    fn a_hit_entry_survives_one_sweep() {
        let cache = ShardedCache::new(1, 4);
        let q = Query::new();
        for key in 1..=4 {
            cache.insert(fp(key), v(0, 0), entry(&q));
        }
        assert!(cache.get(fp(1), &q, v(0, 0)).is_some()); // 1 is under the hand
        cache.insert(fp(5), v(0, 0), entry(&q));
        assert!(cache.peek(fp(1), &q, v(0, 0)).is_some(), "the hit entry was passed");
        assert!(cache.peek(fp(2), &q, v(0, 0)).is_none(), "the next entry was evicted");
        // Its bit is spent: once the hand comes round again, it goes.
        for key in 6..=8 {
            cache.insert(fp(key), v(0, 0), entry(&q));
        }
        assert!(cache.peek(fp(1), &q, v(0, 0)).is_none(), "a second sweep evicts it");
        assert_eq!(cache.stats().evictions, 4);
    }

    #[test]
    fn class_overlap_invalidation_revalidates_disjoint_entries() {
        let cache = ShardedCache::new(2, 16);
        let mut on_c0 = Query::new();
        on_c0.classes.push(ClassId(0));
        let mut on_c1 = Query::new();
        on_c1.classes.push(ClassId(1));
        let prev = v(3, 5);
        let next = v(4, 6);
        cache.insert(fp(1), prev, entry(&on_c0));
        cache.insert(fp(2), prev, entry(&on_c1));
        cache.insert(fp(3), v(9, 9), entry(&on_c1)); // stray from another store
                                                     // A reader racing the swap already cached an entry under `next`
                                                     // (even one overlapping the touched classes — it was derived under
                                                     // the successor store, so it is valid as-is).
        cache.insert(fp(4), next, entry(&on_c0));
        cache.invalidate_classes(&mut Unlocked::new(), prev, next, &[ClassId(0)]);
        assert!(cache.get(fp(1), &on_c0, next).is_none(), "overlapping entry removed");
        assert!(cache.get(fp(2), &on_c1, next).is_some(), "disjoint entry revalidated");
        assert!(cache.get(fp(3), &on_c1, next).is_none(), "stray removed");
        assert!(cache.get(fp(4), &on_c0, next).is_some(), "next-version entry kept");
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.revalidations, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn result_memo_is_gated_on_the_data_epoch() {
        let q = Query::new();
        let e = entry(&q);
        assert!(e.memoized_results(0).is_none());
        let r0 = Arc::new(ResultSet::new(vec![]));
        e.publish_results(0, &r0);
        assert!(Arc::ptr_eq(&e.memoized_results(0).unwrap(), &r0));
        assert!(e.memoized_results(1).is_none(), "a data write must force recomputation");
        // Newer publications win; older racers never clobber them.
        let r2 = Arc::new(ResultSet::new(vec![]));
        e.publish_results(2, &r2);
        e.publish_results(1, &r0);
        assert!(e.memoized_results(2).is_some());
        assert!(e.memoized_results(1).is_none());
        // All of the above is epoch equality: a hand-built set names no
        // lineage, so nothing is known about what was written since.
        assert!(e.memoized_results(3).is_none());

        // An executed set names the lineage it was read from, and its
        // entry's plan the classes that matter.
        let catalog = Arc::new(sqo_catalog::example::figure21().unwrap());
        let supplier = catalog.class_id("supplier").unwrap();
        // Neither class is on a total end: a lone object of each satisfies
        // the catalog.
        let department = catalog.class_id("department").unwrap();
        let mut b = Database::builder(Arc::clone(&catalog));
        b.insert(supplier, vec![Value::str("SFI"), Value::str("1 Food St")]).unwrap();
        b.insert(department, vec![Value::str("sales"), Value::str("open")]).unwrap();
        let db = VersionedDatabase::new(Arc::new(b.finalize(IntegrityOptions).unwrap()));
        let q = QueryBuilder::new(&catalog).select("supplier.name").build().unwrap();
        let plan = plan_query_shared(&db.snapshot(), &q, &CostModel::default()).unwrap();
        let e = CacheEntry::new(q.clone(), q, Some(Arc::clone(&plan)), false, vec![]);
        let r0 = Arc::new(execute(&db.snapshot(), &plan).unwrap().0);
        e.publish_results(0, &r0);

        let rename = |class, value: &str| DataWrite::Update {
            class,
            object: ObjectId(0),
            attr: sqo_catalog::AttrId(1),
            value: Value::str(value),
        };
        db.write(&[rename(department, "closed")]).unwrap();
        assert!(
            Arc::ptr_eq(&e.memoized_results(1).unwrap(), &r0),
            "the plan binds supplier only: a department write leaves its memo valid"
        );
        db.write(&[rename(supplier, "2 Mart Ave")]).unwrap();
        assert!(e.memoized_results(2).is_none(), "a supplier write expires it");
        assert!(e.memoized_results(1).is_none(), "also for a reader that has not seen it yet");
        assert!(e.memoized_results(0).is_some(), "at its own epoch a memo is always the answer");
        // A plan-less (provably empty) entry proves nothing about its set.
        let empty = CacheEntry::new(Query::new(), Query::new(), None, true, vec![]);
        empty.publish_results(0, &r0);
        assert!(empty.memoized_results(1).is_none());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCache::new(3, 16).shards.len(), 4);
        assert_eq!(ShardedCache::new(0, 16).shards.len(), 1);
        assert!(ShardedCache::new(8, 1).capacity() >= 8);
    }

    /// Regression test for the `hits <= lookups` snapshot invariant: the
    /// Release on `hits` in get() and the Acquire (read-first) in stats()
    /// are what guarantee it — the sites used to be Relaxed, which held
    /// only on x86's strong memory model. Mid-flight snapshots must never
    /// tear (`hits > lookups` would underflow `misses`).
    #[test]
    fn stats_hits_never_exceed_lookups() {
        let cache = Arc::new(ShardedCache::new(4, 64));
        let q = Query::new();
        cache.insert(fp(7), v(0, 0), entry(&q));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let lookers: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let q = q.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = cache.get(fp(7), &q, v(0, 0));
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let s = cache.stats();
            assert!(s.hits <= s.lookups, "torn snapshot: {} > {}", s.hits, s.lookups);
            assert_eq!(s.hits + s.misses, s.lookups);
        }
        stop.store(true, Ordering::Relaxed);
        for t in lookers {
            t.join().expect("looker thread never panics");
        }
    }
}
