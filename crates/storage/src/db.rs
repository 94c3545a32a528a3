//! The in-memory object database: extents, indexes, links, statistics.
//!
//! A [`Database`] snapshot is immutable once built. [`DatabaseBuilder`]
//! validates tuples against the catalog, wires relationship links, and at
//! [`DatabaseBuilder::finalize`] builds the declared indexes, computes the
//! statistics snapshot and enforces the integrity declarations (total
//! participation, to-one multiplicity) that class elimination relies on.
//!
//! The load computes statistics after the indexes, and reads an indexed
//! attribute's off its postings — one count per posting length — as a
//! class's first write does (`counts.rs`); it builds no throw-away map for
//! an indexed attribute. Only the unindexed attributes are counted, in one
//! pass over each of their columns, and those maps, like the indexes'
//! grouping map, hash with keyed folded multiplies
//! (`sqo_catalog::ValueHashState`) rather than SipHash. Both passes make the
//! strings they hash canonical: a column's string becomes a clone of the key
//! the pass's map holds, so a loaded class keeps one allocation per distinct
//! string of an attribute, shared with its index keys, as a snapshot load
//! does. A write keeps it so: a written string takes the key its index or
//! counts already hold.
//!
//! **Canonical strings are a correctness invariant, not a saving.** Within
//! one snapshot, every string of an attribute equal to another is the same
//! allocation. The executor relies on it (`sqo_exec`'s executor, *Strings by
//! identity*): once a string `=` or `≠` has found an element equal to its
//! literal, it compares the rest by address alone, so a second allocation of
//! an equal string would answer wrongly. Every path that builds a snapshot
//! keeps it: [`DatabaseBuilder::finalize`], [`Database::with_writes`],
//! [`Database::with_writes_full`] (it builds as a load does) and the `.sqos`
//! load, whose dictionary holds each string once and refuses a repeat
//! (`persist.rs`). `tests/prop_canonical_strings.rs` checks all four.
//!
//! # Incremental copy-on-write snapshots
//!
//! Snapshot state is sharded per class and per relationship: one extent
//! and one index per indexed attribute for a class, one link table per
//! relationship. An extent is one column per attribute (`extent.rs`), and
//! each column is a `PagedVec` (`paged.rs`): an `Arc`'d table of `Arc`'d
//! pages of 128 elements, cloned by one reference-count increment. Each
//! adjacency side of a link table is paged CSR (`links.rs`): the same kind
//! of table over pages that each hold 128 objects' lists in one
//! allocation. Indexes of either kind and the
//! value counts the statistics are kept from are `ValueMap`s
//! (`valuemap.rs`): sorted entries in `Arc`'d pages behind the same kind of
//! table. [`Database::with_writes`] builds a successor snapshot by cloning
//! those pointers and **patching only what the batch touches**
//! (clone-and-patch on first write, `Arc::make_mut` style); everything else
//! is shared with the source by pointer.
//!
//! ## What a write costs
//!
//! Per written object, whatever the size of its class:
//!
//! * **extents and links** — the pages holding each written value and
//!   list: for an insert the last page of every column of the class and of
//!   the class's side of every incident relationship, plus the pages of the
//!   lists its link targets sit in; for a delete, in every column and on
//!   every incident side, the deleted object's and the moved last object's
//!   pages, and those of their neighbours' lists; for an update one page of
//!   one column. A touched column's or side's page table (one pointer per
//!   page) is copied once per batch, and so is a touched extent's column
//!   table (one header per attribute). A column page copy clones the 128
//!   elements it holds in the column's declared type — 1 KiB of `i64`s or
//!   `f64`s, 128 `bool`s, or 2 KiB of string pointers whose clones are
//!   reference-count increments — and allocates nothing else; an edited
//!   link page is rebuilt as one allocation of its list ends and targets.
//!   Growing a side by an unlinked object copies no page unless its last
//!   page is full;
//! * **indexes** — per written value of an indexed attribute, the one page
//!   of the index that holds the value and the index's page table; a full
//!   page splits in two, an emptied one is dropped. A page copy clones at
//!   most 64 keys and one pointer per posting: a posting of two or more ids
//!   is one shared, immutable allocation, so the written posting alone is
//!   rebuilt, as one allocation of its new length, and every other posting
//!   on the page stays the source's. An update of an unindexed attribute
//!   leaves every index shared;
//! * **statistics** — O(1) per written value. The previous
//!   [`StatsSnapshot`] is carried over, and each touched class's
//!   `ClassStats` is patched from value counts (`counts.rs`): an indexed
//!   attribute's are its index's posting lengths, an unindexed attribute's
//!   a `ValueMap` of their own that successive snapshots share, copying the
//!   page a written value lives in. `distinct`, `min` and `max` are read
//!   off the map — its length and its ends. Two cases cost more. The
//!   **first write ever to touch a class** scans its extent once to build
//!   the counts of its unindexed attributes (loading a database builds
//!   none, so cold boot and snapshot load pay nothing for them). A batch
//!   that **decrements one of an attribute's most common values** ends with
//!   one pass over that attribute's distinct values;
//! * **integrity**, when the caller asks for it, re-checks the touched
//!   relationships with one pass over their adjacency lengths.
//!
//! Measured by `benches/e2e` (`mixed_rw`, 20,000 objects per class, traced
//! run): paging extents, links and counts (PR 14, seed 3, a quiet box) took
//! `storage.with_writes_us_per_write` 35,054 → 1,218 µs and
//! `storage.alloc_bytes_per_write` 18.1 → 2.1 MB, the service's freeing of
//! replaced shards 1,546 → 340 µs per write, and `storage.load_ms` 191 →
//! 76 ms (the from-scratch statistics pick the most common values in one
//! pass instead of sorting every distinct value). What remained was the
//! touched class's index bank, copied whole; paging the indexes (PR 19,
//! seed 42, medians of three pairs of runs) took the same two metrics
//! 1,137 → 281 µs and 2,009,010 → 156,556 B.
//! `tests/write_alloc.rs` holds the allocation side to a fixed budget.
//! Storing extents as columns (`tests/write_alloc.rs`'s database, 20,000
//! objects per class) took a one-attribute update from 36,289 to 14,969 B
//! — one column page instead of a page of rows and the rows it held — and
//! a one-object insert from 74,209 to 95,009 B, the last page and page
//! table of seven columns instead of one. Paged CSR link sides took it to
//! 92,125 B: a link page copy cloned the 128 lists it held, where a CSR
//! page is rebuilt as one allocation. Columns of the declared types took
//! the insert to 80,917 B and the update to 12,977 B: an `Int` page is
//! 1 KiB and a `Str` page 2 KiB, where a page of `Value`s was 3 KiB.
//! Sharing postings between snapshots took the insert from 80,653 B to
//! 60,713 B: an index page copy had cloned every posting on the page.
//! On `mixed_rw` (seed 42, traced) it took `storage.alloc_bytes_per_write`
//! from 153,875 to 67,005 B, and over ten alternating 20 s pairs (seed
//! 5151) the timed write p50 from a median of 109 to 90 µs; a loop of
//! that workload's writes alone read 129–185 → 116–159 µs a write by the
//! clock (the minimum of each process, five alternations).
//!
//! The price of paging is on the read side: [`Database::value`] is four
//! dependent loads (the extent, its column table, the column's page table,
//! the page) and
//! [`Database::traverse`] walks the catalog and the link table too, and an
//! index probe is two binary searches where a hash index's was one hash.
//! A hot reader resolves a [`Column`] or [`Adjacency`] handle once and
//! reads through it with two loads, as the executor does for every pass
//! over a level; [`crate::Typed::pages`] walks a whole attribute page by
//! page, raw element by raw element (the executor's sequential scan).
//!
//! ## Aliasing guarantees
//!
//! Sharing is safe because shards are never mutated after publication:
//! `Arc::make_mut` observes the source snapshot's reference and clones, so a
//! reader holding the source (or any other successor) can never see a
//! patched shard. Two snapshots that share a shard are — by construction —
//! bit-identical on every read API over that shard. Adjacency and index
//! posting order follow a **canonical order** that is a function of the
//! logical state alone (see [`crate::RelLinks`]'s module docs), which makes
//! the incremental successor indistinguishable from a from-scratch rebuild:
//! [`Database::with_writes_full`] keeps the old rebuild-everything algorithm
//! as the independent equivalence oracle (exercised by
//! `tests/prop_incremental.rs`), and [`Database::rebuild_statistics`] is the
//! from-scratch statistics scan the patched statistics are checked against.
//!
//! The integrity check is scoped the same way. Every database satisfies its
//! catalog's total-participation and to-one declarations: a build, a load
//! and [`Database::with_writes_full`] check every list of every
//! relationship. [`Database::with_writes`] checks, per relationship the
//! batch touched, only the lists it can have changed — those on adjacency
//! pages the batch copied and the slots past the base side's length — and
//! every other list holds by induction from the base snapshot. In-place
//! attribute updates ([`DataWrite::Update`]) touch no link structure and
//! therefore re-check nothing.
//!
//! The [`crate::VersionedDatabase`] handle wraps [`Database::with_writes`]
//! into a concurrent write path with a monotone data epoch; readers keep
//! their `Arc` snapshot and are never torn by a write.

use sqo_catalog::{
    AttrId, AttrRef, Catalog, ClassDef, ClassId, ClassStats, DataType, RelId, RelStats,
    StatsSnapshot, Value,
};
use sqo_constraints::HornConstraint;
use sqo_query::Predicate;
use std::sync::Arc;

use crate::counts::{class_statistics, load_class_statistics, ClassCounts, ClassPatch};
use crate::error::StorageError;
use crate::extent::{Column, ColumnVec, Columns, Extent};
use crate::index::AttrIndex;
use crate::links::{Adjacency, RelLinks};
use crate::object::ObjectId;
use crate::versioned::WriteEpochs;

/// The argument of [`DatabaseBuilder::finalize`]. It has no field: every
/// database satisfies its catalog's total-participation and to-one
/// declarations, checked on every build, load and write batch. It stays
/// because callers outside the workspace pass `IntegrityOptions::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntegrityOptions;

/// One witness of a violated semantic constraint (see
/// [`Database::check_constraint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Binding of constraint classes to objects that falsifies the clause.
    pub binding: Vec<(ClassId, ObjectId)>,
}

/// One logical mutation of a database snapshot (see
/// [`Database::with_writes`]). Batches apply atomically: either every write
/// validates and a new snapshot is produced, or the snapshot is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum DataWrite {
    /// Insert a new instance of `class`, optionally linked to existing
    /// objects. Each `(rel, other)` pair attaches the new object on the side
    /// of `rel` whose class is `class` (the left side for
    /// self-relationships) and `other` on the opposite side.
    Insert { class: ClassId, tuple: Vec<Value>, links: Vec<(RelId, ObjectId)> },
    /// Delete an instance and every link edge incident to it.
    ///
    /// Deletion has `swap_remove` semantics: the class's **last** object is
    /// renumbered to take the deleted [`ObjectId`] (its tuple, index entries
    /// and link edges follow it). Deleting the last object renumbers
    /// nothing. Every renumbering is reported in the batch's
    /// [`WriteReceipt::moves`], so callers tracking live ids need no
    /// convention about *which* objects they delete.
    Delete { class: ClassId, object: ObjectId },
    /// Overwrite one attribute of an existing instance in place. The object
    /// keeps its id and its links; only the touched class's extent, the
    /// attribute's index (when declared) and the class's statistics are
    /// patched. No integrity re-checking happens for updates — the link
    /// structure the total-participation/multiplicity declarations speak
    /// about is untouched.
    Update { class: ClassId, object: ObjectId, attr: AttrId, value: Value },
    /// Add one link edge between existing objects.
    Link { rel: RelId, left: ObjectId, right: ObjectId },
    /// Remove one link edge (errors with [`StorageError::LinkNotFound`] if
    /// the edge does not exist).
    Unlink { rel: RelId, left: ObjectId, right: ObjectId },
}

/// What one committed write batch did to object identity — returned by
/// [`Database::with_writes`] so callers no longer track swap-remove
/// renumbering by convention.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The [`ObjectId`] of each [`DataWrite::Insert`] of the batch, in batch
    /// order, **as of the end of the batch** — a later `Delete` in the same
    /// batch that renumbers an earlier insert is accounted for. (Deleting an
    /// object inserted earlier in the same batch leaves its now-dead id in
    /// the vector; positions must line up with the inserts.)
    pub inserted: Vec<ObjectId>,
    /// Every swap-remove renumbering, in batch order: deleting `object`
    /// moved the class's then-last object from `moved_from` to `moved_to`
    /// (`== object`). Apply the moves in order to re-map externally tracked
    /// ids.
    pub moves: Vec<(ClassId, ObjectId, ObjectId)>,
    /// The tuple of each [`DataWrite::Delete`] of the batch, in batch
    /// order, as the object held it when it was deleted: what
    /// [`crate::VersionedDatabase::write`] logs for the memo check
    /// ([`crate::WriteEpochs::reached`]).
    pub deleted: Vec<Vec<Value>>,
    /// The classes whose extent, index or statistics shards this batch
    /// patched, ascending. Everything else is `Arc`-shared with the source
    /// snapshot. These are the classes whose [`WriteEpochs`] slot
    /// [`crate::VersionedDatabase::write`] raises — with the endpoint
    /// classes of a bare [`DataWrite::Link`] / [`DataWrite::Unlink`], which
    /// changes a link table and no extent and so is *not* listed here — and
    /// with that the only cached results the batch expires are those whose
    /// plan binds one of them.
    pub touched_classes: Vec<ClassId>,
}

/// An immutable, loaded database snapshot.
///
/// State is `Arc`-sharded per class and per relationship; see the module
/// docs for the sharing and patching model.
#[derive(Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    extents: Vec<Extent>,
    /// Per class, one slot per attribute: its index where the catalog
    /// declares one.
    indexes: Vec<Vec<Option<AttrIndex>>>,
    links: Vec<RelLinks>,
    stats: StatsSnapshot,
    /// Per class, the value counts of its unindexed attributes, which
    /// `stats` is maintained from — `None` until the first write touches the
    /// class (see `counts.rs`).
    counts: Vec<Option<Arc<ClassCounts>>>,
    /// Which data epoch this snapshot materializes: `0` for a
    /// builder-finalized load, `source + 1` for every
    /// [`Database::with_writes`] successor. Downstream memos (cached result
    /// sets) key on it to stay data-epoch-aware.
    data_version: u64,
    /// Per class, the last data epoch of this snapshot's lineage that
    /// changed it. One vector per lineage: successors receive it by
    /// pointer, and only [`crate::VersionedDatabase::write`] raises it.
    write_epochs: WriteEpochs,
}

impl Database {
    pub fn builder(catalog: Arc<Catalog>) -> DatabaseBuilder {
        DatabaseBuilder::new(catalog)
    }

    /// The data epoch this snapshot belongs to (see [`Database::with_writes`]
    /// and [`crate::VersionedDatabase`]).
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The per-class write epochs of the lineage this snapshot belongs to
    /// (live: they keep rising as the lineage's [`crate::VersionedDatabase`]
    /// commits batches, also after this snapshot was taken).
    pub fn write_epochs(&self) -> &WriteEpochs {
        &self.write_epochs
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn cardinality(&self, class: ClassId) -> usize {
        self.extents.get(class.index()).map(|e| e.len()).unwrap_or(0)
    }

    /// Object `oid`'s values in attribute order, gathered from its class's
    /// columns. For cold callers; a hot reader takes [`Database::value`] or
    /// [`Database::column`].
    pub fn tuple(&self, class: ClassId, oid: ObjectId) -> Result<Vec<Value>, StorageError> {
        self.extents
            .get(class.index())
            .and_then(|e| e.row(oid.index()))
            .ok_or(StorageError::UnknownObject { class, object: oid })
    }

    /// A read handle on attribute `attr`'s column in its declared type,
    /// resolved once: each read through it ([`crate::Typed::get`]) costs two
    /// dependent loads where [`Database::value`] costs four, and
    /// [`crate::Typed::pages`] walks the column page by page. The executor
    /// resolves one per pass over a level — per residual, join-filter side
    /// and projection — and reads the raw elements.
    pub fn column(&self, attr: AttrRef) -> Result<Column<'_>, StorageError> {
        Ok(self.column_of(attr)?.handle())
    }

    /// Attribute `attr` of object `oid`, read off the attribute's column —
    /// the extent, its column table, the column's page table and the page,
    /// four dependent loads — and made a [`Value`]. A hot reader of many
    /// objects resolves a [`Database::column`] handle instead.
    pub fn value(&self, attr: AttrRef, oid: ObjectId) -> Result<Value, StorageError> {
        self.column_of(attr)?
            .get(oid.index())
            .ok_or(StorageError::UnknownObject { class: attr.class, object: oid })
    }

    fn column_of(&self, attr: AttrRef) -> Result<&ColumnVec, StorageError> {
        let column = self.extents.get(attr.class.index()).and_then(|e| e.column(attr.attr.index()));
        column.ok_or(StorageError::UnknownAttribute { class: attr.class, attr: attr.attr })
    }

    pub fn index(&self, attr: AttrRef) -> Option<&AttrIndex> {
        self.indexes
            .get(attr.class.index())
            .and_then(|v| v.get(attr.attr.index()))
            .and_then(|ix| ix.as_ref())
    }

    pub fn links(&self, rel: RelId) -> &RelLinks {
        &self.links[rel.index()]
    }

    /// Pointer-chase from `class`'s side of `rel`. For self-relationships the
    /// left side is used.
    pub fn traverse(
        &self,
        rel: RelId,
        from_class: ClassId,
        oid: ObjectId,
    ) -> Result<&[ObjectId], StorageError> {
        Ok(self.adjacency(rel, from_class)?.get(oid))
    }

    /// A read handle on `from_class`'s side of `rel` (the left side for a
    /// self-relationship), resolved once: each list read through it
    /// ([`Adjacency::get`]) is [`Database::traverse`]'s without the
    /// catalog lookup and the table walk.
    pub fn adjacency(
        &self,
        rel: RelId,
        from_class: ClassId,
    ) -> Result<Adjacency<'_>, StorageError> {
        let def = self.catalog.relationship(rel)?;
        let links = self.links.get(rel.index()).ok_or(StorageError::LinkClassMismatch { rel })?;
        if def.left.class == from_class {
            Ok(links.left_lists())
        } else if def.right.class == from_class {
            Ok(links.right_lists())
        } else {
            Err(StorageError::LinkClassMismatch { rel })
        }
    }

    pub fn stats(&self) -> &StatsSnapshot {
        &self.stats
    }

    /// Recomputes the full statistics snapshot from scratch — the fallback
    /// (and equivalence oracle) for the per-class folding
    /// [`Database::with_writes`] performs. `db.rebuild_statistics() ==
    /// *db.stats()` holds for every reachable snapshot.
    pub fn rebuild_statistics(&self) -> StatsSnapshot {
        build_statistics(&self.catalog, &self.extents, &self.links)
    }

    // ---- persistence hooks (crate-private; see persist.rs) --------------

    /// The per-class extent shards, for snapshot encoding.
    pub(crate) fn extent_shards(&self) -> &[Extent] {
        &self.extents
    }

    /// The per-class, per-attribute indexes, for snapshot encoding.
    pub(crate) fn index_shards(&self) -> &[Vec<Option<AttrIndex>>] {
        &self.indexes
    }

    /// The per-relationship link tables, for snapshot encoding.
    pub(crate) fn link_shards(&self) -> &[RelLinks] {
        &self.links
    }

    /// Wires shards into a snapshot no write has touched yet (so without
    /// value counts) that starts a lineage of its own (all write epochs
    /// zero): the builder's and the snapshot-load path's constructor. The
    /// relationship statistics are derived from `links`. The caller owns
    /// all validation (`persist::decode_database` for a load).
    pub(crate) fn from_loaded_parts(
        catalog: Arc<Catalog>,
        extents: Vec<Extent>,
        indexes: Vec<Vec<Option<AttrIndex>>>,
        links: Vec<RelLinks>,
        classes: Vec<ClassStats>,
        data_version: u64,
    ) -> Self {
        let stats =
            StatsSnapshot { classes, relationships: links.iter().map(rel_statistics).collect() };
        let counts = vec![None; extents.len()];
        let write_epochs = WriteEpochs::new(extents.len());
        Self { catalog, extents, indexes, links, stats, counts, data_version, write_epochs }
    }

    /// Whether `self` and `other` share every page of every column of class
    /// `class`'s extent by pointer (diagnostics for the copy-on-write tests
    /// and benches).
    pub fn shares_extent_with(&self, other: &Database, class: ClassId) -> bool {
        match (self.extents.get(class.index()), other.extents.get(class.index())) {
            (Some(a), Some(b)) => a.unshared_pages(b).is_empty(),
            _ => false,
        }
    }

    /// Copy-on-write mutation: applies `writes` in order against the shards
    /// this snapshot shares with its successor, copying **only what the
    /// batch touches** — the pages of the extents and adjacency sides that
    /// hold the written rows and the pages of the indexes and value counts
    /// that hold the written values — and patching the touched classes'
    /// statistics per value (module docs, *What a write costs*). Untouched
    /// state is shared with `self` by pointer. `data_version` advances by
    /// one; the lineage's [`WriteEpochs`] are handed on by pointer and
    /// **not** raised — the successor may never be published
    /// ([`crate::VersionedDatabase::write`] raises them when it is).
    ///
    /// The batch is **atomic**: any validation error (arity, types, unknown
    /// objects or attributes, missing links, or a violated
    /// total-participation/to-one declaration in the state the whole batch
    /// leaves) leaves `self` untouched and returns the error. On success the
    /// [`WriteReceipt`] reports the inserted ids and every swap-remove
    /// renumbering.
    ///
    /// The second argument is never read: the integrity check always runs.
    /// It stays because callers outside the workspace pass `None`.
    pub fn with_writes(
        &self,
        writes: &[DataWrite],
        _integrity: Option<IntegrityOptions>,
    ) -> Result<(Database, WriteReceipt), StorageError> {
        let catalog = Arc::clone(&self.catalog);
        let mut extents = self.extents.clone();
        let mut indexes = self.indexes.clone();
        let mut links = self.links.clone();
        // One statistics patch per touched class, opened by the class's
        // first write of the batch.
        let mut patches: Vec<Option<ClassPatch>> = extents.iter().map(|_| None).collect();
        let mut touched_rels = vec![false; links.len()];
        // `(class, id)` per insert: the class is needed to track swap-remove
        // renumbering by later deletes in the same batch.
        let mut inserted: Vec<(ClassId, ObjectId)> = Vec::new();
        let mut moves: Vec<(ClassId, ObjectId, ObjectId)> = Vec::new();
        let mut deleted = Vec::new();
        for write in writes {
            match write {
                DataWrite::Insert { class, tuple, links: new_links } => {
                    validate_tuple(&catalog, *class, tuple)?;
                    let oid = ObjectId(extents[class.index()].len() as u32);
                    // Resolve the link targets against the un-cloned shards:
                    // rejecting must not pay the clone.
                    let mut edges = Vec::with_capacity(new_links.len());
                    for &(rel, other) in new_links {
                        let def = catalog.relationship(rel)?;
                        // The new object takes the side matching its class;
                        // for self-relationships, the left side (matching
                        // `Database::traverse`'s convention). The opposite
                        // class comes from the same branch — comparing ids
                        // would misattribute `other` when it numerically
                        // equals the fresh oid.
                        let (left, right, other_class) = if def.left.class == *class {
                            (oid, other, def.right.class)
                        } else if def.right.class == *class {
                            (other, oid, def.left.class)
                        } else {
                            return Err(StorageError::LinkClassMismatch { rel });
                        };
                        // Within its own class the new object is a target too.
                        let known =
                            extents[other_class.index()].len() + usize::from(other_class == *class);
                        if other.index() >= known {
                            return Err(StorageError::UnknownObject {
                                class: other_class,
                                object: other,
                            });
                        }
                        edges.push((rel, left, right));
                    }
                    let patch = self.patch_for(&mut patches, *class);
                    let mut tuple = tuple.clone();
                    for (attr, v) in tuple.iter_mut().enumerate() {
                        patch.add(&mut indexes[class.index()], attr, v, oid);
                    }
                    extents[class.index()].push(tuple);
                    // The class's side of every incident link table grows by
                    // one (initially unlinked) slot.
                    for (rel, def) in catalog.relationships() {
                        if !def.involves(*class) {
                            continue;
                        }
                        let lk = &mut links[rel.index()];
                        if def.left.class == *class {
                            lk.grow_left();
                        }
                        if def.right.class == *class {
                            lk.grow_right();
                        }
                        touched_rels[rel.index()] = true;
                    }
                    for (rel, left, right) in edges {
                        links[rel.index()].add_sorted(left, right);
                    }
                    inserted.push((*class, oid));
                }
                DataWrite::Delete { class, object } => {
                    let unknown = StorageError::UnknownObject { class: *class, object: *object };
                    // Validate against the un-cloned shard: rejecting must
                    // not pay the clone.
                    if object.index() >= extents[class.index()].len() {
                        return Err(unknown);
                    }
                    let patch = self.patch_for(&mut patches, *class);
                    let extent = &mut extents[class.index()];
                    let last = ObjectId((extent.len() - 1) as u32);
                    let Some(dead) = extent.swap_remove(object.index()) else {
                        return Err(unknown);
                    };
                    let indexes = &mut indexes[class.index()];
                    for (attr, v) in dead.iter().enumerate() {
                        patch.remove(indexes, attr, v, *object);
                    }
                    deleted.push(dead);
                    if *object != last {
                        // The moved object's index entries follow it to its
                        // new id, at the sorted place in each posting.
                        for (ix, column) in indexes.iter_mut().zip(extent.columns()) {
                            if let (Some(ix), Some(v)) = (ix, column.get(object.index())) {
                                ix.remove(&v, last);
                                ix.insert_sorted(v, *object);
                            }
                        }
                        moves.push((*class, last, *object));
                        // The renumbering applies to earlier inserts of this
                        // batch too, so the returned ids stay live.
                        for (c, id) in inserted.iter_mut() {
                            if *c == *class && *id == last {
                                *id = *object;
                            }
                        }
                    }
                    for (rel, def) in catalog.relationships() {
                        let on_left = def.left.class == *class;
                        let on_right = def.right.class == *class;
                        if !on_left && !on_right {
                            continue;
                        }
                        touched_rels[rel.index()] = true;
                        let lk = &mut links[rel.index()];
                        if on_left && on_right {
                            // Self-relationship: both sides renumber at once;
                            // rebuilding this one table (O(its links)) is
                            // simpler than an interleaved two-sided patch.
                            *lk = rebuild_self_links(lk, *object);
                        } else if on_left {
                            lk.delete_left(*object);
                        } else {
                            lk.delete_right(*object);
                        }
                    }
                }
                DataWrite::Update { class, object, attr, value } => {
                    let cdef = catalog.class(*class)?;
                    let Some(adef) = cdef.attributes.get(attr.index()) else {
                        return Err(StorageError::UnknownAttribute { class: *class, attr: *attr });
                    };
                    if value.data_type() != adef.ty {
                        return Err(StorageError::TypeMismatch {
                            class: *class,
                            attr: attr.index(),
                            context: format!("expected {}, got {}", adef.ty, value.data_type()),
                        });
                    }
                    let unknown = StorageError::UnknownObject { class: *class, object: *object };
                    if object.index() >= extents[class.index()].len() {
                        return Err(unknown);
                    }
                    let patch = self.patch_for(&mut patches, *class);
                    let extent = &mut extents[class.index()];
                    let Some(old) = extent.column(attr.index()).and_then(|c| c.get(object.index()))
                    else {
                        return Err(unknown);
                    };
                    let mut new = value.clone();
                    if old != new {
                        let indexes = &mut indexes[class.index()];
                        patch.remove(indexes, attr.index(), &old, *object);
                        patch.add(indexes, attr.index(), &mut new, *object);
                    } else if let Value::Str(_) = old {
                        // An equal string keeps the allocation its equals share.
                        new = old;
                    }
                    extent.replace(object.index(), attr.index(), new);
                }
                DataWrite::Link { rel, left, right } => {
                    let def = catalog.relationship(*rel)?;
                    for (class, object) in [(def.left.class, *left), (def.right.class, *right)] {
                        if object.index() >= extents[class.index()].len() {
                            return Err(StorageError::UnknownObject { class, object });
                        }
                    }
                    links[rel.index()].add_sorted(*left, *right);
                    touched_rels[rel.index()] = true;
                }
                DataWrite::Unlink { rel, left, right } => {
                    let missing =
                        StorageError::LinkNotFound { rel: *rel, left: *left, right: *right };
                    // Probe read-only first: a missing edge must not clone
                    // the link table.
                    if !links[rel.index()].from_left(*left).contains(right)
                        || !links[rel.index()].remove_edge(*left, *right)
                    {
                        return Err(missing);
                    }
                    touched_rels[rel.index()] = true;
                }
            }
        }
        for (rel, def) in catalog.relationships() {
            if touched_rels[rel.index()] {
                links[rel.index()].check(rel, def, Some(&self.links[rel.index()]))?;
            }
        }
        // Fold statistics: close the touched classes' patches, recompute the
        // touched relationships, carry everything else over.
        let mut stats = self.stats.clone();
        let mut counts = self.counts.clone();
        let mut touched_classes = Vec::new();
        for (c, patch) in patches.into_iter().enumerate() {
            if let Some(patch) = patch {
                let (class_counts, class_stats) = patch.finish(&indexes[c], extents[c].len());
                counts[c] = Some(Arc::new(class_counts));
                stats.classes[c] = class_stats;
                touched_classes.push(ClassId(c as u32));
            }
        }
        for (r, touched) in touched_rels.iter().enumerate() {
            if *touched {
                stats.relationships[r] = rel_statistics(&links[r]);
            }
        }
        let receipt = WriteReceipt {
            inserted: inserted.iter().map(|&(_, id)| id).collect(),
            moves,
            deleted,
            touched_classes,
        };
        let db = Database {
            catalog,
            extents,
            indexes,
            links,
            stats,
            counts,
            data_version: self.data_version + 1,
            write_epochs: self.write_epochs.clone(),
        };
        Ok((db, receipt))
    }

    /// The statistics patch of `class` for the batch being applied, opened on
    /// first use: from the counts an earlier write left, or — the first time
    /// any write touches the class — from its indexes and one scan of its
    /// extent, as they are in `self`: no write of the batch has changed a
    /// class whose patch is not open yet.
    fn patch_for<'p>(
        &self,
        patches: &'p mut [Option<ClassPatch>],
        class: ClassId,
    ) -> &'p mut ClassPatch {
        let c = class.index();
        patches[c].get_or_insert_with(|| match &self.counts[c] {
            Some(counts) => ClassPatch::resume(counts, &self.stats.classes[c]),
            None => ClassPatch::scan(&self.indexes[c], &self.extents[c]),
        })
    }

    /// The from-scratch write path: applies `writes` to a deep clone of the
    /// logical state and reassembles **everything** — links, indexes and
    /// statistics, and each attribute's strings canonical — exactly as a
    /// fresh [`DatabaseBuilder`] load would. It is the independent
    /// equivalence oracle for [`Database::with_writes`]
    /// (`tests/prop_incremental.rs` proves the two agree on every read API
    /// for arbitrary batches). Semantics are identical, including the
    /// returned [`WriteReceipt`] and the lineage's [`WriteEpochs`], handed on
    /// by pointer and not raised; the integrity check reads every list of
    /// every relationship.
    pub fn with_writes_full(
        &self,
        writes: &[DataWrite],
    ) -> Result<(Database, WriteReceipt), StorageError> {
        let catalog = Arc::clone(&self.catalog);
        let mut extents: Vec<Vec<Vec<Value>>> = self
            .extents
            .iter()
            .map(|e| (0..e.len()).filter_map(|oid| e.row(oid)).collect())
            .collect();
        let mut pairs: Vec<Vec<(ObjectId, ObjectId)>> =
            self.links.iter().map(|lk| lk.pairs().collect()).collect();
        let mut touched_classes = vec![false; extents.len()];
        let mut inserted: Vec<(ClassId, ObjectId)> = Vec::new();
        let mut moves: Vec<(ClassId, ObjectId, ObjectId)> = Vec::new();
        let mut deleted = Vec::new();
        for write in writes {
            match write {
                DataWrite::Insert { class, tuple, links } => {
                    validate_tuple(&catalog, *class, tuple)?;
                    let extent = &mut extents[class.index()];
                    let oid = ObjectId(extent.len() as u32);
                    extent.push(tuple.clone());
                    touched_classes[class.index()] = true;
                    for &(rel, other) in links {
                        let def = catalog.relationship(rel)?;
                        let (left, right, other_class) = if def.left.class == *class {
                            (oid, other, def.right.class)
                        } else if def.right.class == *class {
                            (other, oid, def.left.class)
                        } else {
                            return Err(StorageError::LinkClassMismatch { rel });
                        };
                        if other.index() >= extents[other_class.index()].len() {
                            return Err(StorageError::UnknownObject {
                                class: other_class,
                                object: other,
                            });
                        }
                        pairs[rel.index()].push((left, right));
                    }
                    inserted.push((*class, oid));
                }
                DataWrite::Delete { class, object } => {
                    let extent = &mut extents[class.index()];
                    if object.index() >= extent.len() {
                        return Err(StorageError::UnknownObject { class: *class, object: *object });
                    }
                    let last = ObjectId((extent.len() - 1) as u32);
                    deleted.push(extent.swap_remove(object.index()));
                    touched_classes[class.index()] = true;
                    if *object != last {
                        moves.push((*class, last, *object));
                        for (c, id) in inserted.iter_mut() {
                            if *c == *class && *id == last {
                                *id = *object;
                            }
                        }
                    }
                    for (rel, def) in catalog.relationships() {
                        let on_left = def.left.class == *class;
                        let on_right = def.right.class == *class;
                        if !on_left && !on_right {
                            continue;
                        }
                        let ps = &mut pairs[rel.index()];
                        ps.retain(|&(l, r)| !(on_left && l == *object || on_right && r == *object));
                        if *object != last {
                            for p in ps.iter_mut() {
                                if on_left && p.0 == last {
                                    p.0 = *object;
                                }
                                if on_right && p.1 == last {
                                    p.1 = *object;
                                }
                            }
                        }
                    }
                }
                DataWrite::Update { class, object, attr, value } => {
                    let cdef = catalog.class(*class)?;
                    let Some(adef) = cdef.attributes.get(attr.index()) else {
                        return Err(StorageError::UnknownAttribute { class: *class, attr: *attr });
                    };
                    if value.data_type() != adef.ty {
                        return Err(StorageError::TypeMismatch {
                            class: *class,
                            attr: attr.index(),
                            context: format!("expected {}, got {}", adef.ty, value.data_type()),
                        });
                    }
                    let extent = &mut extents[class.index()];
                    let Some(tuple) = extent.get_mut(object.index()) else {
                        return Err(StorageError::UnknownObject { class: *class, object: *object });
                    };
                    tuple[attr.index()] = value.clone();
                    touched_classes[class.index()] = true;
                }
                DataWrite::Link { rel, left, right } => {
                    let def = catalog.relationship(*rel)?;
                    for (class, object) in [(def.left.class, *left), (def.right.class, *right)] {
                        if object.index() >= extents[class.index()].len() {
                            return Err(StorageError::UnknownObject { class, object });
                        }
                    }
                    pairs[rel.index()].push((*left, *right));
                }
                DataWrite::Unlink { rel, left, right } => {
                    let ps = &mut pairs[rel.index()];
                    let Some(at) = ps.iter().position(|&p| p == (*left, *right)) else {
                        return Err(StorageError::LinkNotFound {
                            rel: *rel,
                            left: *left,
                            right: *right,
                        });
                    };
                    ps.remove(at);
                }
            }
        }
        let mut extents = page_extents(&catalog, extents);
        let links = build_links(&catalog, &extents, &pairs)?;
        let indexes = build_indexes(&catalog, &mut extents);
        let classes = load_statistics(&mut extents, &indexes);
        let stats =
            StatsSnapshot { classes, relationships: links.iter().map(rel_statistics).collect() };
        let receipt = WriteReceipt {
            inserted: inserted.iter().map(|&(_, id)| id).collect(),
            moves,
            deleted,
            touched_classes: touched_classes
                .iter()
                .enumerate()
                .filter(|(_, t)| **t)
                .map(|(i, _)| ClassId(i as u32))
                .collect(),
        };
        let db = Database {
            counts: vec![None; extents.len()],
            catalog,
            extents,
            indexes,
            links,
            stats,
            data_version: self.data_version + 1,
            write_epochs: self.write_epochs.clone(),
        };
        Ok((db, receipt))
    }

    /// Exhaustively checks a semantic constraint against the data, returning
    /// every falsifying binding. Enumeration follows the constraint's
    /// relationships (linked pairs) and falls back to cross products for
    /// unconnected classes — fine at the paper's cardinalities; generators
    /// and property tests use this to certify instances.
    pub fn check_constraint(&self, constraint: &HornConstraint) -> Vec<Violation> {
        let mut violations = Vec::new();
        let classes = constraint.classes.clone();
        let mut binding: Vec<(ClassId, ObjectId)> = Vec::new();
        self.enumerate(constraint, &classes, &mut binding, &mut violations);
        violations
    }

    fn enumerate(
        &self,
        constraint: &HornConstraint,
        remaining: &[ClassId],
        binding: &mut Vec<(ClassId, ObjectId)>,
        violations: &mut Vec<Violation>,
    ) {
        let Some((&next, rest)) = pick_next(self, constraint, remaining, binding) else {
            // Complete binding: evaluate the clause.
            if self.eval_all(&constraint.antecedents, binding)
                && !self.eval_pred(&constraint.consequent, binding)
            {
                violations.push(Violation { binding: binding.clone() });
            }
            return;
        };
        // Candidate objects for `next`: via a relationship to a bound class
        // when possible, otherwise the whole extent.
        let candidates: Vec<ObjectId> = self
            .link_candidates(constraint, next, binding)
            .unwrap_or_else(|| (0..self.cardinality(next) as u32).map(ObjectId).collect());
        for oid in candidates {
            // The same object must be consistent with *all* relationships to
            // already-bound classes.
            if !self.consistent(constraint, next, oid, binding) {
                continue;
            }
            binding.push((next, oid));
            self.enumerate(constraint, rest, binding, violations);
            binding.pop();
        }
    }

    fn link_candidates(
        &self,
        constraint: &HornConstraint,
        class: ClassId,
        binding: &[(ClassId, ObjectId)],
    ) -> Option<Vec<ObjectId>> {
        for &rel in &constraint.relationships {
            let def = self.catalog.relationship(rel).ok()?;
            let other = def.other_end(class)?;
            if let Some(&(_, oid)) = binding.iter().find(|(c, _)| *c == other) {
                if other != class {
                    return self.traverse(rel, other, oid).ok().map(|s| s.to_vec());
                }
            }
        }
        None
    }

    fn consistent(
        &self,
        constraint: &HornConstraint,
        class: ClassId,
        oid: ObjectId,
        binding: &[(ClassId, ObjectId)],
    ) -> bool {
        for &rel in &constraint.relationships {
            let Ok(def) = self.catalog.relationship(rel) else {
                return false;
            };
            let (a, b) = def.classes();
            if a == b {
                continue; // self-relationship consistency is skipped
            }
            let other = if a == class {
                b
            } else if b == class {
                a
            } else {
                continue;
            };
            if let Some(&(_, other_oid)) = binding.iter().find(|(c, _)| *c == other) {
                match self.traverse(rel, class, oid) {
                    Ok(neigh) if neigh.contains(&other_oid) => {}
                    _ => return false,
                }
            }
        }
        true
    }

    fn eval_all(&self, preds: &[Predicate], binding: &[(ClassId, ObjectId)]) -> bool {
        preds.iter().all(|p| self.eval_pred(p, binding))
    }

    fn eval_pred(&self, pred: &Predicate, binding: &[(ClassId, ObjectId)]) -> bool {
        let lookup = |attr: AttrRef| -> Option<Value> {
            let (_, oid) = binding.iter().find(|(c, _)| *c == attr.class)?;
            self.value(attr, *oid).ok()
        };
        match pred {
            Predicate::Sel(s) => lookup(s.attr).is_some_and(|v| s.eval(&v)),
            Predicate::Join(j) => match (lookup(j.left), lookup(j.right)) {
                (Some(l), Some(r)) => j.eval(&l, &r),
                _ => false,
            },
        }
    }
}

fn pick_next<'a>(
    _db: &Database,
    _constraint: &HornConstraint,
    remaining: &'a [ClassId],
    _binding: &[(ClassId, ObjectId)],
) -> Option<(&'a ClassId, &'a [ClassId])> {
    // Enumeration order only affects cost, never correctness:
    // `link_candidates` narrows candidates when a relationship to a bound
    // class exists and `consistent` re-checks every relationship regardless.
    remaining.split_first()
}

/// Staged loader for [`Database`].
#[derive(Debug)]
pub struct DatabaseBuilder {
    catalog: Arc<Catalog>,
    /// Per class, its columns so far: an insert pushes one value onto each.
    extents: Vec<Columns>,
    pending_links: Vec<(RelId, ObjectId, ObjectId)>,
}

impl DatabaseBuilder {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let extents = catalog.classes().map(|(_, cdef)| Columns::new(types(cdef), 0)).collect();
        Self { catalog, extents, pending_links: Vec::new() }
    }

    /// Inserts a tuple, validating arity and types.
    pub fn insert(&mut self, class: ClassId, tuple: Vec<Value>) -> Result<ObjectId, StorageError> {
        validate_tuple(&self.catalog, class, &tuple)?;
        let extent = &mut self.extents[class.index()];
        let oid = ObjectId(extent.len() as u32);
        extent.push(tuple);
        Ok(oid)
    }

    /// Links `left` (an object of the relationship's left class) to `right`.
    pub fn link(
        &mut self,
        rel: RelId,
        left: ObjectId,
        right: ObjectId,
    ) -> Result<(), StorageError> {
        let def = self.catalog.relationship(rel)?;
        let lcard = self.extents[def.left.class.index()].len();
        let rcard = self.extents[def.right.class.index()].len();
        if left.index() >= lcard {
            return Err(StorageError::UnknownObject { class: def.left.class, object: left });
        }
        if right.index() >= rcard {
            return Err(StorageError::UnknownObject { class: def.right.class, object: right });
        }
        self.pending_links.push((rel, left, right));
        Ok(())
    }

    /// Builds the link structures and checks every relationship's
    /// integrity declarations, then builds the declared indexes and the
    /// statistics, off the indexes' postings where there are some. The
    /// argument is never read.
    pub fn finalize(self, _options: IntegrityOptions) -> Result<Database, StorageError> {
        let mut pairs: Vec<Vec<(ObjectId, ObjectId)>> =
            vec![Vec::new(); self.catalog.relationship_count()];
        for (rel, l, r) in &self.pending_links {
            pairs[rel.index()].push((*l, *r));
        }
        let mut extents: Vec<Extent> = self.extents.into_iter().map(Columns::finish).collect();
        let links = build_links(&self.catalog, &extents, &pairs)?;
        let indexes = build_indexes(&self.catalog, &mut extents);
        let classes = load_statistics(&mut extents, &indexes);
        Ok(Database::from_loaded_parts(self.catalog, extents, indexes, links, classes, 0))
    }
}

/// Validates one tuple against a class declaration (arity + types).
fn validate_tuple(catalog: &Catalog, class: ClassId, tuple: &[Value]) -> Result<(), StorageError> {
    let def = catalog.class(class)?;
    if tuple.len() != def.attributes.len() {
        return Err(StorageError::ArityMismatch {
            class,
            expected: def.attributes.len(),
            got: tuple.len(),
        });
    }
    for (i, (v, a)) in tuple.iter().zip(&def.attributes).enumerate() {
        if v.data_type() != a.ty {
            return Err(StorageError::TypeMismatch {
                class,
                attr: i,
                context: format!("expected {}, got {}", a.ty, v.data_type()),
            });
        }
    }
    Ok(())
}

/// Rebuilds one self-relationship link table around the deletion of
/// `object` (edges removed, `last` renumbered onto `object`). O(this
/// relationship's links) — still O(touched), both sides are the deleted
/// object's class.
fn rebuild_self_links(lk: &RelLinks, object: ObjectId) -> RelLinks {
    let last = ObjectId((lk.left_cardinality() - 1) as u32);
    let mut pairs: Vec<(ObjectId, ObjectId)> = lk.pairs().collect();
    pairs.retain(|&(l, r)| l != object && r != object);
    if object != last {
        for p in pairs.iter_mut() {
            if p.0 == last {
                p.0 = object;
            }
            if p.1 == last {
                p.1 = object;
            }
        }
    }
    let n = lk.left_cardinality() - 1;
    RelLinks::from_pairs(n, n, &pairs)
}

/// The declared types of `cdef`'s attributes, in attribute order: what its
/// extent's columns hold.
pub(crate) fn types(cdef: &ClassDef) -> impl Iterator<Item = DataType> + '_ {
    cdef.attributes.iter().map(|a| a.ty)
}

/// Pages each class's rows into its columns (the `with_writes_full` oracle).
fn page_extents(catalog: &Catalog, extents: Vec<Vec<Vec<Value>>>) -> Vec<Extent> {
    let classes = catalog.classes().zip(extents);
    classes
        .map(|((_, cdef), rows)| {
            let mut columns = Columns::new(types(cdef), rows.len());
            rows.into_iter().for_each(|row| columns.push(row));
            columns.finish()
        })
        .collect()
}

/// Builds every relationship's link table from flat pairs, in canonical
/// order, and checks each against its integrity declarations.
fn build_links(
    catalog: &Catalog,
    extents: &[Extent],
    pairs: &[Vec<(ObjectId, ObjectId)>],
) -> Result<Vec<RelLinks>, StorageError> {
    catalog
        .relationships()
        .zip(pairs)
        .map(|((rel, def), rel_pairs)| {
            let links = RelLinks::from_pairs(
                extents[def.left.class.index()].len(),
                extents[def.right.class.index()].len(),
                rel_pairs,
            );
            links.check(rel, def, None).map(|()| links)
        })
        .collect()
}

/// Builds every class's declared indexes from its columns, making the
/// indexed columns' strings canonical on the way ([`AttrIndex::from_column`]).
fn build_indexes(catalog: &Catalog, extents: &mut [Extent]) -> Vec<Vec<Option<AttrIndex>>> {
    catalog
        .classes()
        .zip(extents)
        .map(|((_, cdef), extent)| {
            let declared = cdef.attributes.iter().zip(extent.columns_mut());
            declared
                .map(|(adef, column)| Some(AttrIndex::from_column(adef.index?, column)))
                .collect()
        })
        .collect()
}

/// One relationship's statistics — O(1) off the link table's counters.
fn rel_statistics(lk: &RelLinks) -> RelStats {
    RelStats {
        links: lk.link_count(),
        avg_left_fanout: if lk.left_cardinality() == 0 {
            0.0
        } else {
            lk.link_count() as f64 / lk.left_cardinality() as f64
        },
        avg_right_fanout: if lk.right_cardinality() == 0 {
            0.0
        } else {
            lk.link_count() as f64 / lk.right_cardinality() as f64
        },
    }
}

/// The from-scratch statistics build: every attribute of every class from a
/// scan of its extent, every relationship. It is the reference the load
/// ([`load_statistics`]), the write path and a snapshot load's persisted
/// statistics are checked against in tests; [`Database::rebuild_statistics`]
/// uses it.
fn build_statistics(catalog: &Catalog, extents: &[Extent], links: &[RelLinks]) -> StatsSnapshot {
    let classes =
        catalog.classes().map(|(cid, _)| class_statistics(&extents[cid.index()])).collect();
    let relationships = links.iter().map(rel_statistics).collect();
    StatsSnapshot { classes, relationships }
}

/// The load's class statistics, equal to [`build_statistics`]' with the
/// declared `indexes` built: an indexed attribute's read off its postings,
/// only an unindexed one's scanned — the scan that makes its strings
/// canonical.
fn load_statistics(extents: &mut [Extent], indexes: &[Vec<Option<AttrIndex>>]) -> Vec<ClassStats> {
    indexes.iter().zip(extents).map(|(bank, extent)| load_class_statistics(bank, extent)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::example::figure21;
    use sqo_constraints::figure22;
    use sqo_query::CompOp;

    fn mini_db() -> (Arc<Catalog>, Database) {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let sfi = b.insert(supplier, vec![Value::str("SFI"), Value::str("1 Food St")]).unwrap();
        let ntuc = b.insert(supplier, vec![Value::str("NTUC"), Value::str("2 Mart Ave")]).unwrap();
        let frozen = b
            .insert(cargo, vec![Value::Int(100), Value::str("frozen food"), Value::Int(40)])
            .unwrap();
        let fresh = b
            .insert(cargo, vec![Value::Int(101), Value::str("fresh fruit"), Value::Int(7)])
            .unwrap();
        let reefer = b
            .insert(vehicle, vec![Value::Int(1), Value::str("refrigerated truck"), Value::Int(3)])
            .unwrap();
        let flatbed =
            b.insert(vehicle, vec![Value::Int(2), Value::str("flatbed"), Value::Int(1)]).unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        b.link(supplies, frozen, sfi).unwrap();
        b.link(supplies, fresh, ntuc).unwrap();
        b.link(collects, frozen, reefer).unwrap();
        b.link(collects, fresh, flatbed).unwrap();
        // Each vehicle has its own engine and one shared driver, as the
        // to-one, total vehicle ends of `eng_comp` and `drives` declare.
        let license = [Value::Int(0), Value::Int(9), Value::Int(0)];
        let tuple = [Value::str("d"), Value::str("x"), Value::str("x")].into_iter().chain(license);
        let driver = b.insert(catalog.class_id("driver").unwrap(), tuple.collect()).unwrap();
        for (no, vehicle) in [reefer, flatbed].into_iter().enumerate() {
            let engine = catalog.class_id("engine").unwrap();
            let engine = b.insert(engine, vec![Value::Int(no as i64), Value::Int(1)]).unwrap();
            b.link(catalog.rel_id("eng_comp").unwrap(), vehicle, engine).unwrap();
            b.link(catalog.rel_id("drives").unwrap(), vehicle, driver).unwrap();
        }
        let db = b.finalize(IntegrityOptions).unwrap();
        (catalog, db)
    }

    #[test]
    fn insert_and_lookup() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(db.cardinality(cargo), 2);
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        assert_eq!(db.value(desc, ObjectId(0)).unwrap(), Value::str("frozen food"));
        let row = vec![Value::Int(101), Value::str("fresh fruit"), Value::Int(7)];
        assert_eq!(db.tuple(cargo, ObjectId(1)).unwrap(), row);
        let walked: Vec<Value> = db.column(desc).unwrap().iter().collect();
        assert_eq!(walked, [Value::str("frozen food"), Value::str("fresh fruit")]);
    }

    #[test]
    fn a_bad_object_and_a_bad_attribute_are_told_apart() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        let object = ObjectId(9);
        assert_eq!(
            db.value(desc, object),
            Err(StorageError::UnknownObject { class: cargo, object })
        );
        assert_eq!(
            db.tuple(cargo, object),
            Err(StorageError::UnknownObject { class: cargo, object })
        );
        let attr = AttrId(3);
        let past = AttrRef::new(cargo, attr);
        let unknown = StorageError::UnknownAttribute { class: cargo, attr };
        assert_eq!(db.value(past, ObjectId(0)), Err(unknown.clone()));
        assert_eq!(db.column(past).err(), Some(unknown));
    }

    #[test]
    fn arity_and_type_validation() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let cargo = catalog.class_id("cargo").unwrap();
        assert!(matches!(
            b.insert(cargo, vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.insert(cargo, vec![Value::str("x"), Value::str("d"), Value::Int(1)]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn traversal_both_directions() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        assert_eq!(db.traverse(supplies, cargo, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        assert_eq!(db.traverse(supplies, supplier, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        let engine = catalog.class_id("engine").unwrap();
        assert!(db.traverse(supplies, engine, ObjectId(0)).is_err());
    }

    #[test]
    fn indexes_built_from_declarations() {
        let (catalog, db) = mini_db();
        let name = catalog.attr_ref("supplier", "name").unwrap();
        let ix = db.index(name).expect("supplier.name is hash-indexed");
        assert_eq!(ix.probe_eq(&Value::str("SFI")), &[ObjectId(0)]);
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        assert!(db.index(desc).is_none(), "cargo.desc is unindexed");
    }

    #[test]
    fn stats_collected() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(db.stats().cardinality(cargo), 2);
        let qty = catalog.attr_ref("cargo", "quantity").unwrap();
        let s = db.stats().attr(qty).unwrap();
        assert_eq!(s.distinct, 2);
        assert_eq!(s.min, Some(Value::Int(7)));
        assert_eq!(s.max, Some(Value::Int(40)));
        let supplies = catalog.rel_id("supplies").unwrap();
        assert_eq!(db.stats().relationship(supplies).unwrap().links, 2);
    }

    #[test]
    fn multiplicity_enforced() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let s1 = b.insert(supplier, vec![Value::str("A"), Value::str("x")]).unwrap();
        let s2 = b.insert(supplier, vec![Value::str("B"), Value::str("y")]).unwrap();
        let c1 = b.insert(cargo, vec![Value::Int(1), Value::str("d"), Value::Int(1)]).unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // cargo is the to-one side: two suppliers for one cargo violates.
        b.link(supplies, c1, s1).unwrap();
        b.link(supplies, c1, s2).unwrap();
        let err = b.finalize(IntegrityOptions);
        assert!(matches!(err, Err(StorageError::MultiplicityViolated { .. })));
    }

    #[test]
    fn total_participation_enforced() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let cargo = catalog.class_id("cargo").unwrap();
        // A cargo with no supplier violates `supplies` (total on cargo side).
        b.insert(cargo, vec![Value::Int(1), Value::str("d"), Value::Int(1)]).unwrap();
        let err = b.finalize(IntegrityOptions);
        assert!(matches!(err, Err(StorageError::TotalParticipationViolated { .. })));
    }

    #[test]
    fn constraint_checking_finds_violations() {
        let (catalog, db) = mini_db();
        let constraints = figure22(&catalog).unwrap();
        // c1 and c2 hold on the mini instance.
        assert!(db.check_constraint(&constraints[0]).is_empty(), "c1 holds");
        assert!(db.check_constraint(&constraints[1]).is_empty(), "c2 holds");
        // A made-up constraint that fails: all cargo is frozen food.
        let bogus = sqo_constraints::ConstraintBuilder::new(&catalog, "bogus")
            .scope("cargo")
            .then("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let v = db.check_constraint(&bogus);
        assert_eq!(v.len(), 1, "the fresh-fruit cargo violates");
        assert_eq!(v[0].binding[0].1, ObjectId(1));
    }

    #[test]
    fn write_insert_extends_extent_indexes_links_and_stats() {
        let (catalog, db) = mini_db();
        assert_eq!(db.data_version(), 0);
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        // A third cargo: frozen food from SFI on the reefer (mirrors row 0).
        let (next, receipt) = db
            .with_writes(
                &[DataWrite::Insert {
                    class: cargo,
                    tuple: vec![Value::Int(102), Value::str("frozen food"), Value::Int(40)],
                    links: vec![(supplies, ObjectId(0)), (collects, ObjectId(0))],
                }],
                None,
            )
            .unwrap();
        assert_eq!(receipt.inserted, vec![ObjectId(2)]);
        assert!(receipt.moves.is_empty());
        assert_eq!(receipt.touched_classes, vec![cargo]);
        assert_eq!(next.data_version(), 1);
        assert_eq!(next.cardinality(cargo), 3);
        assert_eq!(db.cardinality(cargo), 2, "source snapshot untouched");
        // Links wired both ways.
        let supplier = catalog.class_id("supplier").unwrap();
        assert_eq!(next.traverse(supplies, cargo, ObjectId(2)).unwrap(), &[ObjectId(0)]);
        assert_eq!(
            next.traverse(supplies, supplier, ObjectId(0)).unwrap(),
            &[ObjectId(0), ObjectId(2)]
        );
        // Indexes patched over the new extent.
        let cno = catalog.attr_ref("cargo", "code").unwrap();
        let ix = next.index(cno).expect("cargo.code is indexed");
        assert_eq!(ix.probe_eq(&Value::Int(102)), &[ObjectId(2)]);
        // Statistics track the write (cardinality estimates stay honest).
        assert_eq!(next.stats().cardinality(cargo), 3);
        assert_eq!(next.stats().relationship(supplies).unwrap().links, 3);
    }

    /// Per declared index of `class`: how many of its pages in `a` are not
    /// pages of `b`'s.
    fn unshared_index_pages(a: &Database, b: &Database, class: ClassId) -> Vec<usize> {
        let slots = a.indexes[class.index()].iter().zip(&b.indexes[class.index()]);
        slots
            .filter_map(|(x, y)| Some(x.as_ref()?.postings.pages_not_in(&y.as_ref()?.postings)))
            .collect()
    }

    #[test]
    fn untouched_shards_are_shared_by_pointer() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let belongs_to = catalog.rel_id("belongs_to").unwrap();
        // A supplier is on no total end, so it may be inserted unlinked.
        let (next, _) = db
            .with_writes(
                &[DataWrite::Insert {
                    class: supplier,
                    tuple: vec![Value::str("FFC"), Value::str("3 Fish Rd")],
                    links: vec![],
                }],
                None,
            )
            .unwrap();
        // The touched class got its own extent and index pages…
        assert!(!next.shares_extent_with(&db, supplier));
        assert_eq!(unshared_index_pages(&next, &db, supplier), vec![1]);
        // …every other class is shared by pointer…
        for c in [cargo, vehicle] {
            assert!(next.shares_extent_with(&db, c), "{}", catalog.class_name(c));
            assert!(unshared_index_pages(&next, &db, c).iter().all(|&pages| pages == 0));
        }
        // …and so is every page of every link table: relationships not
        // incident to supplier keep theirs, and the unlinked object's slot
        // on the supplier side of `supplies` was already an empty list of
        // its last page.
        let shared = |rel: RelId| {
            let (a, b) = (next.links[rel.index()].sides(), db.links[rel.index()].sides());
            (0..2).all(|side| a[side].unshared_pages(b[side]).next().is_none())
        };
        for rel in catalog.relationships().map(|(rel, _)| rel) {
            assert!(shared(rel));
        }
        assert_eq!(next.links(belongs_to), db.links(belongs_to));
        let supplies = catalog.rel_id("supplies").unwrap();
        assert_eq!(
            next.links(supplies).right_cardinality(),
            db.links(supplies).right_cardinality() + 1
        );
    }

    #[test]
    fn a_copied_index_page_shares_every_posting_the_write_does_not_change() {
        // One indexed attribute: 8 grades of 40 pupils, one page of postings.
        let mut b = Catalog::builder();
        let attrs = vec![sqo_catalog::AttributeDef::indexed(
            "grade",
            sqo_catalog::DataType::Int,
            sqo_catalog::IndexKind::Hash,
        )];
        let pupil = b.class("pupil", attrs).unwrap();
        let grade = AttrRef::new(pupil, AttrId(0));
        let mut load = Database::builder(Arc::new(b.build().unwrap()));
        for i in 0..320 {
            load.insert(pupil, vec![Value::Int(i % 8)]).unwrap();
        }
        let db = load.finalize(IntegrityOptions).unwrap();
        fn postings(db: &Database, attr: AttrRef) -> Vec<(Value, &[ObjectId])> {
            db.index(attr).unwrap().entries().map(|(k, oids)| (k.clone(), oids)).collect()
        }
        // Each posting of `b` is the very allocation of `a`'s under the same
        // key, except under the `written` keys.
        let shared_but = |a: &Database, b: &Database, written: &[i64]| {
            assert_eq!(unshared_index_pages(b, a, pupil), vec![1], "the page is copied");
            for ((key, theirs), (_, ours)) in postings(a, grade).into_iter().zip(postings(b, grade))
            {
                let rebuilt = written.contains(&key.as_int().unwrap());
                assert_eq!(std::ptr::eq(theirs, ours), !rebuilt, "grade {key:?}");
            }
        };
        let ids = |db: &Database| -> Vec<Vec<ObjectId>> {
            postings(db, grade).into_iter().map(|(_, oids)| oids.to_vec()).collect()
        };
        let before = ids(&db);
        let three: Vec<ObjectId> = (3..320).step_by(8).map(ObjectId).collect();

        let insert = DataWrite::Insert { class: pupil, tuple: vec![Value::Int(3)], links: vec![] };
        let (next, _) = db.with_writes(&[insert], None).unwrap();
        shared_but(&db, &next, &[3]);
        assert_eq!(
            next.index(grade).unwrap().probe_eq(&Value::Int(3)),
            [&three[..], &[ObjectId(320)]].concat()
        );
        let update = DataWrite::Update {
            class: pupil,
            object: ObjectId(5),
            attr: AttrId(0),
            value: Value::Int(6),
        };
        let (after, _) = next.with_writes(&[update], None).unwrap();
        shared_but(&next, &after, &[5, 6]);
        assert_eq!(after.index(grade).unwrap().probe_eq(&Value::Int(5)).len(), 39);
        assert_eq!(after.index(grade).unwrap().probe_eq(&Value::Int(6)).len(), 41);
        // The source snapshot reads as it was built.
        assert_eq!(ids(&db), before);
        assert_eq!(db.index(grade).unwrap().probe_eq(&Value::Int(3)), three);
    }

    #[test]
    fn a_one_object_write_copies_only_the_pages_it_touches() {
        // Three pages of suppliers, cargo and vehicles; cargo i is supplied
        // by supplier i and collected by vehicle i.
        let n = 300u32;
        let catalog = Arc::new(figure21().unwrap());
        let [supplier, cargo, vehicle] =
            ["supplier", "cargo", "vehicle"].map(|c| catalog.class_id(c).unwrap());
        let incident = ["supplies", "collects"].map(|r| catalog.rel_id(r).unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        // Vehicle i has engine i and the one driver.
        let license = [Value::Int(0), Value::Int(9), Value::Int(0)];
        let tuple = [Value::str("d"), Value::str("x"), Value::str("x")].into_iter().chain(license);
        let driver = b.insert(catalog.class_id("driver").unwrap(), tuple.collect()).unwrap();
        let engine = catalog.class_id("engine").unwrap();
        for i in 0..n {
            let name = Value::str(format!("s{i}"));
            b.insert(supplier, vec![name, Value::str("addr")]).unwrap();
            b.insert(cargo, vec![Value::Int(i.into()), Value::str("d"), Value::Int(1)]).unwrap();
            b.insert(vehicle, vec![Value::Int(i.into()), Value::str("v"), Value::Int(1)]).unwrap();
            b.insert(engine, vec![Value::Int(i.into()), Value::Int(1)]).unwrap();
            for rel in incident.into_iter().chain([catalog.rel_id("eng_comp").unwrap()]) {
                b.link(rel, ObjectId(i), ObjectId(i)).unwrap();
            }
            b.link(catalog.rel_id("drives").unwrap(), ObjectId(i), driver).unwrap();
        }
        let db = b.finalize(IntegrityOptions).unwrap();
        // The cargo column pages, as (attribute, page), and per incident
        // adjacency side the CSR pages (one allocation of 128 objects'
        // lists each), that `a` does not share with `b`.
        let unshared = |a: &Database, b: &Database| {
            let columns = a.extents[cargo.index()].unshared_pages(&b.extents[cargo.index()]);
            let mut sides = Vec::new();
            for rel in incident {
                let (x, y) = (a.links[rel.index()].sides(), b.links[rel.index()].sides());
                sides.extend([0, 1].map(|side| x[side].unshared_pages(y[side]).collect()));
            }
            (columns, sides)
        };
        // An insert linked to the last supplier and vehicle: the last page of
        // each of cargo's three columns, and on each incident side the page
        // holding the list that gains the edge — the new cargo's, the last
        // supplier's and vehicle's — nothing else. Growing a side by an
        // unlinked slot copies no page (`untouched_shards_are_shared_by_pointer`).
        let insert = DataWrite::Insert {
            class: cargo,
            tuple: vec![Value::Int(n.into()), Value::str("d"), Value::Int(1)],
            links: incident.map(|rel| (rel, ObjectId(n - 1))).to_vec(),
        };
        let (next, _) = db.with_writes(&[insert], None).unwrap();
        assert_eq!(unshared(&next, &db), (vec![(0, 2), (1, 2), (2, 2)], vec![vec![2]; 4]));
        // Of the five pages of `cargo.code`'s index, the one the new key
        // joins.
        assert_eq!(unshared_index_pages(&next, &db, cargo), vec![1]);
        assert!(!next.shares_extent_with(&db, cargo));
        assert!(next.shares_extent_with(&db, supplier) && next.shares_extent_with(&db, vehicle));
        // A delete of cargo 0 moves the last cargo's list into the first
        // page and empties its slot: both pages on the cargo sides, and on
        // the other sides the pages of the two objects' neighbours'
        // lists (supplier/vehicle 0 and 300 - 1), each rebuilt once.
        let (after, _) = next
            .with_writes(&[DataWrite::Delete { class: cargo, object: ObjectId(0) }], None)
            .unwrap();
        let columns = (0..3).flat_map(|attr| [(attr, 0), (attr, 2)]).collect();
        assert_eq!(unshared(&after, &next), (columns, vec![vec![0, 2]; 4]));
        // The index pages of the deleted key and of the moved object's.
        assert_eq!(unshared_index_pages(&after, &next, cargo), vec![2]);
        assert!(after.shares_extent_with(&next, supplier));
        assert!(after.shares_extent_with(&next, vehicle));
        assert_eq!(after.stats(), &after.rebuild_statistics());
        // A one-attribute update of an unindexed attribute: one page of one
        // column; every other page of every extent, index and link table
        // is shared by pointer.
        let quantity = catalog.attr_ref("cargo", "quantity").unwrap();
        let update = DataWrite::Update {
            class: cargo,
            object: ObjectId(130),
            attr: quantity.attr,
            value: Value::Int(2),
        };
        let (updated, _) = after.with_writes(&[update], None).unwrap();
        assert_eq!(unshared(&updated, &after), (vec![(quantity.attr.index(), 1)], vec![vec![]; 4]));
        assert_eq!(unshared_index_pages(&updated, &after, cargo), vec![0]);
        for class in [supplier, vehicle] {
            assert!(updated.shares_extent_with(&after, class));
        }
        assert_eq!(updated.value(quantity, ObjectId(130)).unwrap(), Value::Int(2));
        assert_eq!(after.value(quantity, ObjectId(130)).unwrap(), Value::Int(1));
        // Moving cargo 130 from supplier 130 to supplier 131 edits one list
        // on the cargo side of `supplies` and two on the supplier side: page
        // 1 of both, and no page of `collects`.
        let [supplies, _] = incident;
        let relink = [
            DataWrite::Unlink { rel: supplies, left: ObjectId(130), right: ObjectId(130) },
            DataWrite::Link { rel: supplies, left: ObjectId(130), right: ObjectId(131) },
        ];
        let (relinked, _) = updated.with_writes(&relink, None).unwrap();
        let (columns, sides) = unshared(&relinked, &updated);
        assert!(columns.is_empty());
        assert_eq!(sides, vec![vec![1], vec![1], vec![], vec![]]);
        assert_eq!(relinked.links(supplies).from_left(ObjectId(130)), &[ObjectId(131)]);
        assert!(relinked.links(supplies).from_right(ObjectId(130)).is_empty());
        let moved = [ObjectId(130), ObjectId(131)];
        assert_eq!(relinked.links(supplies).from_right(ObjectId(131)), &moved);
    }

    #[test]
    fn write_delete_renumbers_the_last_object() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        // Delete cargo 0 (frozen food): cargo 1 (fresh fruit) takes id 0.
        let (next, receipt) = db
            .with_writes(&[DataWrite::Delete { class: cargo, object: ObjectId(0) }], None)
            .unwrap();
        assert_eq!(next.cardinality(cargo), 1);
        assert_eq!(receipt.moves, vec![(cargo, ObjectId(1), ObjectId(0))]);
        assert_eq!(next.value(desc, ObjectId(0)).unwrap(), Value::str("fresh fruit"));
        // The renumbered object's links followed it: fresh fruit ← NTUC (1).
        assert_eq!(next.traverse(supplies, cargo, ObjectId(0)).unwrap(), &[ObjectId(1)]);
        // The deleted object's edges are gone from the other side too.
        let supplier = catalog.class_id("supplier").unwrap();
        assert!(next.traverse(supplies, supplier, ObjectId(0)).unwrap().is_empty());
        // Index entries for the deleted tuple are gone.
        let cno = catalog.attr_ref("cargo", "code").unwrap();
        if let Some(ix) = next.index(cno) {
            assert!(ix.probe_eq(&Value::Int(100)).is_empty());
            assert_eq!(ix.probe_eq(&Value::Int(101)), &[ObjectId(0)]);
        }
    }

    #[test]
    fn write_update_patches_tuple_index_and_stats_in_place() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let code = catalog.attr_ref("cargo", "code").unwrap();
        let (next, receipt) = db
            .with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(0),
                    attr: code.attr,
                    value: Value::Int(900),
                }],
                None,
            )
            .unwrap();
        assert_eq!(receipt.touched_classes, vec![cargo]);
        assert!(receipt.inserted.is_empty() && receipt.moves.is_empty());
        assert_eq!(next.value(code, ObjectId(0)).unwrap(), Value::Int(900));
        assert_eq!(db.value(code, ObjectId(0)).unwrap(), Value::Int(100), "source untouched");
        // The object kept its id and links.
        assert_eq!(next.traverse(supplies, cargo, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        // The index moved the entry…
        let ix = next.index(code).expect("cargo.code is indexed");
        assert!(ix.probe_eq(&Value::Int(100)).is_empty());
        assert_eq!(ix.probe_eq(&Value::Int(900)), &[ObjectId(0)]);
        // …and the class statistics see the new value distribution.
        assert_eq!(next.stats().attr(code).unwrap().max, Some(Value::Int(900)));
        // Validation: unknown attribute, wrong type, unknown object.
        assert!(matches!(
            db.with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(0),
                    attr: AttrId(9),
                    value: Value::Int(1),
                }],
                None,
            ),
            Err(StorageError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            db.with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(0),
                    attr: code.attr,
                    value: Value::str("nope"),
                }],
                None,
            ),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.with_writes(
                &[DataWrite::Update {
                    class: cargo,
                    object: ObjectId(7),
                    attr: code.attr,
                    value: Value::Int(1),
                }],
                None,
            ),
            Err(StorageError::UnknownObject { .. })
        ));
    }

    #[test]
    fn write_link_and_unlink_edges() {
        let (catalog, db) = mini_db();
        let collects = catalog.rel_id("collects").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        // Move the frozen cargo onto the flatbed, then back again. A cargo
        // is collected by exactly one vehicle, so each move is one batch.
        let edge = |right| (ObjectId(0), ObjectId(right));
        let link = |(left, right)| DataWrite::Link { rel: collects, left, right };
        let unlink = |(left, right)| DataWrite::Unlink { rel: collects, left, right };
        let (moved, _) = db.with_writes(&[link(edge(1)), unlink(edge(0))], None).unwrap();
        assert_eq!(moved.traverse(collects, cargo, ObjectId(0)).unwrap(), &[ObjectId(1)]);
        assert_eq!(moved.links(collects).from_right(ObjectId(1)), &[ObjectId(0), ObjectId(1)]);
        let (back, _) = moved.with_writes(&[unlink(edge(1)), link(edge(0))], None).unwrap();
        assert_eq!(back.traverse(collects, cargo, ObjectId(0)).unwrap(), &[ObjectId(0)]);
        assert_eq!(back.links(collects), db.links(collects));
        assert_eq!(back.data_version(), 2);
        assert!(matches!(
            back.with_writes(
                &[DataWrite::Unlink { rel: collects, left: ObjectId(0), right: ObjectId(1) }],
                None,
            ),
            Err(StorageError::LinkNotFound { .. })
        ));
    }

    #[test]
    fn inserted_ids_track_renumbering_by_later_deletes() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        // Insert a third cargo (id 2), then delete cargo 0: the insert is
        // swap-renumbered to id 0, and the receipt must say so.
        let (next, receipt) = db
            .with_writes(
                &[
                    DataWrite::Insert {
                        class: cargo,
                        tuple: vec![Value::Int(102), Value::str("canned soup"), Value::Int(9)],
                        links: vec![(supplies, ObjectId(0)), (collects, ObjectId(0))],
                    },
                    DataWrite::Delete { class: cargo, object: ObjectId(0) },
                ],
                None,
            )
            .unwrap();
        assert_eq!(receipt.inserted, vec![ObjectId(0)], "the insert's id followed the swap-remove");
        assert_eq!(receipt.moves, vec![(cargo, ObjectId(2), ObjectId(0))]);
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        assert_eq!(next.value(desc, receipt.inserted[0]).unwrap(), Value::str("canned soup"));
        assert_eq!(next.cardinality(cargo), 2);
    }

    #[test]
    fn write_batches_are_atomic_and_validated() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // Second write of the batch fails: nothing is applied.
        let err = db.with_writes(
            &[
                DataWrite::Insert {
                    class: cargo,
                    tuple: vec![Value::Int(103), Value::str("d"), Value::Int(1)],
                    links: vec![(supplies, ObjectId(0))],
                },
                DataWrite::Insert { class: cargo, tuple: vec![Value::Int(1)], links: vec![] },
            ],
            None,
        );
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        assert_eq!(db.cardinality(cargo), 2);
        // Linking a new object against an unknown neighbor fails.
        let err = db.with_writes(
            &[DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(104), Value::str("d"), Value::Int(1)],
                links: vec![(supplies, ObjectId(9))],
            }],
            None,
        );
        assert!(matches!(err, Err(StorageError::UnknownObject { .. })));
    }

    #[test]
    fn insert_link_target_colliding_with_the_fresh_oid_is_validated_against_the_right_class() {
        // Regression: inserting on the *right* side of a relationship with a
        // link target whose id numerically equals the fresh oid used to be
        // validated against the wrong class (and then crashed link
        // assembly). It must be a clean UnknownObject on the opposite class.
        let (catalog, db) = mini_db();
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // New supplier gets oid 2; cargo 2 does not exist.
        let err = db.with_writes(
            &[DataWrite::Insert {
                class: supplier,
                tuple: vec![Value::str("X"), Value::str("addr")],
                links: vec![(supplies, ObjectId(2))],
            }],
            None,
        );
        assert_eq!(
            err.err(),
            Some(StorageError::UnknownObject { class: cargo, object: ObjectId(2) })
        );
    }

    #[test]
    fn write_integrity_enforcement_rejects_violating_batches() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        // A second supplier for cargo 0 violates the to-one side, in either
        // write path.
        let second = DataWrite::Link { rel: supplies, left: ObjectId(0), right: ObjectId(1) };
        let overlinked = StorageError::MultiplicityViolated {
            rel: supplies,
            class: cargo,
            object: ObjectId(0),
            links: 2,
        };
        let batch = [second.clone()];
        assert_eq!(db.with_writes(&batch, None).err(), Some(overlinked.clone()));
        assert_eq!(db.with_writes_full(&batch).err(), Some(overlinked));
        // The same link passes when the batch also drops the first supplier.
        let first = DataWrite::Unlink { rel: supplies, left: ObjectId(0), right: ObjectId(0) };
        let (moved, _) = db.with_writes(&[second, first.clone()], None).unwrap();
        assert_eq!(moved.links(supplies).from_left(ObjectId(0)), &[ObjectId(1)]);
        // Dropping it alone leaves the cargo without one.
        let unlinked = StorageError::TotalParticipationViolated {
            rel: supplies,
            class: cargo,
            object: ObjectId(0),
        };
        assert_eq!(db.with_writes(&[first], None).err(), Some(unlinked));
        // An unlinked cargo insert trips total participation.
        let err = db.with_writes(
            &[DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(105), Value::str("d"), Value::Int(1)],
                links: vec![],
            }],
            None,
        );
        assert!(matches!(err, Err(StorageError::TotalParticipationViolated { .. })));
    }

    #[test]
    fn duplicating_an_instance_preserves_constraints() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        // Duplicate cargo 0 with its links — every figure 2.2 constraint
        // that held keeps holding (the dup's bindings mirror the source's).
        let tuple = db.tuple(cargo, ObjectId(0)).unwrap();
        let links: Vec<_> = [supplies, collects]
            .into_iter()
            .map(|rel| (rel, db.traverse(rel, cargo, ObjectId(0)).unwrap()[0]))
            .collect();
        let (next, _) =
            db.with_writes(&[DataWrite::Insert { class: cargo, tuple, links }], None).unwrap();
        for c in figure22(&catalog).unwrap() {
            assert!(next.check_constraint(&c).is_empty(), "{} violated after dup", c.name);
        }
    }

    #[test]
    fn incremental_write_matches_the_full_rebuild_oracle() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        let code = catalog.attr_ref("cargo", "code").unwrap();
        // A batch exercising every write kind at once.
        let batch = vec![
            DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(102), Value::str("frozen food"), Value::Int(40)],
                links: vec![(supplies, ObjectId(0)), (collects, ObjectId(0))],
            },
            DataWrite::Update {
                class: cargo,
                object: ObjectId(1),
                attr: code.attr,
                value: Value::Int(555),
            },
            DataWrite::Link { rel: collects, left: ObjectId(1), right: ObjectId(0) },
            DataWrite::Delete { class: cargo, object: ObjectId(0) },
            DataWrite::Unlink { rel: collects, left: ObjectId(1), right: ObjectId(0) },
        ];
        let (inc, r1) = db.with_writes(&batch, None).unwrap();
        let (full, r2) = db.with_writes_full(&batch).unwrap();
        assert_eq!(r1, r2, "receipts agree");
        assert_eq!(inc.data_version(), full.data_version());
        for (cid, _) in catalog.classes() {
            assert_eq!(inc.cardinality(cid), full.cardinality(cid));
            for o in 0..inc.cardinality(cid) as u32 {
                assert_eq!(
                    inc.tuple(cid, ObjectId(o)).unwrap(),
                    full.tuple(cid, ObjectId(o)).unwrap()
                );
            }
        }
        for (rel, def) in catalog.relationships() {
            for o in 0..inc.cardinality(def.left.class) as u32 {
                assert_eq!(
                    inc.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                    full.traverse(rel, def.left.class, ObjectId(o)).unwrap(),
                    "{} left {o}",
                    catalog.rel_name(rel)
                );
            }
        }
        let ix_inc = inc.index(code).unwrap();
        let ix_full = full.index(code).unwrap();
        for v in [100, 101, 102, 555] {
            assert_eq!(ix_inc.probe_eq(&Value::Int(v)), ix_full.probe_eq(&Value::Int(v)));
        }
        assert_eq!(inc.stats(), full.stats());
        // Vehicle was never touched: its shard is shared with the source.
        assert!(inc.shares_extent_with(&db, vehicle));
    }

    #[test]
    fn folded_statistics_match_the_from_scratch_rebuild() {
        let (catalog, db) = mini_db();
        let cargo = catalog.class_id("cargo").unwrap();
        let links = ["supplies", "collects"].map(|r| (catalog.rel_id(r).unwrap(), ObjectId(0)));
        let mut current = db;
        // A chain of writes; after each, the folded stats must equal a full
        // rescan of the successor.
        let batches = vec![
            vec![DataWrite::Insert {
                class: cargo,
                tuple: vec![Value::Int(300), Value::str("frozen food"), Value::Int(12)],
                links: links.to_vec(),
            }],
            vec![DataWrite::Update {
                class: cargo,
                object: ObjectId(0),
                attr: catalog.attr_ref("cargo", "quantity").unwrap().attr,
                value: Value::Int(99),
            }],
            vec![DataWrite::Delete { class: cargo, object: ObjectId(0) }],
        ];
        for batch in batches {
            let (next, _) = current.with_writes(&batch, None).unwrap();
            assert_eq!(next.stats(), &next.rebuild_statistics());
            current = next;
        }
    }

    #[test]
    fn constraint_checking_respects_links() {
        let (catalog, db) = mini_db();
        // "Flatbeds only carry fresh fruit" — true because of the link shape.
        let c = sqo_constraints::ConstraintBuilder::new(&catalog, "flatbed")
            .when("vehicle.desc", CompOp::Eq, "flatbed")
            .via("collects")
            .then("cargo.desc", CompOp::Eq, "fresh fruit")
            .build()
            .unwrap();
        assert!(db.check_constraint(&c).is_empty());
        // "Flatbeds only carry frozen food" — violated by the fresh-fruit link.
        let c2 = sqo_constraints::ConstraintBuilder::new(&catalog, "flatbed2")
            .when("vehicle.desc", CompOp::Eq, "flatbed")
            .via("collects")
            .then("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        assert_eq!(db.check_constraint(&c2).len(), 1);
    }
}
