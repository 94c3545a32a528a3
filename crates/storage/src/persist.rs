//! Database snapshot persistence: encoding a [`Database`] into `.sqos`
//! sections and loading one back, checked as it decodes.
//!
//! Five sections carry the database state (`docs/FORMAT.md` §3):
//! CATALOG (schema definitions), EXTENTS (tuples + data epoch), LINKS
//! (each relationship's left lists; a load derives the right side), INDEXES
//! (ascending-oid postings of the declared indexes) and STATS (attribute
//! statistics). Each section states only what no other part of the file
//! fixes: counts the catalog or the EXTENTS preamble gives are not
//! repeated. Loading checks every fact the executor relies on
//! once, where the fact is decoded ([`ValidationLevel::Standard`];
//! `docs/VALIDATION.md` lists the checks), and fails with a clean
//! [`LoadError`] rather than ever constructing a corrupt snapshot.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use sqo_catalog::{Catalog, ClassDef, ClassStats, DataType, Finite, RelationshipDef, Value};
use sqo_snapshot::{
    read_catalog, read_stats, read_value_raw, section_name, write_catalog, write_snapshot_file,
    write_stats, write_value_raw, ByteReader, ByteWriter, LoadError, SnapshotBuilder, SnapshotFile,
    StrPool, ValidationLevel, SEC_CATALOG, SEC_EXTENTS, SEC_INDEXES, SEC_LINKS, SEC_STATS,
};

use crate::db::{types, Database};
use crate::extent::{ColumnVec, Columns, Extent, GrowingColumn};
use crate::index::{AttrIndex, Posting};
use crate::links::RelLinks;
use crate::object::ObjectId;
use crate::valuemap::{OrdValue, ValueMap};

// ---- encoding -------------------------------------------------------------

/// Encodes the EXTENTS payload: the data epoch and every class cardinality,
/// in catalog order, up front (the *preamble*), then the string dictionary,
/// then each
/// class's tuples in object-id order. The preamble exists so a loader can
/// learn every cardinality — which the LINKS, INDEXES and STATS decoders
/// validate against — without parsing a single tuple, unlocking
/// section-parallel decoding.
///
/// Tuple values are written *untagged*: arity and per-attribute type are
/// both implied by the catalog, so each value is payload bytes only.
/// String values are a `u32` index into the dictionary (first-appearance
/// order), so each distinct string is stored — and, on load, allocated —
/// exactly once no matter how often the extents repeat it. An object of a
/// class without attributes is one zero byte ([`row_width`]). The tuples
/// are row-major, so both passes read each extent's typed columns a row at
/// a time.
fn encode_extents(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(db.data_version());
    for extent in db.extent_shards() {
        w.u32(extent.len() as u32);
    }
    let mut dict: HashMap<&str, u32> = HashMap::new();
    let mut dict_order: Vec<&str> = Vec::new();
    for extent in db.extent_shards() {
        let strings: Vec<_> = extent
            .columns()
            .iter()
            .filter_map(|c| match c {
                ColumnVec::Str(strings) => Some(strings),
                _ => None,
            })
            .collect();
        for oid in 0..extent.len() {
            for s in strings.iter().filter_map(|strings| strings.get(oid)) {
                dict.entry(s.as_ref()).or_insert_with(|| {
                    dict_order.push(s.as_ref());
                    dict_order.len() as u32 - 1
                });
            }
        }
    }
    w.u32(dict_order.len() as u32);
    for s in &dict_order {
        w.str(s);
    }
    for extent in db.extent_shards() {
        for oid in 0..extent.len() {
            for column in extent.columns() {
                match column {
                    ColumnVec::Int(c) => c.get(oid).into_iter().for_each(|&x| w.i64(x)),
                    ColumnVec::Float(c) => c.get(oid).into_iter().for_each(|x| w.f64(x.get())),
                    ColumnVec::Str(c) => c.get(oid).into_iter().for_each(|s| w.u32(dict[&**s])),
                    ColumnVec::Bool(c) => c.get(oid).into_iter().for_each(|&b| w.u8(u8::from(b))),
                }
            }
            if extent.columns().is_empty() {
                w.u8(0);
            }
        }
    }
    w.finish()
}

/// Encodes the LINKS payload: per relationship, in catalog order, each
/// left object's list of right-object ids in canonical order. The lists'
/// number is the left end's cardinality; a load derives the right side.
fn encode_links(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for lk in db.link_shards() {
        for o in 0..lk.left_cardinality() as u32 {
            let list = lk.from_left(ObjectId(o));
            w.u32(list.len() as u32);
            for n in list {
                w.u32(n.0);
            }
        }
    }
    w.finish()
}

/// Encodes the INDEXES payload: the entries of every index the catalog
/// declares, class by class and attribute by attribute. Keys are untagged:
/// the catalog declares the attribute's type. Either kind's entries
/// iterate in [`OrdValue`] key order, so the encoding is a pure function of
/// the logical index content.
fn encode_indexes(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for ix in db.index_shards().iter().flatten().flatten() {
        w.u32(ix.postings.len() as u32);
        for (value, posting) in ix.postings.iter() {
            write_value_raw(&mut w, value);
            w.u32(posting.len() as u32);
            for o in posting.iter() {
                w.u32(o.0);
            }
        }
    }
    w.finish()
}

/// The five database sections, ready for a [`SnapshotBuilder`]. Callers
/// that persist more than the database (e.g. the serving layer) append
/// their own sections before finishing the container.
pub fn database_sections(db: &Database) -> Vec<(u32, Vec<u8>)> {
    let mut catalog = ByteWriter::new();
    write_catalog(&mut catalog, db.catalog());
    let mut stats = ByteWriter::new();
    write_stats(&mut stats, db.stats());
    vec![
        (SEC_CATALOG, catalog.finish()),
        (SEC_EXTENTS, encode_extents(db)),
        (SEC_LINKS, encode_links(db)),
        (SEC_INDEXES, encode_indexes(db)),
        (SEC_STATS, stats.finish()),
    ]
}

/// Encodes `db` into a complete `.sqos` byte image (database sections
/// only).
pub fn encode_database(db: &Database) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    for (id, payload) in database_sections(db) {
        b.section(id, payload);
    }
    b.finish()
}

/// Writes `db` to `path` as a `.sqos` file, crash-safely
/// ([`write_snapshot_file`]): `path` holds what it held before or the
/// complete new snapshot, never a part of one.
///
/// # Errors
/// [`LoadError::Io`] when the file cannot be written; `path` is untouched.
pub fn save_database(db: &Database, path: impl AsRef<Path>) -> Result<(), LoadError> {
    write_snapshot_file(path.as_ref(), &encode_database(db))
}

// ---- decoding -------------------------------------------------------------

fn malformed(section: u32, detail: impl Into<String>) -> LoadError {
    LoadError::Malformed { section: section_name(section), detail: detail.into() }
}

fn decode_catalog(file: &SnapshotFile<'_>) -> Result<Arc<Catalog>, LoadError> {
    let mut r = file.require(SEC_CATALOG)?;
    let (classes, relationships) = read_catalog(&mut r)?;
    r.expect_exhausted()?;
    let catalog = Catalog::from_parts(classes, relationships)
        .map_err(|e| malformed(SEC_CATALOG, format!("catalog rejected: {e:?}")))?;
    Ok(Arc::new(catalog))
}

/// Reads the EXTENTS preamble — data epoch (below
/// [`sqo_snapshot::EPOCH_LIMIT`]) and each catalog class's cardinality —
/// leaving `r` positioned at the dictionary. The cardinalities are what
/// every other database section is framed by, so reading them first lets
/// LINKS/INDEXES/STATS decode in parallel with the tuples.
fn read_extent_preamble(
    r: &mut ByteReader<'_>,
    catalog: &Catalog,
) -> Result<(u64, Vec<usize>), LoadError> {
    let data_version = r.epoch()?;
    let cards = (0..catalog.class_count()).map(|_| r.u32().map(|n| n as usize));
    Ok((data_version, cards.collect::<Result<_, _>>()?))
}

/// Decodes the string dictionary that follows the EXTENTS preamble: each
/// distinct string of the extents, allocated once, and a pool that holds
/// those allocations for the index keys to intern through. A string listed
/// twice is refused: its two allocations would make one attribute hold equal
/// strings at two addresses, and the executor compares a string column's
/// elements by address once one has matched (`sqo_exec`'s *strings by
/// identity*).
fn decode_dictionary(r: &mut ByteReader<'_>) -> Result<(Vec<Arc<str>>, StrPool), LoadError> {
    let dict_count = r.count()?;
    // Pre-allocations bounded by the bytes actually present, at least a
    // 4-byte length per string: a hostile count cannot drive a huge
    // reservation.
    let capacity = dict_count.min(r.remaining() / 4);
    let mut dict: Vec<Arc<str>> = Vec::with_capacity(capacity);
    let mut pool = StrPool::with_capacity(capacity);
    for at in 0..dict_count {
        let s: Arc<str> = Arc::from(r.str_ref()?);
        if !pool.insert(Arc::clone(&s)) {
            let first = dict.iter().position(|d| *d == s).unwrap_or(at);
            let detail = format!("dictionary entries {first} and {at} are both {s:?}");
            return Err(malformed(SEC_EXTENTS, detail));
        }
        dict.push(s);
    }
    Ok((dict, pool))
}

/// Decodes the tuples that follow the EXTENTS dictionary into each class's
/// columns, an element at a time. Values are untagged — each is read as the
/// type the catalog declares for its attribute, straight into the column of
/// that type, so extent tuples type-check by construction — and string
/// values are indexes into `dict`, so repeats cost one `Arc` clone rather
/// than an allocation.
fn decode_extent_tuples(
    r: &mut ByteReader<'_>,
    catalog: &Catalog,
    cards: &[usize],
    dict: &[Arc<str>],
) -> Result<Vec<Extent>, LoadError> {
    let mut extents = Vec::with_capacity(cards.len());
    for (cid, cdef) in catalog.classes() {
        let cardinality = cards[cid.index()];
        let before = r.remaining();
        let mut columns = Columns::new(types(cdef), cardinality);
        for _ in 0..cardinality {
            columns.push_with(|column| {
                match column {
                    GrowingColumn::Int(c) => c.push(r.i64()?),
                    GrowingColumn::Float(c) => {
                        let f = r.f64()?;
                        c.push(Finite::new(f).ok_or_else(|| r.malformed("NaN float value"))?);
                    }
                    GrowingColumn::Str(c) => {
                        let ix = r.u32()? as usize;
                        let s = dict.get(ix).ok_or_else(|| {
                            let detail = format!(
                                "string index {ix} beyond the {}-entry dictionary",
                                dict.len()
                            );
                            malformed(SEC_EXTENTS, detail)
                        })?;
                        c.push(Arc::clone(s));
                    }
                    GrowingColumn::Bool(c) => match r.u8()? {
                        0 => c.push(false),
                        1 => c.push(true),
                        b => return Err(r.malformed(format!("bool byte {b} is neither 0 nor 1"))),
                    },
                }
                Ok(())
            })?;
            if cdef.attributes.is_empty() && r.u8()? != 0 {
                return Err(r.malformed("an attribute-less object's byte is not 0"));
            }
        }
        debug_assert_eq!(before - r.remaining(), cardinality * row_width(cdef), "EXTENTS rows");
        extents.push(columns.finish());
    }
    Ok(extents)
}

/// The bytes one EXTENTS row of class `cdef` takes: its values' widths
/// ([`encoded_width`]), or one zero byte for a class without attributes.
/// Every object thus costs at least a byte of tuples, and
/// [`check_tuple_bytes`] holds the preamble's cardinalities to them.
fn row_width(cdef: &ClassDef) -> usize {
    cdef.attributes.iter().map(|a| encoded_width(a.ty)).sum::<usize>().max(1)
}

/// Refuses a preamble whose cardinalities call for other than exactly the
/// `tuples` bytes the section holds. Run before any decoder starts, so no
/// cardinality the file's bytes do not back frames an allocation: the
/// right side a load derives for each relationship is as long as the
/// preamble says its right end is.
fn check_tuple_bytes(catalog: &Catalog, cards: &[usize], tuples: &[u8]) -> Result<(), LoadError> {
    let rows = catalog.classes().zip(cards);
    let needed =
        rows.fold(0usize, |n, ((_, c), &k)| n.saturating_add(k.saturating_mul(row_width(c))));
    if needed == tuples.len() {
        Ok(())
    } else {
        let detail = format!(
            "the preamble calls for {needed} tuple bytes, the section holds {}",
            tuples.len()
        );
        Err(malformed(SEC_EXTENTS, detail))
    }
}

/// The bytes one EXTENTS tuple value of type `ty` takes. Values are
/// untagged and a string is its `u32` dictionary index, so a class's tuples
/// are fixed-width rows ([`row_width`]), in object-id order, one class after
/// another. `decode_indexes` locates values by these widths; they must match
/// what `encode_extents` writes and `decode_extent_tuples` reads, and the
/// latter asserts so in debug builds.
fn encoded_width(ty: DataType) -> usize {
    match ty {
        DataType::Int | DataType::Float => 8,
        DataType::Str => 4,
        DataType::Bool => 1,
    }
}

/// Whether the tuple value `encoded` equals `key`; a string index past
/// `dict` equals nothing (the EXTENTS decoder refuses it). A key interned
/// through the pool that holds `dict` is the dictionary's allocation:
/// strings compare by pointer first.
fn encoded_equals(encoded: &[u8], dict: &[Arc<str>], key: &Value) -> bool {
    match key {
        Value::Int(k) => *encoded == k.to_le_bytes(),
        Value::Float(k) => encoded.try_into().is_ok_and(|b| f64::from_le_bytes(b) == k.get()),
        Value::Str(k) => encoded
            .try_into()
            .ok()
            .and_then(|b| dict.get(u32::from_le_bytes(b) as usize))
            .is_some_and(|s| Arc::ptr_eq(s, k) || s == k),
        Value::Bool(k) => *encoded == [u8::from(*k)],
    }
}

/// Decodes the left adjacency lists of relationship `def`: `cardinality`
/// lists of right-object ids, each below `right_cardinality`, flat — list
/// `o` is `targets[offsets[o]..offsets[o + 1]]`. Every list costs at least
/// its 4-byte count, so the bytes left bound the reservation whatever
/// cardinality the file claims.
fn decode_left_lists(
    r: &mut ByteReader<'_>,
    def: &RelationshipDef,
    cardinality: usize,
    right_cardinality: usize,
) -> Result<(Vec<usize>, Vec<ObjectId>), LoadError> {
    let mut offsets = Vec::with_capacity(cardinality.min(r.remaining() / 4) + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for o in 0..cardinality {
        let n = r.count()?;
        for _ in 0..n {
            let id = r.u32()?;
            if id as usize >= right_cardinality {
                return Err(LoadError::DanglingReference {
                    section: section_name(SEC_LINKS),
                    detail: format!(
                        "relationship {}: left object {o} links right object {id} of \
                         {right_cardinality}",
                        def.name
                    ),
                });
            }
            targets.push(ObjectId(id));
        }
        offsets.push(targets.len());
    }
    Ok((offsets, targets))
}

/// Decodes the LINKS section: per relationship, as many left lists as the
/// preamble gives its left end objects, from which
/// [`RelLinks::from_left_lists`] derives the right side. Each table must
/// satisfy the catalog's total-participation and to-one declarations, as
/// every built database does.
fn decode_links(
    file: &SnapshotFile<'_>,
    catalog: &Catalog,
    cards: &[usize],
) -> Result<Vec<RelLinks>, LoadError> {
    let mut r = file.require(SEC_LINKS)?;
    let mut links = Vec::with_capacity(catalog.relationship_count());
    for (rel, def) in catalog.relationships() {
        let right_card = cards[def.right.class.index()];
        let (offsets, targets) =
            decode_left_lists(&mut r, def, cards[def.left.class.index()], right_card)?;
        let table = RelLinks::from_left_lists(&offsets, &targets, right_card);
        table.check(rel, def, None).map_err(|e| malformed(SEC_LINKS, e.to_string()))?;
        links.push(table);
    }
    r.expect_exhausted()?;
    Ok(links)
}

/// Decodes the INDEXES section — the entries of each index the catalog
/// declares, in catalog order — and checks each index against the EXTENTS
/// `tuples` (still encoded) it indexes: every posting id is in range,
/// postings and keys ascend strictly, each posting id's object holds the
/// key, and an attribute's postings sum to its class's cardinality. So no
/// id sits under two keys and every object sits under one: the index is
/// exactly its extent's grouping. Keys are read as the attribute's
/// declared type, so a key of another type cannot be stated. String keys
/// intern through `pool`, which holds `dict`, so an index key equal to an
/// extent string is that string's allocation, as a cold load's is.
fn decode_indexes(
    file: &SnapshotFile<'_>,
    catalog: &Catalog,
    cards: &[usize],
    tuples: &[u8],
    dict: &[Arc<str>],
    mut pool: StrPool,
) -> Result<Vec<Vec<Option<AttrIndex>>>, LoadError> {
    let mut r = file.require(SEC_INDEXES)?;
    let mut banks = Vec::with_capacity(catalog.class_count());
    // One posting's ids as they are checked, reused: each posting is then
    // one allocation of its length.
    let mut posting: Vec<ObjectId> = Vec::new();
    let mut class_base = 0usize;
    for (cid, cdef) in catalog.classes() {
        let cardinality = cards[cid.index()];
        let row_width = row_width(cdef);
        let mut attr_base = class_base;
        let mut bank: Vec<Option<AttrIndex>> = Vec::with_capacity(cdef.attributes.len());
        for adef in &cdef.attributes {
            let here = |detail: &str| format!("class {} attr {}: {detail}", cdef.name, adef.name);
            let (base, width) = (attr_base, encoded_width(adef.ty));
            attr_base = attr_base.saturating_add(width);
            let Some(kind) = adef.index else {
                bank.push(None);
                continue;
            };
            let entry_count = r.count()?;
            let mut entries: Vec<(Value, Posting)> =
                Vec::with_capacity(entry_count.min(r.remaining() / 4));
            let mut covered = 0usize;
            for _ in 0..entry_count {
                let value = read_value_raw(&mut r, adef.ty, &mut pool)?;
                let posting_count = r.count()?;
                posting.clear();
                posting.reserve(posting_count.min(1024));
                for _ in 0..posting_count {
                    let o = r.u32()?;
                    if o as usize >= cardinality {
                        return Err(LoadError::DanglingReference {
                            section: section_name(SEC_INDEXES),
                            detail: here(&format!("posting names object {o} of {cardinality}")),
                        });
                    }
                    if let Some(p) = posting.last().filter(|p| o <= p.0) {
                        return Err(LoadError::UnsortedPosting {
                            section: section_name(SEC_INDEXES),
                            detail: here(&format!("posting goes {} then {o}", p.0)),
                        });
                    }
                    let at = base.saturating_add((o as usize).saturating_mul(row_width));
                    let encoded = tuples.get(at..at.saturating_add(width));
                    if !encoded.is_some_and(|e| encoded_equals(e, dict, &value)) {
                        let detail = format!("object {o} is filed under a key it does not hold");
                        return Err(malformed(SEC_INDEXES, here(&detail)));
                    }
                    posting.push(ObjectId(o));
                }
                if posting.is_empty() {
                    let detail = here("empty posting (keys drop with their last entry)");
                    return Err(malformed(SEC_INDEXES, detail));
                }
                if entries.last().is_some_and(|(prev, _)| OrdValue::order(&value, prev).is_le()) {
                    return Err(LoadError::UnsortedPosting {
                        section: section_name(SEC_INDEXES),
                        detail: here("index keys out of ascending order"),
                    });
                }
                covered += posting.len();
                entries.push((value, Posting::from(&posting[..])));
            }
            if covered != cardinality {
                let detail = format!("postings hold {covered} of {cardinality} objects");
                return Err(malformed(SEC_INDEXES, here(&detail)));
            }
            bank.push(Some(AttrIndex { kind, postings: ValueMap::from_ascending(entries) }));
        }
        class_base = class_base.saturating_add(cardinality.saturating_mul(row_width));
        banks.push(bank);
    }
    r.expect_exhausted()?;
    Ok(banks)
}

fn decode_stats(
    file: &SnapshotFile<'_>,
    catalog: &Catalog,
    cards: &[usize],
) -> Result<Vec<ClassStats>, LoadError> {
    let mut r = file.require(SEC_STATS)?;
    let classes = read_stats(&mut r, catalog, cards)?;
    r.expect_exhausted()?;
    Ok(classes)
}

/// Decodes a database from an already-parsed snapshot container. Every
/// section decoder runs the checks of what it decodes, once, as it reads
/// it. Exposed so callers that bundle additional sections in the same file
/// (the serving layer) parse the container once.
///
/// The EXTENTS preamble (data epoch + per-class cardinalities) and the
/// string dictionary are read first, and the cardinalities held to the
/// tuple bytes that follow; every other database section is
/// framed and checked only by the catalog, those cardinalities and the
/// still-encoded tuples, so the link, index and statistics decoders run on
/// scoped threads while the calling thread decodes the tuples (whose
/// allocations stay in the caller's heap arena). A decoder that panics
/// fails the load as its section malformed. The relationship statistics
/// are derived from the decoded links once the threads join.
///
/// # Errors
/// Any [`LoadError`]; see `docs/VALIDATION.md` for which check raises what.
pub fn decode_database_from(
    file: &SnapshotFile<'_>,
    level: ValidationLevel,
) -> Result<Database, LoadError> {
    let ValidationLevel::Standard = level;
    let catalog = decode_catalog(file)?;
    let mut er = file.require(SEC_EXTENTS)?;
    let (data_version, cards) = read_extent_preamble(&mut er, &catalog)?;
    let (dict, pool) = decode_dictionary(&mut er)?;
    let tuples = er.rest();
    check_tuple_bytes(&catalog, &cards, tuples)?;
    let (extents, links, indexes, stats) = {
        let (catalog, cards, dict) = (&catalog, &cards, &dict);
        std::thread::scope(|s| {
            let links = s.spawn(move || decode_links(file, catalog, cards));
            let indexes = s.spawn(move || decode_indexes(file, catalog, cards, tuples, dict, pool));
            let stats = s.spawn(move || decode_stats(file, catalog, cards));
            let extents = catch_unwind(AssertUnwindSafe(|| {
                decode_extent_tuples(&mut er, catalog, cards, dict)
            }));
            Result::<_, LoadError>::Ok((
                extents.unwrap_or_else(|_| Err(panicked(SEC_EXTENTS)))?,
                joined(links, SEC_LINKS)?,
                joined(indexes, SEC_INDEXES)?,
                joined(stats, SEC_STATS)?,
            ))
        })?
    };
    Ok(Database::from_loaded_parts(catalog, extents, indexes, links, stats, data_version))
}

/// A decoder thread's result. A decoder that panicked reports its section
/// malformed rather than taking the loading thread down with it.
fn joined<T>(
    decoder: std::thread::ScopedJoinHandle<'_, Result<T, LoadError>>,
    section: u32,
) -> Result<T, LoadError> {
    decoder.join().unwrap_or_else(|_| Err(panicked(section)))
}

fn panicked(section: u32) -> LoadError {
    malformed(section, "its decoder panicked")
}

/// Parses `bytes` as a `.sqos` container and decodes the database at
/// `level`.
///
/// # Errors
/// Any [`LoadError`].
pub fn decode_database(bytes: &[u8], level: ValidationLevel) -> Result<Database, LoadError> {
    let file = SnapshotFile::parse(bytes)?;
    decode_database_from(&file, level)
}

/// Reads and decodes a `.sqos` file at `level`.
///
/// # Errors
/// [`LoadError::Io`] on filesystem failures, any other [`LoadError`] on a
/// bad file.
pub fn load_database(
    path: impl AsRef<Path>,
    level: ValidationLevel,
) -> Result<Database, LoadError> {
    let bytes = std::fs::read(path)?;
    decode_database(&bytes, level)
}
