//! A `.sqos` file is untrusted input: whatever bytes a section holds,
//! [`QueryService::from_snapshot_bytes`] answers with a service or a typed
//! [`LoadError`], and never unwinds. What it admits, it serves: a service
//! loaded from a damaged file answers the base snapshot's queries and
//! takes a write with responses or typed errors, never by unwinding.
//! Every file that loads after damage to CONSTRAINTS holds only
//! constraints `HornConstraint::new` rebuilds equal.
//! Damage to the QUERIES section never changes an answer: whatever queries
//! it decodes to are derived afresh at boot (so the optimizer and planner
//! run on them here, under `catch_unwind`), and every base query answers
//! exactly what the undamaged service answers. Nor does damage to the index
//! postings that keeps every id in range (an id moved to another key, two
//! ids swapped between keys, an id dropped): such a file is refused, or
//! loads and answers exactly. Damage to the link lists that keeps every id
//! in range (a link moved to another object, dropped, repeated or pointed
//! elsewhere) is refused as `Malformed(LINKS)`, or loads a database that
//! satisfies every total-participation and to-one declaration of its
//! catalog, as every built database does.
//!
//! Each case takes a served paper snapshot, damages one section's payload
//! (flipped bytes, a truncation, or `u32`s written over or spliced into
//! it) and rebuilds the container with [`SnapshotBuilder`], so the
//! checksums match and the damage reaches the section decoders. Cases run
//! under `catch_unwind`; in a debug build an integer overflow is a panic
//! too. The proptest shim does not shrink, so a failure prints the damage,
//! which with the fixed base snapshot reproduces the input.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sqo_constraints::HornConstraint;
use sqo_exec::ResultSet;
use sqo_query::Query;
use sqo_service::{QueryService, ServiceConfig};
use sqo_snapshot::{
    section_name, ByteReader, ByteWriter, LoadError, SnapshotBuilder, SnapshotFile,
    ValidationLevel, SEC_CONSTRAINTS, SEC_INDEXES, SEC_LINKS, SEC_QUERIES,
};
use sqo_storage::{DataWrite, Database};
use sqo_workload::{copyable_rels, dup_insert, dup_safe_classes, paper_scenario, DbSize};

#[path = "common/stored_indexes.rs"]
mod stored_indexes;
use stored_indexes::{read_indexes, write_indexes, Entries};

/// The paper's DB1 with its first 8 queries served, so every section (the
/// cache's queries included) has content; those queries, and one duplicate
/// insert, are what a service loaded from a damaged copy is asked to serve.
struct Base {
    bytes: Vec<u8>,
    catalog: Arc<sqo_catalog::Catalog>,
    /// The served database, for the cardinalities that frame LINKS.
    db: Arc<Database>,
    queries: Vec<Query>,
    /// What the undamaged service answers for each query.
    answers: Vec<Arc<ResultSet>>,
    write: DataWrite,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let s = paper_scenario(DbSize::Db1, 7);
        let class = dup_safe_classes(&s.catalog)[0];
        let write = dup_insert(&s.db, class, 0, &copyable_rels(&s.catalog, class));
        let catalog = Arc::clone(&s.catalog);
        let service = QueryService::new(Arc::new(s.store), Arc::new(s.db));
        let queries: Vec<Query> = s.queries.into_iter().take(8).collect();
        let answers = queries.iter().map(|q| service.run(q).expect("cold run").results).collect();
        let (bytes, db) = (service.snapshot_bytes(), service.db());
        Base { bytes, catalog, db, queries, answers, write }
    })
}

/// How one section is damaged; `at` is reduced modulo the payload length.
#[derive(Debug, Clone)]
enum Damage {
    /// XOR each byte at `at` with `mask` (never zero).
    Flip(Vec<(usize, u8)>),
    Truncate(usize),
    /// Write each `u32` over the four bytes at `at`.
    Overwrite(Vec<(usize, u32)>),
    /// Insert each `u32` at `at`.
    Splice(Vec<(usize, u32)>),
}

/// Counts and ids a decoder treats specially, or any `u32`.
fn word() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1),
        Just(u32::MAX),
        Just(u32::MAX / 2 + 1),
        0u32..64,
        0u32..=u32::MAX,
    ]
}

fn damage() -> impl Strategy<Value = Damage> {
    let at = || 0usize..1 << 20;
    prop_oneof![
        prop::collection::vec((at(), 1u8..=255), 1..6).prop_map(Damage::Flip),
        at().prop_map(Damage::Truncate),
        prop::collection::vec((at(), word()), 1..4).prop_map(Damage::Overwrite),
        prop::collection::vec((at(), word()), 1..4).prop_map(Damage::Splice),
    ]
}

fn apply(payload: &mut Vec<u8>, damage: &Damage) {
    let len = payload.len();
    match damage {
        Damage::Flip(flips) => {
            for &(at, mask) in flips.iter().filter(|_| len > 0) {
                payload[at % len] ^= mask;
            }
        }
        Damage::Truncate(at) => payload.truncate(at % (len + 1)),
        Damage::Overwrite(words) => {
            for &(at, w) in words {
                let at = at % (payload.len() + 1);
                let end = (at + 4).min(payload.len());
                payload.splice(at..end, w.to_le_bytes());
            }
        }
        Damage::Splice(words) => {
            for &(at, w) in words {
                let at = at % (payload.len() + 1);
                payload.splice(at..at, w.to_le_bytes());
            }
        }
    }
}

/// The base snapshot with section `target` damaged, re-assembled with
/// valid checksums.
fn damaged(target: u32, damage: &Damage) -> Vec<u8> {
    edited(target, |payload| apply(payload, damage))
}

/// The base snapshot with section `target`'s payload edited by `edit`,
/// re-assembled with valid checksums.
fn edited(target: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let file = SnapshotFile::parse(&base().bytes).expect("the base snapshot parses");
    let mut b = SnapshotBuilder::new();
    let mut edit = Some(edit);
    for (id, payload) in file.sections() {
        let mut payload = payload.to_vec();
        if let Some(edit) = edit.take_if(|_| id == target) {
            edit(&mut payload);
        }
        b.section(id, payload);
    }
    b.finish()
}

/// Damage aimed at the posting ids of one stored index, each id staying
/// below its class's cardinality; ids are named by their rank in the
/// index's key-then-posting order, keys by their rank, both reduced modulo
/// their count. Every edited posting is sorted again, so the damage gets
/// past the order checks.
#[derive(Debug, Clone)]
enum Aimed {
    /// Moves one id to another key's posting.
    Move { id: usize, key: usize },
    /// Swaps two ids between their postings.
    Swap(usize, usize),
    /// Drops one id.
    Drop(usize),
}

fn aimed() -> impl Strategy<Value = Aimed> {
    let rank = || 0usize..1 << 20;
    prop_oneof![
        (rank(), rank()).prop_map(|(id, key)| Aimed::Move { id, key }),
        (rank(), rank()).prop_map(|(a, b)| Aimed::Swap(a, b)),
        rank().prop_map(Aimed::Drop),
    ]
}

/// Applies `aimed` to one index's entries. A posting left empty drops its
/// key, as a writer's would.
fn apply_aimed(entries: &mut Entries, aimed: &Aimed) {
    let ids: Vec<(usize, usize)> = entries
        .iter()
        .enumerate()
        .flat_map(|(k, (_, posting))| (0..posting.len()).map(move |i| (k, i)))
        .collect();
    let at = |rank: usize| ids[rank % ids.len()];
    match *aimed {
        Aimed::Move { id, key } => {
            let ((k, i), to) = (at(id), key % entries.len());
            let o = entries[k].1.remove(i);
            entries[to].1.push(o);
        }
        Aimed::Swap(a, b) => {
            let ((ka, ia), (kb, ib)) = (at(a), at(b));
            let (oa, ob) = (entries[ka].1[ia], entries[kb].1[ib]);
            entries[ka].1[ia] = ob;
            entries[kb].1[ib] = oa;
        }
        Aimed::Drop(id) => {
            let (k, i) = at(id);
            entries[k].1.remove(i);
        }
    }
    for (_, posting) in entries.iter_mut() {
        posting.sort_unstable();
    }
    entries.retain(|(_, posting)| !posting.is_empty());
}

/// A LINKS payload (`docs/FORMAT.md` §3.3) read into each relationship's
/// left lists, in catalog order, framed by `db`'s cardinalities.
fn read_links(payload: &[u8], db: &Database) -> Vec<Vec<Vec<u32>>> {
    let mut r = ByteReader::new(payload, "LINKS");
    let mut links = Vec::new();
    for (_, def) in db.catalog().relationships() {
        let lists: Vec<Vec<u32>> = (0..db.cardinality(def.left.class))
            .map(|_| (0..r.u32().unwrap()).map(|_| r.u32().unwrap()).collect())
            .collect();
        links.push(lists);
    }
    r.expect_exhausted().unwrap();
    links
}

/// The LINKS payload of `links`, as [`read_links`] reads it.
fn write_links(links: &[Vec<Vec<u32>>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for list in links.iter().flatten() {
        w.u32(list.len() as u32);
        list.iter().for_each(|&o| w.u32(o));
    }
    w.finish()
}

/// Damage aimed at one relationship's left lists, every id staying below
/// its right end's cardinality. Links are named by their rank in
/// left-then-list order, objects by their id, both reduced modulo their
/// count.
#[derive(Debug, Clone)]
enum LinkDamage {
    /// Moves one link to another left object's list.
    Move { link: usize, to: usize },
    /// Drops one link.
    Drop(usize),
    /// Repeats one link in its list.
    Repeat(usize),
    /// Points one link at another right object.
    Retarget { link: usize, to: usize },
}

fn link_damage() -> impl Strategy<Value = LinkDamage> {
    let rank = || 0usize..1 << 20;
    prop_oneof![
        (rank(), rank()).prop_map(|(link, to)| LinkDamage::Move { link, to }),
        rank().prop_map(LinkDamage::Drop),
        rank().prop_map(LinkDamage::Repeat),
        (rank(), rank()).prop_map(|(link, to)| LinkDamage::Retarget { link, to }),
    ]
}

/// Applies `damage` to one relationship's left lists (`right` objects on
/// its right end); a relationship without links is left as it is.
fn apply_link_damage(lists: &mut [Vec<u32>], right: usize, damage: &LinkDamage) {
    let links: Vec<(usize, usize)> = lists
        .iter()
        .enumerate()
        .flat_map(|(l, list)| (0..list.len()).map(move |i| (l, i)))
        .collect();
    if links.is_empty() {
        return;
    }
    let at = |rank: usize| links[rank % links.len()];
    match *damage {
        LinkDamage::Move { link, to } => {
            let (l, i) = at(link);
            let o = lists[l].remove(i);
            lists[to % lists.len()].push(o);
        }
        LinkDamage::Drop(link) => {
            let (l, i) = at(link);
            lists[l].remove(i);
        }
        LinkDamage::Repeat(link) => {
            let (l, i) = at(link);
            lists[l].push(lists[l][i]);
        }
        LinkDamage::Retarget { link, to } => {
            let (l, i) = at(link);
            lists[l][i] = (to % right) as u32;
        }
    }
}

/// Loads `bytes` and has a service it loads answer the base queries and
/// the write; fails the test if anything unwinds. With `exact`, every base
/// query must answer what the undamaged service answers.
fn load_is_total(
    bytes: &[u8],
    exact: bool,
    what: &dyn Fn() -> String,
) -> Result<QueryService, LoadError> {
    let loaded = catch_unwind(|| {
        QueryService::from_snapshot_bytes(
            bytes,
            ValidationLevel::Standard,
            ServiceConfig::default(),
        )
    })
    .unwrap_or_else(|_| panic!("loading unwound on {}", what()));
    if let Ok(service) = &loaded {
        let base = base();
        catch_unwind(AssertUnwindSafe(|| {
            for (q, want) in base.queries.iter().zip(&base.answers) {
                let answer = service.run(q);
                if exact {
                    let got = answer.unwrap_or_else(|e| panic!("{e} on {}", what()));
                    assert!(got.results.same_multiset(want), "answer changed on {}", what());
                }
            }
            let _ = service.write(std::slice::from_ref(&base.write));
        }))
        .unwrap_or_else(|_| {
            panic!("serving a loaded file unwound or answered wrong on {}", what())
        });
    }
    loaded
}

/// The undamaged base snapshot loads and serves. (The name is older than the
/// single load level, Standard, at which it loads.)
#[test]
fn the_base_snapshot_loads_at_every_level() {
    let loaded = load_is_total(&base().bytes, true, &|| "the base snapshot".to_string());
    assert_eq!(loaded.map(drop), Ok(()));
}

proptest! {
    #[test]
    fn a_damaged_section_is_a_typed_error_or_a_service(pick in 0usize..64, damage in damage()) {
        let file = SnapshotFile::parse(&base().bytes).expect("the base snapshot parses");
        let ids: Vec<u32> = file.sections().map(|(id, _)| id).collect();
        let section = ids[pick % ids.len()];
        let what = || format!("{} damaged by {damage:?}", section_name(section));
        let _ = load_is_total(&damaged(section, &damage), section == SEC_QUERIES, &what);
    }

    /// Most damage to QUERIES is refused; this aims every case there, so
    /// the exact-answer check runs on the files that still load.
    #[test]
    fn damage_to_the_queries_never_changes_an_answer(damage in damage()) {
        let what = || format!("QUERIES damaged by {damage:?}");
        let _ = load_is_total(&damaged(SEC_QUERIES, &damage), true, &what);
    }

    /// A load rebuilds every stated constraint with `HornConstraint::new`,
    /// so whatever damage to CONSTRAINTS gets through, the loaded store
    /// holds only constraints `new` rebuilds equal (and serves, checked by
    /// `load_is_total`). Answers may change: a constraint is trusted, not
    /// checked against the data.
    #[test]
    fn damaged_constraints_that_load_are_ones_new_builds(damage in damage()) {
        let what = || format!("CONSTRAINTS damaged by {damage:?}");
        if let Ok(service) = load_is_total(&damaged(SEC_CONSTRAINTS, &damage), false, &what) {
            let store = service.store();
            for (_, c) in store.constraints() {
                let rebuilt = HornConstraint::new(
                    store.catalog(),
                    c.name.clone(),
                    c.antecedents.clone(),
                    c.relationships.clone(),
                    c.consequent.clone(),
                    c.classes.clone(),
                );
                prop_assert_eq!(rebuilt, Ok(c.clone()), "on {}", what());
            }
        }
    }

    /// A load checks every posting id's object against its key and each
    /// index's postings against its class's cardinality, so damage that
    /// keeps the ids in range is refused, or changes nothing an answer
    /// reads (a move within one key, a swap of an id with itself).
    #[test]
    fn aimed_damage_to_posting_ids_never_changes_an_answer(
        pick in 0usize..64,
        aimed in aimed(),
    ) {
        let file = SnapshotFile::parse(&base().bytes).expect("the base snapshot parses");
        let payload = file.section(SEC_INDEXES).expect("INDEXES");
        let mut indexes = read_indexes(payload, &base().catalog);
        let at = pick % indexes.len();
        apply_aimed(&mut indexes[at].1, &aimed);
        let bytes = edited(SEC_INDEXES, |payload| *payload = write_indexes(&indexes));
        let attr = indexes[at].0;
        let what = || format!("index {attr:?} damaged by {aimed:?}");
        if let Err(e) = load_is_total(&bytes, true, &what) {
            assert!(matches!(e, LoadError::Malformed { section: "INDEXES", .. }), "{e:?} on {}", what());
        }
    }

    /// A load holds every relationship's links to its catalog's
    /// declarations, so in-range damage to the link lists is refused, or
    /// loads a database the full check (a from-scratch rebuild,
    /// `with_writes_full`) accepts; it serves the base queries and a write
    /// (checked by `load_is_total`). Answers may change: a retargeted link
    /// the declarations allow is data, not damage the load can see.
    #[test]
    fn aimed_damage_to_links_loads_only_declared_shapes(
        pick in 0usize..64,
        damage in link_damage(),
    ) {
        let base = base();
        let file = SnapshotFile::parse(&base.bytes).expect("the base snapshot parses");
        let mut links = read_links(file.section(SEC_LINKS).expect("LINKS"), &base.db);
        let rel = pick % links.len();
        let def = base.catalog.relationship(sqo_catalog::RelId(rel as u32)).unwrap();
        apply_link_damage(&mut links[rel], base.db.cardinality(def.right.class), &damage);
        let bytes = edited(SEC_LINKS, |payload| *payload = write_links(&links));
        let what = || format!("relationship {} damaged by {damage:?}", def.name);
        match load_is_total(&bytes, false, &what) {
            Ok(service) => {
                let full = service.db().with_writes_full(&[]);
                prop_assert!(full.is_ok(), "{:?} on {}", full.err(), what());
            }
            Err(e) => {
                let links = matches!(e, LoadError::Malformed { section: "LINKS", .. });
                prop_assert!(links, "{:?} on {}", e, what());
            }
        }
    }
}
