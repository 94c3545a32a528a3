//! Table-driven corruption suite: every damaged snapshot must be rejected
//! with the [`LoadError`] variant that `docs/VALIDATION.md` documents for
//! the broken invariant. Damage a load does not check must still *load*:
//! statistics that drifted from the data (they move estimates, never
//! answers).
//!
//! The corrupt payloads are hand-encoded from the byte layouts in
//! `docs/FORMAT.md`, not produced by mutating encoder output blindly; a
//! companion test pins the hand encodings against the real encoder so the
//! fixtures cannot drift from the format they claim to corrupt.

use std::sync::Arc;

use sqo_catalog::{
    AttributeDef, Catalog, ClassId, DataType, IndexKind, Multiplicity, RelId, RelationshipEnd,
    Value,
};
use sqo_snapshot::{
    write_stats, ByteWriter, LoadError, SnapshotBuilder, ValidationLevel, SEC_CATALOG, SEC_EXTENTS,
    SEC_INDEXES, SEC_LINKS, SEC_STATS,
};
use sqo_storage::{
    database_sections, decode_database, encode_database, Database, IntegrityOptions, ObjectId,
};
use sqo_workload::{paper_scenario, DbSize};

/// A tiny database with exactly known bytes in every section:
///
/// - `c0` — 3 objects, attrs `k: Int` (hash-indexed) and `t: Str`:
///   `(5, "x")`, `(5, "y")`, `(7, "x")`. Hash index: `5 → [0, 1]`,
///   `7 → [2]`. String dictionary: `["x", "y"]`.
/// - `c1` — 2 objects, attr `v: Int`: `(10)`, `(20)`.
/// - `r0` — c0 ↔ c1 many-to-many with edges (0,0), (1,0), (1,1):
///   left adjacency `[[0], [0, 1], []]` (a load derives the right side,
///   `[[0, 1], [1]]`).
fn fixture() -> Database {
    let mut b = Catalog::builder();
    let c0 = b
        .class(
            "c0",
            vec![
                AttributeDef::indexed("k", DataType::Int, IndexKind::Hash),
                AttributeDef::new("t", DataType::Str),
            ],
        )
        .unwrap();
    let c1 = b.class("c1", vec![AttributeDef::new("v", DataType::Int)]).unwrap();
    b.relationship(
        "r0",
        RelationshipEnd::new(c0, Multiplicity::Many, false),
        RelationshipEnd::new(c1, Multiplicity::Many, false),
    )
    .unwrap();
    let catalog = Arc::new(b.build().unwrap());

    let mut db = Database::builder(catalog);
    for (k, t) in [(5, "x"), (5, "y"), (7, "x")] {
        db.insert(ClassId(0), vec![Value::Int(k), Value::str(t)]).unwrap();
    }
    for v in [10, 20] {
        db.insert(ClassId(1), vec![Value::Int(v)]).unwrap();
    }
    for (l, r) in [(0, 0), (1, 0), (1, 1)] {
        db.link(RelId(0), ObjectId(l), ObjectId(r)).unwrap();
    }
    db.finalize(IntegrityOptions).unwrap()
}

/// Re-encodes the fixture with one section's payload replaced, through the
/// real [`SnapshotBuilder`] so the container (offsets, checksums) stays
/// valid and only the targeted section is damaged.
fn with_section(db: &Database, replace: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    for (id, p) in database_sections(db) {
        b.section(id, if id == replace { payload.clone() } else { p });
    }
    b.finish()
}

/// The fixture's string dictionary, in first-appearance order.
const DICTIONARY: &[&str] = &["x", "y"];

/// Hand-encodes an EXTENTS payload for the fixture (`docs/FORMAT.md` §3.2)
/// with a chosen dictionary index for object 0's `t` value (0 is correct).
fn extents_payload(data_version: u64, first_t_ix: u32) -> Vec<u8> {
    extents_payload_with(data_version, first_t_ix, DICTIONARY)
}

/// [`extents_payload`] over the string dictionary `dictionary`, which the
/// tuples index as they index [`DICTIONARY`].
fn extents_payload_with(data_version: u64, first_t_ix: u32, dictionary: &[&str]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(data_version);
    w.u32(3); // |c0|
    w.u32(2); // |c1|
    w.u32(dictionary.len() as u32);
    for s in dictionary {
        w.str(s);
    }
    // c0 tuples: untagged Int payload then Str dictionary index.
    w.i64(5);
    w.u32(first_t_ix);
    w.i64(5);
    w.u32(1);
    w.i64(7);
    w.u32(0);
    // c1 tuples.
    w.i64(10);
    w.i64(20);
    w.finish()
}

/// Hand-encodes a LINKS payload (`docs/FORMAT.md` §3.3) for the fixture's
/// one relationship: its left adjacency lists, one per c0 object.
fn links_payload(left: &[&[u32]]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for list in left {
        w.u32(list.len() as u32);
        for &o in *list {
            w.u32(o);
        }
    }
    w.finish()
}

/// Hand-encodes an INDEXES payload (`docs/FORMAT.md` §3.4) for the fixture
/// with the given entries on `c0.k`, its one declared index: each key an
/// untagged Int.
fn indexes_payload(entries: &[(i64, &[u32])]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(entries.len() as u32);
    for (key, posting) in entries {
        w.i64(*key);
        w.u32(posting.len() as u32);
        for &o in *posting {
            w.u32(o);
        }
    }
    w.finish()
}

/// The fixture's STATS payload after an arbitrary in-memory edit.
fn stats_payload(db: &Database, tamper: impl FnOnce(&mut sqo_catalog::StatsSnapshot)) -> Vec<u8> {
    let mut stats = db.stats().clone();
    tamper(&mut stats);
    let mut w = ByteWriter::new();
    write_stats(&mut w, &stats);
    w.finish()
}

/// DB4 at seed 42 with class `class`'s EXTENTS preamble cardinality set to
/// 4,000,000,000. Relationship 0 (`supplies`) runs from class 1 (cargo) to
/// class 0 (supplier): a load derives a right list for every object of
/// class 0, so four billion of them would reserve tens of gigabytes before
/// any byte was read. The preamble is held to the tuple bytes before any
/// section decoder starts.
fn runaway_cardinality(class: usize) -> Vec<u8> {
    let db = paper_scenario(DbSize::Db4, 42).db;
    let supplies = db.catalog().relationship(RelId(0)).unwrap();
    assert_eq!((supplies.left.class, supplies.right.class), (ClassId(1), ClassId(0)));
    let (_, mut payload) =
        database_sections(&db).into_iter().find(|(id, _)| *id == SEC_EXTENTS).unwrap();
    // After the 8-byte data epoch, one u32 per class.
    let at = 8 + 4 * class;
    payload[at..at + 4].copy_from_slice(&4_000_000_000u32.to_le_bytes());
    with_section(&db, SEC_EXTENTS, payload)
}

/// A database whose class `e` has no attributes and is the right end of
/// relationship `r`: two `e` objects, the first linked from `c`'s only
/// object. The `c` end is to-one and total, so that object links exactly
/// one `e`.
fn attributeless() -> Database {
    let mut b = Catalog::builder();
    let c = b.class("c", vec![AttributeDef::new("v", DataType::Int)]).unwrap();
    let e = b.class("e", Vec::new()).unwrap();
    b.relationship(
        "r",
        RelationshipEnd::new(c, Multiplicity::One, true),
        RelationshipEnd::new(e, Multiplicity::Many, false),
    )
    .unwrap();
    let mut db = Database::builder(Arc::new(b.build().unwrap()));
    db.insert(c, vec![Value::Int(1)]).unwrap();
    db.insert(e, Vec::new()).unwrap();
    db.insert(e, Vec::new()).unwrap();
    db.link(RelId(0), ObjectId(0), ObjectId(0)).unwrap();
    db.finalize(IntegrityOptions).unwrap()
}

/// [`attributeless`]'s EXTENTS payload: class `e`'s objects are one byte
/// each, `e_byte`, which the encoder writes as 0.
fn attributeless_extents(data_version: u64, e_card: u32, e_byte: u8) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(data_version);
    w.u32(1); // |c|
    w.u32(e_card);
    w.u32(0); // no strings
    w.i64(1);
    w.u8(e_byte);
    w.u8(0);
    w.finish()
}

/// The hand encodings above *are* `docs/FORMAT.md`; this test pins them
/// against the real encoder so a format change that forgets the spec (or a
/// spec change that forgets the code) fails loudly here.
#[test]
fn handcrafted_payloads_match_the_encoder() {
    let db = fixture();
    let sections: std::collections::HashMap<u32, Vec<u8>> =
        database_sections(&db).into_iter().collect();
    assert_eq!(sections[&SEC_EXTENTS], extents_payload(db.data_version(), 0), "EXTENTS layout");
    assert_eq!(sections[&SEC_LINKS], links_payload(&[&[0], &[0, 1], &[]]), "LINKS layout");
    assert_eq!(
        sections[&SEC_INDEXES],
        indexes_payload(&[(5, &[0, 1]), (7, &[2])]),
        "INDEXES layout"
    );
    assert_eq!(sections[&SEC_STATS], stats_payload(&db, |_| ()), "STATS layout");
    let db = attributeless();
    let sections: std::collections::HashMap<u32, Vec<u8>> =
        database_sections(&db).into_iter().collect();
    let extents = attributeless_extents(db.data_version(), 2, 0);
    assert_eq!(sections[&SEC_EXTENTS], extents, "EXTENTS rows without attributes");
}

/// Objects of a class without attributes round-trip, and so do the links
/// that end at them.
#[test]
fn attributeless_objects_roundtrip() {
    let db = attributeless();
    let loaded = decode_database(&encode_database(&db), ValidationLevel::Standard).unwrap();
    assert_eq!(loaded.cardinality(ClassId(1)), 2);
    assert_eq!(loaded.links(RelId(0)).from_right(ObjectId(0)), &[ObjectId(0)]);
    assert!(loaded.links(RelId(0)).from_right(ObjectId(1)).is_empty());
    assert_eq!(encode_database(&loaded), encode_database(&db));
}

/// Unknown section ids are the format's forward-compatibility rule: a
/// reader skips them and still validates everything it understands.
#[test]
fn unknown_sections_are_skipped() {
    let db = fixture();
    let mut b = SnapshotBuilder::new();
    for (id, p) in database_sections(&db) {
        b.section(id, p);
    }
    b.section(999, b"from a future writer".to_vec());
    let loaded = decode_database(&b.finish(), ValidationLevel::Standard).unwrap();
    assert_eq!(loaded.data_version(), db.data_version());
}

/// The refusal of a preamble the tuple bytes do not back, which the load
/// makes on its own thread before it starts the section decoders.
fn preamble_refused(e: &LoadError) -> bool {
    matches!(e, LoadError::Malformed { section: "EXTENTS", detail } if detail.contains("tuple bytes"))
}

struct Case {
    name: &'static str,
    /// The variant documented for this damage (display name only).
    expect: &'static str,
    matches: fn(&LoadError) -> bool,
    bytes: Vec<u8>,
}

#[test]
fn corruption_is_rejected_at_the_documented_level() {
    let db = fixture();
    let good = encode_database(&db);
    let dv = db.data_version();
    let lone = attributeless();

    // Raw container damage (docs/VALIDATION.md §2).
    let truncated = good[..11].to_vec();
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    let mut future_version = good.clone();
    future_version[4..6].copy_from_slice(&5u16.to_le_bytes());
    let mut version_1 = good.clone();
    version_1[4..6].copy_from_slice(&1u16.to_le_bytes());
    let mut version_2 = good.clone();
    version_2[4..6].copy_from_slice(&2u16.to_le_bytes());
    let mut version_3 = good.clone();
    version_3[4..6].copy_from_slice(&3u16.to_le_bytes());
    let mut runaway_table = good.clone();
    runaway_table[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut entry_past_eof = good.clone();
    entry_past_eof[16..24].copy_from_slice(&(good.len() as u64).to_le_bytes());
    let mut bit_flip = good.clone();
    *bit_flip.last_mut().unwrap() ^= 0x01;
    let duplicate = {
        let mut b = SnapshotBuilder::new();
        for (id, p) in database_sections(&db) {
            if id == SEC_CATALOG {
                b.section(id, p.clone());
                b.section(100, p); // same payload, then…
            } else {
                b.section(id, p);
            }
        }
        b.section(SEC_CATALOG, Vec::new()); // …the id again.
        b.finish()
    };
    let missing_stats = {
        let mut b = SnapshotBuilder::new();
        for (id, p) in database_sections(&db).into_iter().filter(|(id, _)| *id != SEC_STATS) {
            b.section(id, p);
        }
        b.finish()
    };
    let trailing = |id: u32, mut payload: Vec<u8>| {
        payload.push(0);
        with_section(&db, id, payload)
    };

    let cases = vec![
        Case {
            name: "file shorter than the 12-byte header",
            expect: "TruncatedHeader",
            matches: |e| matches!(e, LoadError::TruncatedHeader),
            bytes: truncated,
        },
        Case {
            name: "empty file",
            expect: "TruncatedHeader",
            matches: |e| matches!(e, LoadError::TruncatedHeader),
            bytes: Vec::new(),
        },
        Case {
            name: "first magic byte flipped",
            expect: "BadMagic",
            matches: |e| matches!(e, LoadError::BadMagic),
            bytes: bad_magic,
        },
        Case {
            name: "format version from the future",
            expect: "UnsupportedVersion(5)",
            matches: |e| matches!(e, LoadError::UnsupportedVersion(5)),
            bytes: future_version,
        },
        Case {
            name: "version 1, whose sections state counts v2 leaves out",
            expect: "UnsupportedVersion(1)",
            matches: |e| matches!(e, LoadError::UnsupportedVersion(1)),
            bytes: version_1,
        },
        Case {
            name: "version 2, whose value tags and closure limits v3 leaves out",
            expect: "UnsupportedVersion(2)",
            matches: |e| matches!(e, LoadError::UnsupportedVersion(2)),
            bytes: version_2,
        },
        Case {
            name: "version 3, whose constraints carry the origin byte and class list v4 leaves out",
            expect: "UnsupportedVersion(3)",
            matches: |e| matches!(e, LoadError::UnsupportedVersion(3)),
            bytes: version_3,
        },
        Case {
            name: "section count larger than the file",
            expect: "SectionOutOfBounds{0}",
            matches: |e| matches!(e, LoadError::SectionOutOfBounds { section: 0 }),
            bytes: runaway_table,
        },
        Case {
            name: "section offset pointing past end of file",
            expect: "SectionOutOfBounds{CATALOG}",
            matches: |e| matches!(e, LoadError::SectionOutOfBounds { section } if *section == SEC_CATALOG),
            bytes: entry_past_eof,
        },
        Case {
            name: "single bit flipped in a payload",
            expect: "ChecksumMismatch",
            matches: |e| matches!(e, LoadError::ChecksumMismatch { .. }),
            bytes: bit_flip,
        },
        Case {
            name: "same section id twice in the table",
            expect: "DuplicateSection(CATALOG)",
            matches: |e| matches!(e, LoadError::DuplicateSection(id) if *id == SEC_CATALOG),
            bytes: duplicate,
        },
        Case {
            name: "STATS section absent",
            expect: "MissingSection(STATS)",
            matches: |e| matches!(e, LoadError::MissingSection("STATS")),
            bytes: missing_stats,
        },
        // Structural payload damage (shape checks).
        Case {
            name: "trailing garbage after the last extent tuple",
            expect: "Malformed(EXTENTS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "EXTENTS", .. }),
            bytes: trailing(SEC_EXTENTS, extents_payload(dv, 0)),
        },
        Case {
            name: "trailing garbage after the last left list",
            expect: "Malformed(LINKS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "LINKS", .. }),
            bytes: trailing(SEC_LINKS, links_payload(&[&[0], &[0, 1], &[]])),
        },
        Case {
            name: "trailing garbage after the last declared index",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: trailing(SEC_INDEXES, indexes_payload(&[(5, &[0, 1]), (7, &[2])])),
        },
        Case {
            name: "trailing garbage after the last attribute's statistics",
            expect: "Malformed(STATS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "STATS", .. }),
            bytes: trailing(SEC_STATS, stats_payload(&db, |_| ())),
        },
        Case {
            name: "data epoch at 2^63, past which writes could not advance it",
            expect: "Malformed(EXTENTS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "EXTENTS", .. }),
            bytes: with_section(&db, SEC_EXTENTS, extents_payload(sqo_snapshot::EPOCH_LIMIT, 0)),
        },
        Case {
            name: "string value indexing beyond the dictionary",
            expect: "Malformed(EXTENTS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "EXTENTS", .. }),
            bytes: with_section(&db, SEC_EXTENTS, extents_payload(dv, 9)),
        },
        Case {
            // Object 1's "x" would be another allocation than objects 0's
            // and 2's: an attribute holding one string at two addresses.
            name: "a string listed twice in the dictionary",
            expect: "Malformed(EXTENTS) naming both entries",
            matches: |e| {
                matches!(e, LoadError::Malformed { section: "EXTENTS", detail }
                    if detail.contains("entries 0 and 1"))
            },
            bytes: with_section(&db, SEC_EXTENTS, extents_payload_with(dv, 0, &["x", "x"])),
        },
        Case {
            name: "fewer left lists than the left extent's objects",
            expect: "Malformed(LINKS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "LINKS", .. }),
            bytes: with_section(&db, SEC_LINKS, links_payload(&[&[0], &[0, 1]])),
        },
        Case {
            name: "four billion objects of a relationship's left end in the preamble",
            expect: "Malformed(EXTENTS) before any decoder starts",
            matches: preamble_refused,
            bytes: runaway_cardinality(1),
        },
        Case {
            name: "four billion objects of a relationship's right end in the preamble",
            expect: "Malformed(EXTENTS) before any decoder starts",
            matches: preamble_refused,
            bytes: runaway_cardinality(0),
        },
        Case {
            name: "four billion objects of an attribute-less right end in the preamble",
            expect: "Malformed(EXTENTS) before any decoder starts",
            matches: preamble_refused,
            bytes: with_section(
                &lone,
                SEC_EXTENTS,
                attributeless_extents(lone.data_version(), 4_000_000_000, 0),
            ),
        },
        Case {
            name: "an attribute-less object's byte other than 0",
            expect: "Malformed(EXTENTS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "EXTENTS", .. }),
            bytes: with_section(
                &lone,
                SEC_EXTENTS,
                attributeless_extents(lone.data_version(), 2, 1),
            ),
        },
        Case {
            name: "a class's statistics entry missing",
            expect: "Malformed(STATS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "STATS", .. }),
            bytes: with_section(
                &db,
                SEC_STATS,
                stats_payload(&db, |s| {
                    s.classes.pop();
                }),
            ),
        },
        // Id-space and ordering invariants the executor relies on, checked
        // where each fact is decoded.
        Case {
            name: "index posting out of ascending order",
            expect: "UnsortedPosting(INDEXES)",
            matches: |e| matches!(e, LoadError::UnsortedPosting { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(5, &[1, 0]), (7, &[2])])),
        },
        Case {
            name: "index posting naming an object beyond the extent",
            expect: "DanglingReference(INDEXES)",
            matches: |e| matches!(e, LoadError::DanglingReference { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(5, &[0, 7]), (7, &[2])])),
        },
        Case {
            name: "index keys out of ascending order",
            expect: "UnsortedPosting(INDEXES)",
            matches: |e| matches!(e, LoadError::UnsortedPosting { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(7, &[2]), (5, &[0, 1])])),
        },
        Case {
            name: "empty index posting",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(5, &[]), (7, &[2])])),
        },
        Case {
            name: "link to an object beyond the opposite extent",
            expect: "DanglingReference(LINKS)",
            matches: |e| matches!(e, LoadError::DanglingReference { section: "LINKS", .. }),
            bytes: with_section(&db, SEC_LINKS, links_payload(&[&[0], &[0, 5], &[]])),
        },
        // Every load holds the links to the catalog's declarations, as every
        // build and write does.
        Case {
            name: "a left list giving an object of a to-one end two links",
            expect: "Malformed(LINKS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "LINKS", .. }),
            bytes: with_section(&lone, SEC_LINKS, links_payload(&[&[0, 1]])),
        },
        Case {
            name: "a left list leaving an object of a total end unlinked",
            expect: "Malformed(LINKS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "LINKS", .. }),
            bytes: with_section(&lone, SEC_LINKS, links_payload(&[&[]])),
        },
        // Each index is exactly its extent's grouping: every posting id's
        // object holds the key, and the postings cover the class once.
        Case {
            name: "index membership swapped between keys",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(5, &[0]), (7, &[1, 2])])),
        },
        Case {
            name: "one object filed under two keys",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(5, &[0, 1]), (7, &[1, 2])])),
        },
        Case {
            name: "an object missing from every posting",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(&[(5, &[0, 1])])),
        },
    ];

    for case in &cases {
        let Err(err) = decode_database(&case.bytes, ValidationLevel::Standard) else {
            panic!("{}: expected {}, but the snapshot loaded", case.name, case.expect);
        };
        assert!((case.matches)(&err), "{}: expected {}, got {err:?}", case.name, case.expect);
    }

    // Statistics move estimates, never answers, so a load does not check
    // them against the data: internally consistent statistics that drifted
    // from it load, and differ from a rescan of the loaded extents.
    let drifted = with_section(
        &db,
        SEC_STATS,
        stats_payload(&db, |s| {
            s.classes[0].attrs[0].distinct += 1;
        }),
    );
    let loaded = decode_database(&drifted, ValidationLevel::Standard)
        .unwrap_or_else(|e| panic!("drifted statistics are refused: {e:?}"));
    assert_ne!(loaded.stats(), &loaded.rebuild_statistics());
}
