//! Table-driven corruption suite: every damaged snapshot must be rejected
//! with the [`LoadError`] variant that `docs/VALIDATION.md` documents for
//! the broken invariant. Damage a load does not check must still *load*:
//! statistics that drifted from the data (they move estimates, never
//! answers) and the bytes a load does not read (the right adjacency lists),
//! which load into exactly the undamaged database.
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
    write_stats, write_value, ByteWriter, LoadError, SnapshotBuilder, ValidationLevel, SEC_CATALOG,
    SEC_EXTENTS, SEC_INDEXES, SEC_LINKS, SEC_STATS,
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
///   left adjacency `[[0], [0, 1], []]`, right adjacency `[[0, 1], [1]]`.
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
    db.finalize(IntegrityOptions {
        enforce_total_participation: false,
        enforce_multiplicity: false,
    })
    .unwrap()
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

/// Hand-encodes an EXTENTS payload for the fixture (`docs/FORMAT.md` §3.2)
/// with a chosen dictionary index for object 0's `t` value (0 is correct).
fn extents_payload(data_version: u64, first_t_ix: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(data_version);
    w.u32(2); // class count
    w.u32(3); // |c0|
    w.u32(2); // |c1|
    w.u32(2); // dictionary entries, first-appearance order
    w.str("x");
    w.str("y");
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

/// Hand-encodes a LINKS payload (`docs/FORMAT.md` §3.3) for a single
/// relationship with the given cardinalities and adjacency lists.
fn links_payload(left_card: u32, right_card: u32, left: &[&[u32]], right: &[&[u32]]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(1); // relationship count
    w.u32(left_card);
    w.u32(right_card);
    for list in left.iter().chain(right) {
        w.u32(list.len() as u32);
        for &o in *list {
            w.u32(o);
        }
    }
    w.finish()
}

/// Hand-encodes an INDEXES payload (`docs/FORMAT.md` §3.4) for the fixture
/// with the given hash entries on `c0.k` (`kind_tag` is 1 for hash).
fn indexes_payload(kind_tag: u8, entries: &[(Value, &[u32])]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(2); // index banks (one per class)
    w.u32(2); // c0 slots
    w.u8(kind_tag); // c0.k
    if kind_tag != 0 {
        w.u32(entries.len() as u32);
        for (key, posting) in entries {
            write_value(&mut w, key);
            w.u32(posting.len() as u32);
            for &o in *posting {
                w.u32(o);
            }
        }
    }
    w.u8(0); // c0.t: not indexed
    w.u32(1); // c1 slots
    w.u8(0); // c1.v: not indexed
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

/// DB4 at seed 42 with class 1's EXTENTS preamble cardinality and
/// relationship 0's LINKS left cardinality (its left end is class 1) both
/// set to 4,000,000,000. The two agree, so the LINKS decoder starts on four
/// billion left lists that only the payload's bytes back: every load
/// decodes LINKS on its own thread beside EXTENTS, so it runs even though
/// EXTENTS fails, and the load reports EXTENTS' error.
fn runaway_cardinality() -> Vec<u8> {
    let db = paper_scenario(DbSize::Db4, 42).db;
    assert_eq!(db.catalog().relationship(RelId(0)).unwrap().left.class, ClassId(1));
    let claimed = 4_000_000_000u32.to_le_bytes();
    let mut b = SnapshotBuilder::new();
    for (id, mut p) in database_sections(&db) {
        match id {
            // After the data epoch, the class count and class 0's cardinality.
            SEC_EXTENTS => p[16..20].copy_from_slice(&claimed),
            // After the relationship count: relationship 0's left cardinality.
            SEC_LINKS => p[4..8].copy_from_slice(&claimed),
            _ => {}
        }
        b.section(id, p);
    }
    b.finish()
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
    assert_eq!(
        sections[&SEC_LINKS],
        links_payload(3, 2, &[&[0], &[0, 1], &[]], &[&[0, 1], &[1]]),
        "LINKS layout"
    );
    assert_eq!(
        sections[&SEC_INDEXES],
        indexes_payload(1, &[(Value::Int(5), &[0, 1]), (Value::Int(7), &[2])]),
        "INDEXES layout"
    );
    assert_eq!(sections[&SEC_STATS], stats_payload(&db, |_| ()), "STATS layout");
}

/// Unknown section ids are the format's forward-compatibility rule: a v1
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

    // Raw container damage (docs/VALIDATION.md §2).
    let truncated = good[..11].to_vec();
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    let mut future_version = good.clone();
    future_version[4..6].copy_from_slice(&2u16.to_le_bytes());
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

    let histogram = {
        // c1.v is the last attribute, so its bucket count sits just before
        // the relationship block (u32 count, one 24-byte entry).
        let mut p = stats_payload(&db, |_| ());
        let at = p.len() - 4 - 24 - 4;
        assert_eq!(p[at..at + 4], [0; 4], "an encoder writes no buckets");
        p.splice(at..at + 4, 1u32.to_le_bytes().into_iter().chain(9u64.to_le_bytes()));
        p
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
            expect: "UnsupportedVersion(2)",
            matches: |e| matches!(e, LoadError::UnsupportedVersion(2)),
            bytes: future_version,
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
            bytes: with_section(&db, SEC_EXTENTS, {
                let mut p = extents_payload(dv, 0);
                p.push(0);
                p
            }),
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
            name: "stored index kind contradicting the catalog",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(2, &[(Value::Int(5), &[0, 1]), (Value::Int(7), &[2])]),
            ),
        },
        Case {
            name: "link cardinality contradicting the extents preamble",
            expect: "Malformed(LINKS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "LINKS", .. }),
            bytes: with_section(
                &db,
                SEC_LINKS,
                links_payload(2, 2, &[&[0], &[0, 1]], &[&[0, 1], &[1]]),
            ),
        },
        Case {
            name: "a cardinality of four billion in EXTENTS and LINKS alike",
            expect: "Malformed(EXTENTS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "EXTENTS", .. }),
            bytes: runaway_cardinality(),
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
        Case {
            name: "attribute statistics carrying a histogram bucket",
            expect: "Malformed(STATS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "STATS", .. }),
            bytes: with_section(&db, SEC_STATS, histogram),
        },
        // Id-space and ordering invariants the executor relies on, checked
        // where each fact is decoded.
        Case {
            name: "index posting out of ascending order",
            expect: "UnsortedPosting(INDEXES)",
            matches: |e| matches!(e, LoadError::UnsortedPosting { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::Int(5), &[1, 0]), (Value::Int(7), &[2])]),
            ),
        },
        Case {
            name: "index posting naming an object beyond the extent",
            expect: "DanglingReference(INDEXES)",
            matches: |e| matches!(e, LoadError::DanglingReference { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::Int(5), &[0, 7]), (Value::Int(7), &[2])]),
            ),
        },
        Case {
            name: "index keys out of ascending order",
            expect: "UnsortedPosting(INDEXES)",
            matches: |e| matches!(e, LoadError::UnsortedPosting { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::Int(7), &[2]), (Value::Int(5), &[0, 1])]),
            ),
        },
        Case {
            name: "empty index posting",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::Int(5), &[]), (Value::Int(7), &[2])]),
            ),
        },
        Case {
            name: "index key of the wrong type for its attribute",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::str("5"), &[0, 1]), (Value::Int(7), &[2])]),
            ),
        },
        Case {
            name: "link to an object beyond the opposite extent",
            expect: "DanglingReference(LINKS)",
            matches: |e| matches!(e, LoadError::DanglingReference { section: "LINKS", .. }),
            bytes: with_section(
                &db,
                SEC_LINKS,
                links_payload(3, 2, &[&[0], &[0, 5], &[]], &[&[0, 1], &[1]]),
            ),
        },
        Case {
            name: "statistics cardinality contradicting the extent",
            expect: "Malformed(STATS)",
            matches: |e| matches!(e, LoadError::Malformed { section: "STATS", .. }),
            bytes: with_section(
                &db,
                SEC_STATS,
                stats_payload(&db, |s| {
                    s.classes[0].cardinality += 1;
                }),
            ),
        },
        // Each index is exactly its extent's grouping: every posting id's
        // object holds the key, and the postings cover the class once.
        Case {
            name: "index membership swapped between keys",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::Int(5), &[0]), (Value::Int(7), &[1, 2])]),
            ),
        },
        Case {
            name: "one object filed under two keys",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(
                &db,
                SEC_INDEXES,
                indexes_payload(1, &[(Value::Int(5), &[0, 1]), (Value::Int(7), &[1, 2])]),
            ),
        },
        Case {
            name: "an object missing from every posting",
            expect: "Malformed(INDEXES)",
            matches: |e| matches!(e, LoadError::Malformed { section: "INDEXES", .. }),
            bytes: with_section(&db, SEC_INDEXES, indexes_payload(1, &[(Value::Int(5), &[0, 1])])),
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

/// A load reads each relationship's left lists and derives the right side;
/// the right lists a v1 file stores after them are skipped. So a right list
/// out of canonical order, right lists holding fewer edges than the left
/// ones, and right lists sorted but not the left lists' mirror each load
/// into exactly the undamaged database.
#[test]
fn damaged_right_lists_load_and_read_like_the_undamaged_database() {
    let db = fixture();
    let good = encode_database(&db);
    let left: &[&[u32]] = &[&[0], &[0, 1], &[]];
    let cases: [(&str, &[&[u32]]); 3] = [
        ("right adjacency list out of canonical order", &[&[1, 0], &[1]]),
        ("left and right edge counts disagreeing", &[&[0], &[1]]),
        ("right adjacency sorted but not the canonical rebuild", &[&[0, 1], &[0]]),
    ];
    for (name, right) in cases {
        let bytes = with_section(&db, SEC_LINKS, links_payload(3, 2, left, right));
        let loaded = decode_database(&bytes, ValidationLevel::Standard)
            .unwrap_or_else(|e| panic!("{name}: refused: {e:?}"));
        let (got, want) = (loaded.links(RelId(0)), db.links(RelId(0)));
        for o in 0..2 {
            assert_eq!(got.from_right(ObjectId(o)), want.from_right(ObjectId(o)), "{name}");
        }
        assert_eq!(got.link_count(), want.link_count(), "{name}");
        assert_eq!(encode_database(&loaded), good, "{name}");
    }
}
