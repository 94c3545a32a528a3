//! The stored indexes of a `.sqos` INDEXES payload (`docs/FORMAT.md` §3.4)
//! as plain data, for tests that forge postings (`snapshot_roundtrip.rs`,
//! `prop_snapshot_bytes.rs`, each through a `#[path]` include):
//! [`read_indexes`] and [`write_indexes`] round-trip a payload exactly.

use sqo_catalog::Value;
use sqo_snapshot::{read_value, write_value, ByteReader, ByteWriter};

/// One stored index's entries: each key with its posting.
pub(crate) type Entries = Vec<(Value, Vec<u32>)>;

/// An INDEXES payload (`docs/FORMAT.md` §3.4) read into its slots: per
/// class, per attribute, the kind tag and the entries (none when the tag
/// is 0, unindexed).
pub(crate) fn read_indexes(payload: &[u8]) -> Vec<Vec<(u8, Entries)>> {
    let mut r = ByteReader::new(payload, "INDEXES");
    let entries = |r: &mut ByteReader<'_>| -> Entries {
        let keys = r.u32().unwrap();
        (0..keys)
            .map(|_| {
                let key = read_value(r).unwrap();
                let ids = r.u32().unwrap();
                (key, (0..ids).map(|_| r.u32().unwrap()).collect())
            })
            .collect()
    };
    let banks = (0..r.u32().unwrap())
        .map(|_| {
            (0..r.u32().unwrap())
                .map(|_| match r.u8().unwrap() {
                    0 => (0, Vec::new()),
                    tag => (tag, entries(&mut r)),
                })
                .collect()
        })
        .collect();
    r.expect_exhausted().unwrap();
    banks
}

/// The INDEXES payload of `banks`, as [`read_indexes`] reads it.
pub(crate) fn write_indexes(banks: &[Vec<(u8, Entries)>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(banks.len() as u32);
    for bank in banks {
        w.u32(bank.len() as u32);
        for (tag, entries) in bank {
            w.u8(*tag);
            if *tag == 0 {
                continue;
            }
            w.u32(entries.len() as u32);
            for (key, posting) in entries {
                write_value(&mut w, key);
                w.u32(posting.len() as u32);
                for &o in posting {
                    w.u32(o);
                }
            }
        }
    }
    w.finish()
}
