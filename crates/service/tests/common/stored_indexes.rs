//! The stored indexes of a `.sqos` INDEXES payload (`docs/FORMAT.md` §3.4)
//! as plain data, for tests that forge postings (`snapshot_roundtrip.rs`,
//! `prop_snapshot_bytes.rs`, each through a `#[path]` include):
//! [`read_indexes`] and [`write_indexes`] round-trip a payload exactly.

use sqo_catalog::{AttrId, AttrRef, Catalog, Value};
use sqo_snapshot::{read_value_raw, write_value_raw, ByteReader, ByteWriter, StrPool};

/// One stored index's entries: each key with its posting.
pub(crate) type Entries = Vec<(Value, Vec<u32>)>;

/// An INDEXES payload (`docs/FORMAT.md` §3.4) read into its indexes: each
/// attribute `catalog` declares an index on, in catalog order, with its
/// entries.
pub(crate) fn read_indexes(payload: &[u8], catalog: &Catalog) -> Vec<(AttrRef, Entries)> {
    let mut r = ByteReader::new(payload, "INDEXES");
    let mut pool = StrPool::new();
    let indexed = catalog.classes().flat_map(|(class, cdef)| {
        let attrs = cdef.attributes.iter().enumerate().filter(|(_, a)| a.index.is_some());
        attrs.map(move |(a, def)| (AttrRef::new(class, AttrId(a as u32)), def.ty))
    });
    let indexes = indexed
        .map(|(attr, ty)| {
            let entries = (0..r.u32().unwrap())
                .map(|_| {
                    let key = read_value_raw(&mut r, ty, &mut pool).unwrap();
                    let ids = r.u32().unwrap();
                    (key, (0..ids).map(|_| r.u32().unwrap()).collect())
                })
                .collect();
            (attr, entries)
        })
        .collect();
    r.expect_exhausted().unwrap();
    indexes
}

/// The INDEXES payload of `indexes`, as [`read_indexes`] reads it.
pub(crate) fn write_indexes(indexes: &[(AttrRef, Entries)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for (_, entries) in indexes {
        w.u32(entries.len() as u32);
        for (key, posting) in entries {
            write_value_raw(&mut w, key);
            w.u32(posting.len() as u32);
            for &o in posting {
                w.u32(o);
            }
        }
    }
    w.finish()
}
