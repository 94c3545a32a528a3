//! The `.sqos` container: header, section table, checksums.
//!
//! Layout (`docs/FORMAT.md` is normative):
//!
//! ```text
//! offset 0   magic          4 bytes   b"SQOS"
//! offset 4   version        u16 LE    currently 4
//! offset 6   flags          u16 LE    currently 0, reserved
//! offset 8   section_count  u32 LE
//! offset 12  section table  section_count × 28 bytes:
//!              id        u32 LE
//!              offset    u64 LE   absolute byte offset of the payload
//!              length    u64 LE   payload length in bytes
//!              checksum  u64 LE   [`section_checksum`] of the payload
//! ...        payloads at their recorded offsets
//! ```
//!
//! There is deliberately **no** header or table checksum: a tampered table
//! entry maps deterministically to [`LoadError::SectionOutOfBounds`] or
//! [`LoadError::ChecksumMismatch`], which is the same clean rejection a
//! checksum would give (see the threat model in `docs/VALIDATION.md`).
//! Unknown section ids are skipped, which is the format's forward-compat
//! rule: old readers load new files, ignoring sections they do not know.

use std::io::Write;
use std::path::Path;

use sqo_query::sync::Counter;

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::LoadError;

/// The four magic bytes every `.sqos` file starts with.
pub const MAGIC: [u8; 4] = *b"SQOS";
/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 4;

/// Section id: catalog definitions (classes, relationships).
pub const SEC_CATALOG: u32 = 1;
/// Section id: class extents (typed tuples) and the data epoch.
pub const SEC_EXTENTS: u32 = 2;
/// Section id: relationship link tables in canonical adjacency order.
pub const SEC_LINKS: u32 = 3;
/// Section id: attribute index banks with ascending-oid postings.
pub const SEC_INDEXES: u32 = 4;
/// Section id: the folded statistics snapshot.
pub const SEC_STATS: u32 = 5;
/// Section id: the constraint store (constraints, options, identity).
pub const SEC_CONSTRAINTS: u32 = 6;
/// Section id: the canonical queries of the live plan-cache entries, which
/// a warm boot derives through the miss pipeline before serving.
pub const SEC_QUERIES: u32 = 8;

const HEADER_LEN: usize = 12;
const ENTRY_LEN: usize = 28;

/// Human-readable name of a known section id (`"?"` for unknown ids); used
/// to tag [`LoadError`] variants.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SEC_CATALOG => "CATALOG",
        SEC_EXTENTS => "EXTENTS",
        SEC_LINKS => "LINKS",
        SEC_INDEXES => "INDEXES",
        SEC_STATS => "STATS",
        SEC_CONSTRAINTS => "CONSTRAINTS",
        SEC_QUERIES => "QUERIES",
        _ => "?",
    }
}

/// The `.sqos` section checksum: FNV-1a 64-bit folded over 8-byte
/// little-endian chunks, with the tail chunk zero-padded and the payload
/// length XORed into the seed (`docs/FORMAT.md` §5).
///
/// Chunking keeps Standard-level validation roughly 8x faster than
/// byte-at-a-time FNV-1a, whose mixing constants it keeps; seeding with
/// the length keeps a zero-padded tail from colliding with explicit
/// trailing zero bytes.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        // `chunks_exact(8)` yields 8-byte chunks only: the default is dead.
        h ^= u64::from_le_bytes(c.try_into().unwrap_or_default());
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Assembles a `.sqos` file from encoded section payloads.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one section payload. Sections are laid out in insertion
    /// order; ids must be unique (checked at [`SnapshotBuilder::finish`]
    /// time by the parser, not here).
    pub fn section(&mut self, id: u32, payload: Vec<u8>) -> &mut Self {
        self.sections.push((id, payload));
        self
    }

    /// Serializes header, section table and payloads into the final byte
    /// image.
    pub fn finish(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u16(FORMAT_VERSION);
        w.u16(0); // flags, reserved
        w.u32(self.sections.len() as u32);
        let mut offset = (HEADER_LEN + ENTRY_LEN * self.sections.len()) as u64;
        for (id, payload) in &self.sections {
            w.u32(*id);
            w.u64(offset);
            w.u64(payload.len() as u64);
            w.u64(section_checksum(payload));
            offset += payload.len() as u64;
        }
        let mut buf = w.finish();
        for (_, payload) in self.sections {
            buf.extend_from_slice(&payload);
        }
        buf
    }
}

/// A parsed `.sqos` file: the section table resolved against the byte
/// image, with every Standard-level container check already passed.
#[derive(Debug)]
pub struct SnapshotFile<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapshotFile<'a> {
    /// Parses and validates the container at the Standard level: header
    /// length, magic, version, section-table bounds, per-section bounds,
    /// duplicate ids and payload checksums. Unknown section ids are kept
    /// (and checksummed) but otherwise ignored.
    ///
    /// # Errors
    /// [`LoadError::TruncatedHeader`], [`LoadError::BadMagic`],
    /// [`LoadError::UnsupportedVersion`], [`LoadError::SectionOutOfBounds`],
    /// [`LoadError::DuplicateSection`] or [`LoadError::ChecksumMismatch`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, LoadError> {
        if bytes.len() < HEADER_LEN {
            return Err(LoadError::TruncatedHeader);
        }
        if bytes[0..4] != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let mut r = ByteReader::new(&bytes[4..HEADER_LEN], "HEADER");
        let version = r.u16()?;
        let _flags = r.u16()?;
        let count = r.u32()? as usize;
        if version != FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion(version));
        }
        let table_end = HEADER_LEN
            .checked_add(
                count.checked_mul(ENTRY_LEN).ok_or(LoadError::SectionOutOfBounds { section: 0 })?,
            )
            .ok_or(LoadError::SectionOutOfBounds { section: 0 })?;
        if table_end > bytes.len() {
            return Err(LoadError::SectionOutOfBounds { section: 0 });
        }
        let mut sections: Vec<(u32, &'a [u8])> = Vec::with_capacity(count);
        let mut t = ByteReader::new(&bytes[HEADER_LEN..table_end], "HEADER");
        for _ in 0..count {
            let id = t.u32()?;
            let offset = t.u64()?;
            let len = t.u64()?;
            let checksum = t.u64()?;
            let end =
                offset.checked_add(len).ok_or(LoadError::SectionOutOfBounds { section: id })?;
            if offset < table_end as u64 || end > bytes.len() as u64 {
                return Err(LoadError::SectionOutOfBounds { section: id });
            }
            if sections.iter().any(|&(seen, _)| seen == id) {
                return Err(LoadError::DuplicateSection(id));
            }
            let payload = &bytes[offset as usize..end as usize];
            let actual = section_checksum(payload);
            if actual != checksum {
                return Err(LoadError::ChecksumMismatch {
                    section: section_name(id),
                    expected: checksum,
                    actual,
                });
            }
            sections.push((id, payload));
        }
        Ok(Self { sections })
    }

    /// The payload of section `id`, if present.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections.iter().find(|&&(sid, _)| sid == id).map(|&(_, p)| p)
    }

    /// The payload of section `id`, as a [`ByteReader`] tagged with the
    /// section's name.
    ///
    /// # Errors
    /// [`LoadError::MissingSection`] when the section is absent.
    pub fn require(&self, id: u32) -> Result<ByteReader<'a>, LoadError> {
        self.section(id)
            .map(|p| ByteReader::new(p, section_name(id)))
            .ok_or(LoadError::MissingSection(section_name(id)))
    }

    /// Every `(id, payload)` pair in file order, including unknown ids.
    pub fn sections(&self) -> impl Iterator<Item = (u32, &'a [u8])> + '_ {
        self.sections.iter().copied()
    }
}

/// Puts the complete `.sqos` image `bytes` at `path`, crash-safely — the one
/// function that writes a snapshot file. The bytes go to a temporary file
/// beside `path`, are synced, and are then renamed over it, so at every
/// instant `path` holds either what it held before or the complete new
/// image.
///
/// # Errors
/// [`LoadError::Io`] if the file cannot be written; the temporary file is
/// removed and whatever `path` held before is untouched.
pub fn write_snapshot_file(path: &Path, bytes: &[u8]) -> Result<(), LoadError> {
    // Concurrent saves of one process must not share a temporary file.
    static SAVES: Counter = Counter::new(0);
    let nth = SAVES.add(1);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{nth}.tmp", std::process::id()));
    let tmp = Path::new(&tmp);
    let saved = std::fs::File::create(tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(tmp, path))
        .and_then(|()| sync_parent_dir(path));
    if saved.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    saved.map_err(LoadError::from)
}

/// Makes the rename that published `path` durable. Only Unix can open a
/// directory for syncing; elsewhere the rename is left to the OS.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_file() -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        b.section(SEC_CATALOG, vec![1, 2, 3]);
        b.section(SEC_STATS, vec![9, 9]);
        b.finish()
    }

    #[test]
    fn roundtrip_parse() {
        let buf = two_section_file();
        let file = SnapshotFile::parse(&buf).unwrap();
        assert_eq!(file.section(SEC_CATALOG), Some(&[1u8, 2, 3][..]));
        assert_eq!(file.section(SEC_STATS), Some(&[9u8, 9][..]));
        assert_eq!(file.section(SEC_LINKS), None);
        assert!(matches!(file.require(SEC_LINKS), Err(LoadError::MissingSection("LINKS"))));
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(SnapshotFile::parse(&[]).unwrap_err(), LoadError::TruncatedHeader);
        assert_eq!(SnapshotFile::parse(b"SQOS\x01\x00").unwrap_err(), LoadError::TruncatedHeader);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = two_section_file();
        buf[0] = b'X';
        assert_eq!(SnapshotFile::parse(&buf).unwrap_err(), LoadError::BadMagic);
    }

    #[test]
    fn future_version_rejected() {
        let mut buf = two_section_file();
        buf[4] = 5;
        assert_eq!(SnapshotFile::parse(&buf).unwrap_err(), LoadError::UnsupportedVersion(5));
    }

    #[test]
    fn out_of_bounds_section_rejected() {
        let mut buf = two_section_file();
        // Patch the first table entry's length to reach past the file end.
        let len_at = 12 + 4 + 8;
        buf[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            SnapshotFile::parse(&buf).unwrap_err(),
            LoadError::SectionOutOfBounds { section: SEC_CATALOG }
        );
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let mut buf = two_section_file();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::parse(&buf).unwrap_err(),
            LoadError::ChecksumMismatch { section: "STATS", .. }
        ));
    }

    #[test]
    fn duplicate_section_id_rejected() {
        let mut b = SnapshotBuilder::new();
        b.section(SEC_CATALOG, vec![1]);
        b.section(SEC_CATALOG, vec![2]);
        let buf = b.finish();
        assert_eq!(
            SnapshotFile::parse(&buf).unwrap_err(),
            LoadError::DuplicateSection(SEC_CATALOG)
        );
    }

    #[test]
    fn unknown_sections_are_skipped_not_fatal() {
        let mut b = SnapshotBuilder::new();
        b.section(SEC_CATALOG, vec![1]);
        b.section(0xDEAD, vec![42; 10]);
        let buf = b.finish();
        let file = SnapshotFile::parse(&buf).unwrap();
        assert_eq!(file.section(SEC_CATALOG), Some(&[1u8][..]));
        assert_eq!(file.section(0xDEAD), Some(&[42u8; 10][..]));
        assert_eq!(section_name(0xDEAD), "?");
    }

    #[test]
    fn truncating_the_file_midway_is_detected() {
        let buf = two_section_file();
        for cut in 0..buf.len() {
            assert!(SnapshotFile::parse(&buf[..cut]).is_err(), "cut at {cut} parsed");
        }
    }
}
