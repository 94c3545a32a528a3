//! Validation levels and the load-failure taxonomy.

use std::fmt;

/// How a snapshot is verified before the engine trusts it. There is one
/// level; `docs/VALIDATION.md` specifies its invariant set and the threat
/// model it addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ValidationLevel {
    /// Everything the executor relies on: container integrity (magic,
    /// version, section-table bounds, per-section checksums), the shape of
    /// every payload (counts, arities, cardinalities, value types), every
    /// id resolving (no dangling references), every ordering invariant
    /// (ascending postings and keys), and every index being exactly its
    /// extent's grouping (each posting id's object holds the key, and the
    /// postings cover the class once). Each check runs once, where its fact
    /// is decoded. What a load derives (the right-to-left adjacency and the
    /// relationship statistics) is not in the file.
    #[default]
    Standard,
}

impl fmt::Display for ValidationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationLevel::Standard => write!(f, "standard"),
        }
    }
}

/// Why a snapshot failed to load; `docs/VALIDATION.md` maps each check to
/// the variant it raises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file is shorter than the fixed 12-byte header.
    TruncatedHeader,
    /// The first four bytes are not `b"SQOS"`.
    BadMagic,
    /// The header's format version is not the one this build reads: a
    /// newer one, or an older one (1 or 2), whose layouts later versions
    /// dropped fields from.
    UnsupportedVersion(u16),
    /// A section-table entry points outside the file, or the section table
    /// itself does not fit.
    SectionOutOfBounds {
        /// The offending section id (0 when the table itself is truncated).
        section: u32,
    },
    /// The same section id appears twice in the table.
    DuplicateSection(u32),
    /// A section this loader requires is absent.
    MissingSection(&'static str),
    /// A section payload does not hash to its table checksum.
    ChecksumMismatch {
        /// Human-readable section name (see [`crate::section_name`]).
        section: &'static str,
        /// The checksum recorded in the section table.
        expected: u64,
        /// The FNV-1a 64 hash of the payload as read.
        actual: u64,
    },
    /// A section payload is structurally malformed: short reads, bad tags,
    /// counts that contradict the catalog.
    Malformed {
        /// Human-readable section name.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// An index posting, an index's key sequence or a constraint's class
    /// list is out of order.
    UnsortedPosting {
        /// Human-readable section name.
        section: &'static str,
        /// Which posting, and how it is out of order.
        detail: String,
    },
    /// An id (class, relationship, attribute, object, constraint) does not
    /// resolve against the decoded catalog or extents.
    DanglingReference {
        /// Human-readable section name.
        section: &'static str,
        /// The unresolved reference.
        detail: String,
    },
    /// An underlying I/O failure while reading or writing the file.
    Io(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::TruncatedHeader => write!(f, "file shorter than the 12-byte header"),
            LoadError::BadMagic => write!(f, "bad magic (expected \"SQOS\")"),
            LoadError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            LoadError::SectionOutOfBounds { section } => {
                write!(f, "section {section} extends past the end of the file")
            }
            LoadError::DuplicateSection(id) => write!(f, "section id {id} appears twice"),
            LoadError::MissingSection(name) => write!(f, "required section {name} is missing"),
            LoadError::ChecksumMismatch { section, expected, actual } => write!(
                f,
                "section {section} checksum mismatch (expected {expected:#018x}, got {actual:#018x})"
            ),
            LoadError::Malformed { section, detail } => {
                write!(f, "section {section} is malformed: {detail}")
            }
            LoadError::UnsortedPosting { section, detail } => {
                write!(f, "section {section} has an unsorted posting: {detail}")
            }
            LoadError::DanglingReference { section, detail } => {
                write!(f, "section {section} has a dangling reference: {detail}")
            }
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e.to_string())
    }
}
