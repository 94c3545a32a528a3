//! Little-endian byte writer/reader primitives.
//!
//! All multi-byte integers in the `.sqos` format are little-endian
//! (`docs/FORMAT.md` §2). The reader is built for untrusted input: every
//! read is bounds-checked and fails with a section-tagged
//! [`LoadError::Malformed`], and decoded counts never pre-allocate more
//! than a small constant (callers grow vectors element by element).

use crate::error::LoadError;

/// Append-only little-endian encoder for one section payload.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as the little-endian bytes of its IEEE-754 bit
    /// pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a `u32` byte-length prefix followed by the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// The exclusive upper bound on an epoch a snapshot may carry: 2^63.
/// Every change to a loaded store or database adds one to an epoch, so a
/// loaded epoch must leave room for them; below 2^63 there are 2^63 more.
pub const EPOCH_LIMIT: u64 = 1 << 63;

/// Bounds-checked little-endian decoder over one section payload.
///
/// Carries the section's human-readable name so every failure is a
/// section-tagged [`LoadError::Malformed`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, tagging errors with `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self { buf, pos: 0, section }
    }

    /// The section name errors are tagged with.
    pub fn section(&self) -> &'static str {
        self.section
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet consumed, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// A section-tagged [`LoadError::Malformed`] at the current position.
    pub fn malformed(&self, detail: impl Into<String>) -> LoadError {
        LoadError::Malformed { section: self.section, detail: detail.into() }
    }

    /// Fails unless every byte of the payload has been consumed — trailing
    /// garbage means the encoder and decoder disagree about the layout.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] when bytes remain.
    pub fn expect_exhausted(&self) -> Result<(), LoadError> {
        if self.remaining() != 0 {
            return Err(self.malformed(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }

    /// Reads exactly `N` bytes as a fixed-width array. `take(N)` returns
    /// an `N`-byte slice by construction, so the conversion maps its
    /// impossible failure into the same malformed-input error instead of
    /// panicking.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], LoadError> {
        let bytes = self.take(N)?;
        bytes.try_into().map_err(|_| self.malformed("fixed-width field"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if self.remaining() < n {
            return Err(self.malformed(format!(
                "short read: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read.
    pub fn u8(&mut self) -> Result<u8, LoadError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read.
    pub fn u16(&mut self) -> Result<u16, LoadError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read.
    pub fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read.
    pub fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64` epoch (a data epoch or a constraint-store
    /// epoch), refusing one at or above [`EPOCH_LIMIT`].
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read or an epoch past the limit.
    pub fn epoch(&mut self) -> Result<u64, LoadError> {
        let epoch = self.u64()?;
        if epoch >= EPOCH_LIMIT {
            return Err(self.malformed(format!("epoch {epoch} is at or above 2^63")));
        }
        Ok(epoch)
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read.
    pub fn i64(&mut self) -> Result<i64, LoadError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from the little-endian bytes of its IEEE-754 bit
    /// pattern.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read.
    pub fn f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, LoadError> {
        Ok(self.str_ref()?.to_owned())
    }

    /// Reads a `u32` length-prefixed UTF-8 string without copying it out of
    /// the payload. The hot decode paths use this to allocate at most once
    /// per string (or not at all, via a [`crate::StrPool`]).
    ///
    /// # Errors
    /// [`LoadError::Malformed`] on a short read or invalid UTF-8.
    pub fn str_ref(&mut self) -> Result<&'a str, LoadError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.malformed("invalid utf-8 in string"))
    }

    /// Reads a `u32` element count for a sequence that follows. The count is
    /// sanity-bounded by the remaining payload (each element needs at least
    /// one byte), so a hostile count cannot drive a huge pre-allocation.
    ///
    /// # Errors
    /// [`LoadError::Malformed`] when the count exceeds the bytes left.
    pub fn count(&mut self) -> Result<usize, LoadError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.malformed(format!(
                "count {n} exceeds the {} bytes left in the section",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(2.5);
        w.str("héllo");
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn short_reads_are_malformed_not_panics() {
        let mut r = ByteReader::new(&[1, 2], "TEST");
        let err = r.u64().unwrap_err();
        assert!(matches!(err, LoadError::Malformed { section: "TEST", .. }), "{err}");
    }

    #[test]
    fn hostile_count_is_rejected() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        assert!(r.count().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let buf = [0u8; 3];
        let mut r = ByteReader::new(&buf, "TEST");
        r.u8().unwrap();
        assert!(r.expect_exhausted().is_err());
    }
}
