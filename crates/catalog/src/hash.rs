//! The hash of every value-keyed map a load builds.
//!
//! A cold load groups and counts every value of every indexed column, and a
//! snapshot load interns every string it decodes: millions of short keys,
//! for which the standard library's SipHash costs more than the map around
//! it. [`ValueHashState`] folds each 64-bit word into an accumulator with
//! one 64×64→128-bit multiply whose halves are XORed (a *folded* multiply):
//! the word is XORed in, and the accumulator is folded with the key.
//! Strings are read 8 bytes at a time.
//!
//! [`Hasher::finish`] folds the accumulator once more, with a second key,
//! to mix the high bits into the low ones. One fold by a fixed key leaves
//! values that differ only in their high bits (multiples of 2^32, say)
//! poorly spread over the low bits a table indexes its buckets by, for about
//! a quarter of all keys (73 of 300 tried); after the second fold, each of
//! the 300 spread them like a random function.
//!
//! Both keys and the seed are drawn from [`RandomState`] when the state is
//! built, so two maps hash alike only by chance and keys crafted to collide
//! in one do not collide in the next; that keeps the keyed map's protection
//! for keys read from a file. The state is process-local: no hash is ever
//! persisted.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The high and low halves of `a × b`, XORed.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// A keyed [`BuildHasher`] for maps keyed by values or strings; see the
/// module docs.
#[derive(Debug, Clone, Copy)]
pub struct ValueHashState {
    seed: u64,
    key: u64,
    last: u64,
}

impl ValueHashState {
    /// A state keyed from a fresh [`RandomState`].
    pub fn new() -> Self {
        let random = RandomState::new();
        // A zero key would fold every accumulator to zero.
        let key = |i: u64| random.hash_one(i) | 1;
        Self { seed: random.hash_one(0u64), key: key(1), last: key(2) }
    }
}

impl Default for ValueHashState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for ValueHashState {
    type Hasher = ValueHasher;

    #[inline]
    fn build_hasher(&self) -> ValueHasher {
        ValueHasher { acc: self.seed, key: self.key, last: self.last }
    }
}

/// One [`ValueHashState`] hash in progress.
#[derive(Debug, Clone)]
pub struct ValueHasher {
    acc: u64,
    key: u64,
    last: u64,
}

impl Hasher for ValueHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.last)
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = fold(self.acc ^ word, self.key);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length first, so a short tail's zero padding is not a byte.
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut le = [0; 8];
            le.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(le));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut le = [0; 8];
            le[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(le));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    /// The share of distinct low-16-bit hashes among `values` — about 63 %
    /// for 2^16 values under a random function.
    fn low_bits_spread<T: std::hash::Hash>(state: &ValueHashState, values: &[T]) -> f64 {
        let mut seen = vec![false; 1 << 16];
        for v in values {
            seen[(state.hash_one(v) & 0xffff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count() as f64 / values.len() as f64
    }

    /// Under each of 32 fresh states: one fold by a fixed key spreads the
    /// multiples poorly for about a quarter of all keys, so a `finish`
    /// without its fold fails here but for a chance of about 10^-4.
    #[test]
    fn values_sharing_their_low_bits_spread_over_the_low_bits() {
        let n = 1 << 16;
        let multiples: Vec<Value> = (0..n).map(|i| Value::Int(i << 32)).collect();
        let prefix = "p".repeat(40);
        let strings: Vec<Value> = (0..n).map(|i| Value::str(format!("{prefix}{i}"))).collect();
        for _ in 0..32 {
            let state = ValueHashState::new();
            let spread = low_bits_spread(&state, &multiples);
            assert!(spread >= 0.55, "multiples of 2^32: {:.1} % distinct", 100.0 * spread);
            let spread = low_bits_spread(&state, &strings);
            assert!(spread >= 0.55, "40-byte shared prefix: {:.1} % distinct", 100.0 * spread);
        }
    }

    #[test]
    fn two_states_hash_one_value_differently() {
        let (a, b) = (ValueHashState::new(), ValueHashState::new());
        for v in [Value::Int(7), Value::str("SFI"), Value::Bool(true)] {
            assert_ne!(a.hash_one(&v), b.hash_one(&v), "{v}");
        }
        // One state hashes one value the same way every time.
        assert_eq!(a.hash_one(Value::Int(7)), a.hash_one(Value::Int(7)));
    }

    #[test]
    fn a_short_tail_is_told_from_its_zero_padding() {
        let state = ValueHashState::new();
        let written = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(written(b"an eight-byte-plus key"), written(b"an eight-byte-plus key"));
        assert_ne!(written(b"a"), written(b"a\0"));
        assert_ne!(written(b"abcdefgh"), written(b"abcdefgh\0"));
    }
}
