//! Host-speed calibration: what makes a timed number repeat on a shared box.
//!
//! On the 2-core guest this benchmark was written on, the same code runs up
//! to twice slower from one ten-second window to the next (the neighbours'
//! load, not ours: steal time reads zero). No estimator over raw times
//! repeats under that; see `NOISE.md`. So every timed slice of work is
//! followed by a fixed piece of this file's own code — the *kernels* — and
//! the slice's duration is divided by how much slower than nominal the
//! kernels ran next to it. A reported time is therefore "as on a host where
//! the kernels take their nominal time", and two runs made under different
//! neighbours agree.
//!
//! The kernels are benchmark code, compiled with the benchmark: a change to
//! the program under test cannot move them, and parent and change are
//! always measured with the same ones.

use std::hint::black_box;
use std::time::Instant;

/// Objects the allocation kernel holds at most (48 bytes each).
const ALLOC_OBJECTS: u64 = 6000;
const SORT_KEYS: usize = 16_384;

/// What each kernel takes on this box when no neighbour interferes (the
/// fifth percentile of a four-minute recording). They only fix the unit:
/// with other constants every calibrated time scales by one factor.
const ALLOC_NOMINAL_NS: f64 = 140_000.0;
const SORT_NOMINAL_NS: f64 = 240_000.0;

/// The kernels and their state. One per run.
#[derive(Debug)]
pub struct Calibrator {
    keys: Vec<u32>,
    sorted: Vec<u32>,
    sink: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        // A multiplicative congruential sequence: the keys need to be
        // unordered, not random.
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let keys: Vec<u32> = (0..SORT_KEYS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 32) as u32
            })
            .collect();
        Self { sorted: keys.clone(), keys, sink: 0 }
    }

    /// Small-object churn through the global allocator: what building plans,
    /// result sets and cache entries is made of.
    fn alloc_ns(&mut self) -> f64 {
        let start = Instant::now();
        let mut boxes: Vec<Box<[u64; 6]>> = Vec::new();
        for i in 0..ALLOC_OBJECTS {
            boxes.push(Box::new([i; 6]));
            if i % 3 == 0 {
                let at = (i as usize * 7) % boxes.len();
                drop(boxes.swap_remove(at));
            }
        }
        self.sink = self.sink.wrapping_add(boxes.iter().map(|b| b[0]).sum::<u64>());
        drop(boxes);
        start.elapsed().as_nanos() as f64
    }

    /// An unstable sort of `SORT_KEYS` integers: compare, branch, move.
    fn sort_ns(&mut self) -> f64 {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.sink = self.sink.wrapping_add(u64::from(self.sorted[17]));
        start.elapsed().as_nanos() as f64
    }

    /// How many times slower than nominal the host runs right now: the
    /// geometric mean of the kernels' slowdowns. Takes about 0.4 ms.
    pub fn slowdown(&mut self) -> f64 {
        let alloc = self.alloc_ns() / ALLOC_NOMINAL_NS;
        let sort = self.sort_ns() / SORT_NOMINAL_NS;
        black_box(self.sink);
        (alloc * sort).sqrt()
    }
}

/// The host's slowdown over an interval, from the readings taken right
/// before and right after it.
pub fn between(before: f64, after: f64) -> f64 {
    (before * after).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_positive_finite_factor() {
        let mut calibrator = Calibrator::new();
        for _ in 0..3 {
            let s = calibrator.slowdown();
            assert!(s.is_finite() && s > 0.0, "{s}");
        }
        assert_eq!(between(2.0, 8.0), 4.0);
    }
}
