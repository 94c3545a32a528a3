//! Open-loop arrival schedules for frontend experiments.
//!
//! Closed-loop drivers ([`crate::service_workload`] behind threads calling
//! `QueryService::run`) measure *capacity*: N threads, each issuing
//! its next request only after the previous one answers, so offered load
//! can never exceed service rate. An **open-loop** driver instead fixes
//! the *arrival process* — requests arrive per a schedule whether or not
//! earlier ones finished — which is the regime where queues grow, latency
//! tails matter, and load shedding earns its keep.
//!
//! Arrivals here are Poisson-ish: exponential interarrival gaps drawn
//! from the workspace's seeded RNG via inverse-CDF (`-ln(1-u)/λ`), so a
//! schedule is fully deterministic for a given seed while still
//! exhibiting the bursts-and-lulls character of memoryless traffic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_query::Query;

use crate::service_workload::{respell, Zipf};

/// Knobs for [`open_loop_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// RNG seed: same seed, same arrivals, same query choices.
    pub seed: u64,
    /// Total arrivals in the schedule.
    pub arrivals: usize,
    /// Mean arrival rate λ, in arrivals per second of schedule time.
    pub rate_per_sec: f64,
    /// Number of distinct queries drawn from the pool.
    pub distinct: usize,
    /// Zipf skew exponent over the distinct set (`0` = uniform).
    pub zipf_s: f64,
    /// Emit each arrival as a freshly shuffled spelling of its query.
    pub shuffle_spellings: bool,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            seed: 31,
            arrivals: 4096,
            rate_per_sec: 50_000.0,
            distinct: 16,
            zipf_s: 1.1,
            shuffle_spellings: true,
        }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Offset from schedule start, in microseconds.
    pub at_us: u64,
    /// The request to submit (possibly a respelled duplicate).
    pub query: Query,
    /// Index into the schedule's distinct set.
    pub distinct_index: usize,
}

/// A deterministic open-loop arrival schedule.
#[derive(Debug, Clone)]
pub struct OpenLoopSchedule {
    /// The distinct queries, by popularity rank (index 0 = hottest).
    pub distinct: Vec<Query>,
    /// Arrivals ordered by non-decreasing `at_us`.
    pub arrivals: Vec<Arrival>,
}

impl OpenLoopSchedule {
    /// Total schedule span in microseconds (last arrival's offset).
    pub fn span_us(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at_us)
    }

    /// The offered rate realized by the schedule, in arrivals per second.
    pub fn offered_per_sec(&self) -> f64 {
        let span = self.span_us();
        if span == 0 {
            return 0.0;
        }
        self.arrivals.len() as f64 / (span as f64 / 1e6)
    }
}

/// Builds a Poisson-ish Zipf-skewed arrival schedule from `pool`.
///
/// Deterministic: interarrival gaps are `-ln(1-u)/λ` with `u` from the
/// seeded [`StdRng`] stream, truncated to whole microseconds.
pub fn open_loop_schedule(pool: &[Query], config: &OpenLoopConfig) -> OpenLoopSchedule {
    assert!(!pool.is_empty(), "open-loop schedule needs a non-empty query pool");
    assert!(config.rate_per_sec > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut distinct: Vec<Query> = pool.to_vec();
    use rand::seq::SliceRandom;
    distinct.shuffle(&mut rng);
    distinct.truncate(config.distinct.max(1));
    let zipf = Zipf::new(distinct.len(), config.zipf_s);
    let mean_gap_us = 1e6 / config.rate_per_sec;
    let mut at = 0.0f64;
    let mut arrivals = Vec::with_capacity(config.arrivals);
    for _ in 0..config.arrivals {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() * mean_gap_us;
        let i = zipf.sample(&mut rng);
        let query = if config.shuffle_spellings {
            respell(&distinct[i], &mut rng)
        } else {
            distinct[i].clone()
        };
        arrivals.push(Arrival { at_us: at as u64, query, distinct_index: i });
    }
    OpenLoopSchedule { distinct, arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_schema::bench_catalog;
    use crate::constraint_gen::{generate_constraints, ConstraintGenConfig};
    use crate::query_gen::{paper_query_set, QueryGenConfig};

    fn pool() -> Vec<Query> {
        let catalog = bench_catalog().unwrap();
        let generated = generate_constraints(&catalog, ConstraintGenConfig::default()).unwrap();
        paper_query_set(&catalog, &generated.forcings, 40, &QueryGenConfig::default())
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let pool = pool();
        let config = OpenLoopConfig { arrivals: 500, ..Default::default() };
        let a = open_loop_schedule(&pool, &config);
        let b = open_loop_schedule(&pool, &config);
        assert_eq!(a.arrivals.len(), 500);
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(x.at_us, y.at_us);
            assert_eq!(x.query, y.query);
            assert_eq!(x.distinct_index, y.distinct_index);
        }
        for pair in a.arrivals.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us, "arrivals must be time-ordered");
        }
    }

    #[test]
    fn realized_rate_tracks_the_configured_rate() {
        let pool = pool();
        let schedule = open_loop_schedule(
            &pool,
            &OpenLoopConfig { arrivals: 8000, rate_per_sec: 10_000.0, ..Default::default() },
        );
        let realized = schedule.offered_per_sec();
        assert!(
            (7_000.0..13_000.0).contains(&realized),
            "realized {realized}/s should approximate the configured 10k/s"
        );
    }

    #[test]
    fn arrivals_canonicalize_to_their_distinct_query() {
        let pool = pool();
        let schedule =
            open_loop_schedule(&pool, &OpenLoopConfig { arrivals: 200, ..Default::default() });
        for arrival in &schedule.arrivals {
            assert_eq!(
                arrival.query.canonical(),
                schedule.distinct[arrival.distinct_index].canonical()
            );
        }
    }
}
