//! Serving-layer workloads: multi-client repeated-query traffic.
//!
//! Real query traffic is not 40 fresh queries — it is a *small* set of
//! distinct queries issued over and over, with popularity following a
//! heavy-tailed (Zipf-like) law. This module turns a scenario's query pool
//! into such a request stream: `distinct` queries are drawn from the pool,
//! a [`Zipf`] sampler picks which query each request repeats, and (to keep
//! the serving layer honest) each request may arrive as a freshly
//! *shuffled spelling* — same query, different predicate/class order — so a
//! cache keyed on anything weaker than the canonical form misses.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqo_query::Query;

/// Knobs for [`service_workload`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceWorkloadConfig {
    pub seed: u64,
    /// Number of distinct queries drawn from the pool.
    pub distinct: usize,
    /// Total requests in the stream.
    pub requests: usize,
    /// Zipf skew exponent `s` (popularity ∝ 1/rankˢ). `0` = uniform.
    pub zipf_s: f64,
    /// Emit each request as a shuffled spelling of its query (list parts
    /// permuted) instead of the verbatim pool query.
    pub shuffle_spellings: bool,
}

impl Default for ServiceWorkloadConfig {
    fn default() -> Self {
        Self { seed: 29, distinct: 16, requests: 1024, zipf_s: 1.1, shuffle_spellings: true }
    }
}

/// A generated request stream over a fixed distinct-query set.
#[derive(Debug, Clone)]
pub struct ServiceWorkload {
    /// The distinct queries, by popularity rank (index 0 = hottest).
    pub distinct: Vec<Query>,
    /// The request stream (possibly respelled queries).
    pub requests: Vec<Query>,
    /// For each request, the index into `distinct` it repeats.
    pub indices: Vec<usize>,
}

impl ServiceWorkload {
    /// Requests per distinct query — the skew profile.
    pub fn frequencies(&self) -> Vec<usize> {
        let mut f = vec![0usize; self.distinct.len()];
        for &i in &self.indices {
            f[i] += 1;
        }
        f
    }
}

/// Zipf(n, s) sampler over ranks `0..n` via an inverse-CDF table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights `1/(k+1)ˢ` for rank `k`, normalized. `n` must be ≥ 1.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf over an empty rank set");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A deterministic respelling: every list part of the query permuted.
/// Canonically identical to the input (the property the plan cache and the
/// `prop_canonical` suite both rely on).
pub fn respell(query: &Query, rng: &mut StdRng) -> Query {
    let mut q = query.clone();
    q.projections.shuffle(rng);
    q.join_predicates.shuffle(rng);
    q.selective_predicates.shuffle(rng);
    q.relationships.shuffle(rng);
    q.classes.shuffle(rng);
    q
}

/// Builds a Zipf-skewed repeated-query request stream from `pool`
/// (typically a [`crate::PaperScenario`]'s 40 path queries).
pub fn service_workload(pool: &[Query], config: &ServiceWorkloadConfig) -> ServiceWorkload {
    assert!(!pool.is_empty(), "service workload needs a non-empty query pool");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut distinct: Vec<Query> = pool.to_vec();
    distinct.shuffle(&mut rng);
    distinct.truncate(config.distinct.max(1));
    let zipf = Zipf::new(distinct.len(), config.zipf_s);
    let mut requests = Vec::with_capacity(config.requests);
    let mut indices = Vec::with_capacity(config.requests);
    for _ in 0..config.requests {
        let i = zipf.sample(&mut rng);
        indices.push(i);
        requests.push(if config.shuffle_spellings {
            respell(&distinct[i], &mut rng)
        } else {
            distinct[i].clone()
        });
    }
    ServiceWorkload { distinct, requests, indices }
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
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0usize; 10];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[4] && counts[4] > counts[9], "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1600..2400).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn workload_is_deterministic_and_well_formed() {
        let pool = pool();
        let config = ServiceWorkloadConfig { requests: 200, ..Default::default() };
        let a = service_workload(&pool, &config);
        let b = service_workload(&pool, &config);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.distinct.len(), 16);
        assert_eq!(a.requests.len(), 200);
        assert_eq!(a.frequencies().iter().sum::<usize>(), 200);
    }

    #[test]
    fn respelled_requests_canonicalize_to_their_distinct_query() {
        let pool = pool();
        let wl =
            service_workload(&pool, &ServiceWorkloadConfig { requests: 100, ..Default::default() });
        for (req, &i) in wl.requests.iter().zip(&wl.indices) {
            assert_eq!(req.canonical(), wl.distinct[i].canonical());
            assert_eq!(req.fingerprint(), wl.distinct[i].fingerprint());
        }
    }

    #[test]
    fn skew_concentrates_traffic_on_hot_queries() {
        let pool = pool();
        let wl = service_workload(
            &pool,
            &ServiceWorkloadConfig { requests: 2000, zipf_s: 1.3, ..Default::default() },
        );
        let f = wl.frequencies();
        let hot: usize = f.iter().take(4).sum();
        assert!(hot * 2 > 2000, "top-4 of 16 queries should carry >50% of traffic: {f:?}");
    }
}
