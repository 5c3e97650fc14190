//! Synthetic knowledge-graph generation with controllable skew.
//!
//! The paper's cache exploits the Zipf-like access-frequency distribution of
//! real KGs (Fig. 2): a few entities/relations account for most embedding
//! accesses. The real benchmark files (FB15k, WN18, Freebase-86m) may not be
//! present, so [`SyntheticKg`] generates graphs whose *frequency shape*
//! matches: entity endpoints and relation labels are drawn from Zipf
//! distributions with configurable exponents.

use crate::graph::KnowledgeGraph;
use crate::triple::Triple;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A discrete Zipf(α) sampler over `0..n` using an inverse-CDF table.
///
/// Weight of rank `i` is `(i+1)^-alpha`; ids are sampled with a binary
/// search over the cumulative table, O(log n) per draw.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `0..n` with exponent `alpha >= 0`.
    ///
    /// `alpha = 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs a non-empty support");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Defend against rounding: the last cumulative value must be 1.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Support size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one id.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // partition_point: first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of id `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Configuration for a synthetic skewed knowledge graph.
///
/// The generator draws heads and tails from a Zipf over entities (after a
/// seeded shuffle of ranks, so "hot" ids are scattered across the id space
/// as in real data) and relations from a Zipf over relations.
#[derive(Debug, Clone)]
pub struct SyntheticKg {
    /// Number of entities `n_v`.
    pub num_entities: usize,
    /// Number of relations `n_r`.
    pub num_relations: usize,
    /// Number of triples to generate.
    pub num_triples: usize,
    /// Zipf exponent for entity endpoints (≈1.0 matches FB15k-like skew).
    pub entity_alpha: f64,
    /// Zipf exponent for relation labels (relations are usually *more*
    /// skewed than entities; Fig. 2's observation).
    pub relation_alpha: f64,
    /// Reject self-loops (h == t). Real KGE benchmarks contain none.
    pub forbid_loops: bool,
    /// Deduplicate triples. Costs memory; benchmark-scale graphs keep it on.
    pub dedup: bool,
}

impl Default for SyntheticKg {
    fn default() -> Self {
        Self {
            num_entities: 1_000,
            num_relations: 50,
            num_triples: 10_000,
            entity_alpha: 1.0,
            relation_alpha: 1.2,
            forbid_loops: true,
            dedup: true,
        }
    }
}

impl SyntheticKg {
    /// Scale entity/triple counts by a factor, keeping the shape parameters.
    ///
    /// Useful for running the paper's workloads at laptop scale: the skew
    /// (what the cache exploits) is preserved, only the size shrinks.
    ///
    /// Relations scale by `sqrt(factor)` — slower than entities. This is the
    /// compromise that keeps both halves of the paper's node-heterogeneity
    /// story at small scale: the relation vocabulary stays large enough that
    /// a cache cannot trivially hold it (Fig. 8c, Table VI), while relations
    /// remain *hotter per key* than entities (Fig. 2 — per-key heat scales
    /// like `n_e / n_r`, so shrinking relations fully with the triples would
    /// be needed to preserve it exactly, and keeping them all would invert
    /// it).
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.num_entities = ((self.num_entities as f64 * factor).round() as usize).max(4);
        self.num_triples = ((self.num_triples as f64 * factor).round() as usize).max(4);
        let scaled = ((self.num_relations as f64 * factor.min(1.0).sqrt()).round() as usize).max(2);
        // Never grow the vocabulary: a 1-relation graph stays 1-relation.
        self.num_relations = scaled.min(self.num_relations.max(1));
        self
    }

    /// Generate the graph deterministically from `seed`.
    pub fn build(&self, seed: u64) -> KnowledgeGraph {
        assert!(self.num_entities >= 2, "need at least two entities");
        assert!(self.num_relations >= 1, "need at least one relation");
        let mut rng = StdRng::seed_from_u64(seed);

        // Scatter hotness over the id space: rank -> id permutation.
        let mut entity_perm: Vec<u32> = (0..self.num_entities as u32).collect();
        shuffle(&mut entity_perm, &mut rng);
        let mut relation_perm: Vec<u32> = (0..self.num_relations as u32).collect();
        shuffle(&mut relation_perm, &mut rng);

        let ent = ZipfSampler::new(self.num_entities, self.entity_alpha);
        let rel = ZipfSampler::new(self.num_relations, self.relation_alpha);

        let mut triples = Vec::with_capacity(self.num_triples);
        let mut seen = if self.dedup {
            Some(std::collections::HashSet::with_capacity(
                self.num_triples * 2,
            ))
        } else {
            None
        };
        // Bounded retries guard against tiny/saturated configurations where
        // dedup could otherwise spin forever.
        let max_attempts = self.num_triples.saturating_mul(20).max(1024);
        let mut attempts = 0usize;
        while triples.len() < self.num_triples && attempts < max_attempts {
            attempts += 1;
            let h = entity_perm[ent.sample(&mut rng)];
            let t = entity_perm[ent.sample(&mut rng)];
            if self.forbid_loops && h == t {
                continue;
            }
            let r = relation_perm[rel.sample(&mut rng)];
            let triple = Triple::new(h, r, t);
            if let Some(seen) = seen.as_mut() {
                if !seen.insert(triple) {
                    continue;
                }
            }
            triples.push(triple);
        }
        KnowledgeGraph::new_unchecked(self.num_entities, self.num_relations, triples)
    }
}

/// Fisher–Yates shuffle (avoids depending on rand's `SliceRandom` feature
/// surface; deterministic under `StdRng`).
fn shuffle<T, R: RngExt + ?Sized>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = ZipfSampler::new(100, 1.1);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "pmf total {total}");
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = ZipfSampler::new(50, 0.8);
        for i in 1..50 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_empirical_skew() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Top-10 ranks should dominate: with alpha=1 over 1000 items the top
        // 1% carries ~39% of mass.
        let top10: u64 = counts[..10].iter().sum();
        assert!(top10 > 15_000, "top-10 mass {top10} too small for Zipf(1)");
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = SyntheticKg {
            num_entities: 200,
            num_relations: 10,
            num_triples: 500,
            ..Default::default()
        };
        let a = cfg.build(42);
        let b = cfg.build(42);
        assert_eq!(a.triples(), b.triples());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SyntheticKg {
            num_entities: 200,
            num_relations: 10,
            num_triples: 500,
            ..Default::default()
        };
        let a = cfg.build(1);
        let b = cfg.build(2);
        assert_ne!(a.triples(), b.triples());
    }

    #[test]
    fn generator_respects_counts_and_constraints() {
        let cfg = SyntheticKg {
            num_entities: 300,
            num_relations: 12,
            num_triples: 2_000,
            ..Default::default()
        };
        let g = cfg.build(3);
        assert_eq!(g.num_entities(), 300);
        assert_eq!(g.num_relations(), 12);
        assert_eq!(g.num_triples(), 2_000);
        for t in g.triples() {
            assert_ne!(t.head, t.tail, "no self-loops");
        }
        // dedup on by default
        let set: std::collections::HashSet<_> = g.triples().iter().collect();
        assert_eq!(set.len(), g.num_triples());
    }

    #[test]
    fn saturated_config_terminates_short() {
        // 3 entities, loops forbidden, dedup on: at most 3*2*1=6 triples exist.
        let cfg = SyntheticKg {
            num_entities: 3,
            num_relations: 1,
            num_triples: 100,
            ..Default::default()
        };
        let g = cfg.build(5);
        assert!(g.num_triples() <= 6);
    }

    #[test]
    fn relation_skew_exceeds_entity_skew() {
        let cfg = SyntheticKg {
            num_entities: 2_000,
            num_relations: 100,
            num_triples: 20_000,
            entity_alpha: 1.0,
            relation_alpha: 1.4,
            ..Default::default()
        };
        let g = cfg.build(11);
        let mut rel = g.relation_frequencies();
        rel.sort_unstable_by(|a, b| b.cmp(a));
        let rel_top: u64 = rel.iter().take(1).sum();
        // The hottest relation should label a sizeable share of all triples.
        assert!(rel_top as f64 / g.num_triples() as f64 > 0.1);
    }

    #[test]
    fn scale_shrinks_relations_by_sqrt() {
        let cfg = SyntheticKg {
            num_entities: 10_000,
            num_relations: 100,
            num_triples: 100_000,
            ..Default::default()
        }
        .scale(0.01);
        assert_eq!(cfg.num_entities, 100);
        assert_eq!(cfg.num_triples, 1_000);
        // sqrt(0.01) = 0.1 → 10 relations: the vocabulary shrinks slower
        // than the graph, but per-key relation heat stays above entities'.
        assert_eq!(cfg.num_relations, 10);
        // Scaling up never inflates the vocabulary.
        let up = SyntheticKg {
            num_entities: 100,
            num_relations: 10,
            num_triples: 1_000,
            ..Default::default()
        }
        .scale(2.0);
        assert_eq!(up.num_relations, 10);
    }
}
