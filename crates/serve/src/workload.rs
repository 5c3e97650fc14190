//! Seeded, Zipf-skewed query workload.
//!
//! Real KG serving traffic is heavily skewed — the same head entities
//! recur (the paper's hotness premise) — so the load generator draws
//! entities from a Zipf(s) distribution over a seeded random permutation
//! of the id space. The permutation matters: without it, "hot" would mean
//! "low id", and a direct-mapped cache or contiguous shard would look
//! accidentally better or worse than it is.
//!
//! Sampling is inverse-CDF over precomputed cumulative weights (one
//! binary search per draw), which keeps the sampler immutable and
//! shareable across worker threads; each worker brings its own RNG, so
//! per-worker streams are independent and reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Immutable Zipf(s) sampler over `n` ids, hotness assigned by a seeded
/// permutation.
#[derive(Debug)]
pub struct ZipfSampler {
    /// Cumulative unnormalized weights by rank; `cum[n-1]` is the total.
    cum: Vec<f64>,
    /// `perm[rank]` = entity id holding that hotness rank.
    perm: Vec<u32>,
}

impl ZipfSampler {
    /// A sampler over ids `0..n` with exponent `s >= 0` (0 = uniform),
    /// rank-to-id assignment drawn from `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "zipf over an empty id space");
        assert!(
            s >= 0.0 && s.is_finite(),
            "zipf exponent must be finite and >= 0"
        );
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cum.push(total);
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        Self { cum, perm }
    }

    /// Probability mass of hotness rank `rank` (0 = hottest).
    pub fn mass_of_rank(&self, rank: usize) -> f64 {
        let total = *self.cum.last().expect("n > 0");
        let prev = if rank == 0 { 0.0 } else { self.cum[rank - 1] };
        (self.cum[rank] - prev) / total
    }

    /// Total probability mass of the hottest `k` ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let total = *self.cum.last().expect("n > 0");
        self.cum[k.min(self.cum.len()) - 1] / total
    }

    /// The id holding hotness rank `rank`.
    pub fn id_of_rank(&self, rank: usize) -> u32 {
        self.perm[rank]
    }

    /// Draw one id.
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cum.last().expect("n > 0");
        let u = rng.random_range(0.0..total);
        let rank = self.cum.partition_point(|&c| c <= u);
        self.perm[rank.min(self.perm.len() - 1)]
    }
}

/// One serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Fetch the embedding row of an entity.
    Entity(u32),
    /// Rank the best tails for `(h, r, ?)`.
    TopK {
        /// Head entity.
        h: u32,
        /// Relation.
        r: u32,
    },
}

/// A per-worker deterministic query stream: Zipf-skewed entities, uniform
/// relations, a fixed share of top-k queries.
#[derive(Debug)]
pub struct QueryStream {
    zipf: Arc<ZipfSampler>,
    num_relations: u32,
    topk_share: f64,
    rng: StdRng,
}

impl QueryStream {
    /// A stream over `zipf`'s id space and `num_relations` relations;
    /// `topk_share` in `[0, 1]` of queries are top-k, the rest lookups.
    pub fn new(zipf: Arc<ZipfSampler>, num_relations: u32, topk_share: f64, seed: u64) -> Self {
        assert!(num_relations > 0, "need at least one relation");
        assert!((0.0..=1.0).contains(&topk_share), "topk_share in [0, 1]");
        Self {
            zipf,
            num_relations,
            topk_share,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next query. Infinite; deterministic per seed.
    pub fn next_query(&mut self) -> Query {
        let topk = self.rng.random_range(0.0..1.0) < self.topk_share;
        let e = self.zipf.sample(&mut self.rng);
        if topk {
            let r = self.rng.random_range(0..self.num_relations);
            Query::TopK { h: e, r }
        } else {
            Query::Entity(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let z = Arc::new(ZipfSampler::new(1000, 1.0, 42));
        let mut a = QueryStream::new(z.clone(), 7, 0.1, 5);
        let mut b = QueryStream::new(z, 7, 0.1, 5);
        for _ in 0..500 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let z = Arc::new(ZipfSampler::new(1000, 1.0, 42));
        let mut a = QueryStream::new(z.clone(), 7, 0.1, 5);
        let mut b = QueryStream::new(z, 7, 0.1, 6);
        let same = (0..200)
            .filter(|_| a.next_query() == b.next_query())
            .count();
        assert!(same < 100, "streams barely diverge: {same}/200 equal");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let z = ZipfSampler::new(513, 1.0, 9);
        let mut seen = vec![false; 513];
        for rank in 0..513 {
            let id = z.id_of_rank(rank) as usize;
            assert!(!seen[id]);
            seen[id] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    /// Empirical head mass matches the analytic CDF within tolerance —
    /// the skew is really Zipf, not "sort of skewed".
    #[test]
    fn empirical_skew_matches_analytic_mass() {
        let n = 2000;
        let z = Arc::new(ZipfSampler::new(n, 1.0, 17));
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 200_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for head in [1usize, 10, 100, 500] {
            let expected = z.head_mass(head);
            let observed: u64 = (0..head).map(|r| counts[z.id_of_rank(r) as usize]).sum();
            let observed = observed as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "head {head}: observed {observed:.4} vs analytic {expected:.4}"
            );
        }
        // Rank 0 is the single most frequent id.
        let max_id = (0..n).max_by_key(|&i| counts[i]).unwrap();
        assert_eq!(max_id as u32, z.id_of_rank(0));
    }

    #[test]
    fn uniform_exponent_is_flat() {
        let z = ZipfSampler::new(100, 0.0, 1);
        for rank in 0..100 {
            assert!((z.mass_of_rank(rank) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn topk_share_is_respected() {
        let z = Arc::new(ZipfSampler::new(100, 1.0, 2));
        let mut s = QueryStream::new(z, 3, 0.25, 11);
        let topk = (0..20_000)
            .filter(|_| matches!(s.next_query(), Query::TopK { .. }))
            .count();
        let share = topk as f64 / 20_000.0;
        assert!((share - 0.25).abs() < 0.02, "share {share}");
    }
}
