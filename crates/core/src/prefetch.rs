//! Algorithm 1 — `prefetch`: sample the next `D` iterations of mini-batches
//! in advance and record which embeddings they will touch.
//!
//! For each of the `D` iterations the worker samples a positive mini-batch
//! from its subgraph, corrupts it into negatives, and appends every
//! triple's head/relation/tail to the access list `L_er` (raw, per use —
//! Algorithm 1's append loop). The sampled batches themselves (`L_s`) are
//! kept so training can replay exactly what was prefetched — that is what
//! makes the DPS cache contents match the upcoming accesses.

use hetkg_embed::negative::{Negative, NegativeSampler};
use hetkg_kgraph::{KeySpace, ParamKey, Triple};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// One training iteration's samples: positives and their corruptions.
#[derive(Debug, Clone, Default)]
pub struct MiniBatch {
    /// Positive triples drawn from the worker's subgraph.
    pub positives: Vec<Triple>,
    /// Negatives produced by corruption.
    pub negatives: Vec<Negative>,
}

impl MiniBatch {
    /// Distinct keys (entities and relations) this batch touches, in
    /// first-seen order.
    pub fn unique_keys(&self, ks: KeySpace) -> Vec<ParamKey> {
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        let mut push = |k: ParamKey| {
            if seen.insert(k) {
                keys.push(k);
            }
        };
        for t in self
            .positives
            .iter()
            .chain(self.negatives.iter().map(|n| &n.triple))
        {
            push(ks.entity_key(t.head));
            push(ks.relation_key(t.relation));
            push(ks.entity_key(t.tail));
        }
        keys
    }
}

/// The output of Algorithm 1: the sample list `L_s` and the access list
/// `L_er`.
#[derive(Debug, Clone)]
pub struct Prefetched {
    /// `L_s`: one mini-batch per prefetched iteration.
    pub batches: Vec<MiniBatch>,
    /// `L_er`: every key access of every prefetched triple (head, relation,
    /// tail of positives and negatives alike, no dedup — Algorithm 1 lines
    /// 7–8 append raw). Frequency in this list is embedding *usage*, the
    /// quantity the filter ranks by.
    pub accesses: Vec<ParamKey>,
}

/// Samples mini-batches from a worker's subgraph (with replacement across
/// batches, without replacement within one batch when possible).
#[derive(Debug)]
pub struct Prefetcher {
    batch_size: usize,
    key_space: KeySpace,
    rng: StdRng,
    /// The identity permutation over the subgraph's indices between draws.
    /// A draw swaps `batch_size` entries to the front and then undoes those
    /// swaps, so each batch costs O(batch), not O(subgraph).
    perm: Vec<u32>,
    /// The swap partners of the draw in progress, for undoing it.
    swaps: Vec<u32>,
}

impl Prefetcher {
    /// Prefetcher producing batches of `batch_size` positives.
    pub fn new(batch_size: usize, key_space: KeySpace, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            batch_size,
            key_space,
            rng: StdRng::seed_from_u64(seed),
            perm: Vec::new(),
            swaps: Vec::new(),
        }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Sample one positive mini-batch from `triples`.
    pub fn sample_batch(&mut self, triples: &[Triple]) -> Vec<Triple> {
        let mut out = Vec::new();
        self.sample_batch_into(triples, &mut out);
        out
    }

    /// [`Prefetcher::sample_batch`] into a reused buffer (cleared first).
    pub fn sample_batch_into(&mut self, triples: &[Triple], out: &mut Vec<Triple>) {
        assert!(!triples.is_empty(), "cannot sample from an empty subgraph");
        out.clear();
        let n = triples.len();
        if n <= self.batch_size {
            out.extend_from_slice(triples);
            return;
        }
        if self.perm.len() != n {
            self.perm.clear();
            self.perm.extend(0..n as u32);
        }
        // Partial Fisher–Yates over indices for a without-replacement draw.
        self.swaps.clear();
        for i in 0..self.batch_size {
            let j = self.rng.random_range(i..n);
            self.perm.swap(i, j);
            self.swaps.push(j as u32);
        }
        out.extend(
            self.perm[..self.batch_size]
                .iter()
                .map(|&i| triples[i as usize]),
        );
        // Undo in reverse: the permutation is the identity again.
        for (i, &j) in self.swaps.iter().enumerate().rev() {
            self.perm.swap(i, j as usize);
        }
    }

    /// Draw one iteration's samples into `batch` (reusing its buffers): a
    /// positive mini-batch from `triples` and its corruptions by `neg`.
    pub fn draw_into(
        &mut self,
        triples: &[Triple],
        neg: &mut NegativeSampler,
        batch: &mut MiniBatch,
    ) {
        self.sample_batch_into(triples, &mut batch.positives);
        batch.negatives.clear();
        neg.corrupt_batch(&batch.positives, &mut batch.negatives);
    }

    /// Algorithm 1: prefetch `d` iterations from `triples`, corrupting with
    /// `neg`.
    pub fn prefetch(
        &mut self,
        triples: &[Triple],
        neg: &mut NegativeSampler,
        d: usize,
    ) -> Prefetched {
        assert!(d > 0, "prefetch depth must be positive");
        let mut batches = Vec::with_capacity(d);
        let mut accesses = Vec::new();
        for _ in 0..d {
            let mut batch = MiniBatch::default();
            self.draw_into(triples, neg, &mut batch);
            for t in batch
                .positives
                .iter()
                .chain(batch.negatives.iter().map(|n| &n.triple))
            {
                accesses.push(self.key_space.entity_key(t.head));
                accesses.push(self.key_space.relation_key(t.relation));
                accesses.push(self.key_space.entity_key(t.tail));
            }
            batches.push(batch);
        }
        Prefetched { batches, accesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::negative::{NegConfig, NegStrategy};
    use hetkg_kgraph::generator::SyntheticKg;

    fn setup() -> (Vec<Triple>, KeySpace, NegativeSampler) {
        let g = SyntheticKg {
            num_entities: 100,
            num_relations: 8,
            num_triples: 500,
            ..Default::default()
        }
        .build(1);
        let ks = g.key_space();
        let neg = NegativeSampler::new(
            g.num_entities(),
            NegConfig {
                per_positive: 2,
                strategy: NegStrategy::Independent,
            },
            7,
        );
        (g.triples().to_vec(), ks, neg)
    }

    #[test]
    fn prefetch_produces_d_batches() {
        let (triples, ks, mut neg) = setup();
        let mut p = Prefetcher::new(16, ks, 3);
        let out = p.prefetch(&triples, &mut neg, 5);
        assert_eq!(out.batches.len(), 5);
        for b in &out.batches {
            assert_eq!(b.positives.len(), 16);
            assert_eq!(b.negatives.len(), 32);
        }
        assert!(!out.accesses.is_empty());
    }

    #[test]
    fn unique_keys_deduplicates_within_batch() {
        let ks = KeySpace::new(10, 2);
        let b = MiniBatch {
            positives: vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2)],
            negatives: vec![],
        };
        let keys = b.unique_keys(ks);
        // head 0 and relation 0 appear twice but are listed once.
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0], ks.entity_key(hetkg_kgraph::EntityId(0)));
    }

    #[test]
    fn accesses_count_raw_usage() {
        // A key used by every triple of every batch appears once per use in
        // L_er — usage frequency is the filter's ranking signal.
        let ks = KeySpace::new(4, 1);
        let triples = vec![Triple::new(0, 0, 1)];
        let mut neg = NegativeSampler::new(
            4,
            NegConfig {
                per_positive: 1,
                strategy: NegStrategy::Independent,
            },
            1,
        );
        let mut p = Prefetcher::new(1, ks, 1);
        let out = p.prefetch(&triples, &mut neg, 3);
        let rel_key = ks.relation_key(hetkg_kgraph::RelationId(0));
        let count = out.accesses.iter().filter(|&&k| k == rel_key).count();
        // 3 batches × (1 positive + 1 negative) = 6 relation uses.
        assert_eq!(count, 6);
        // And every batch contributes 3 keys per triple.
        assert_eq!(out.accesses.len(), 3 * 2 * 3);
    }

    #[test]
    fn small_subgraph_batches_are_whole_subgraph() {
        let (mut triples, ks, _) = setup();
        triples.truncate(4);
        let mut p = Prefetcher::new(16, ks, 1);
        let b = p.sample_batch(&triples);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn batch_sampling_is_without_replacement() {
        let (triples, ks, _) = setup();
        let mut p = Prefetcher::new(50, ks, 9);
        let b = p.sample_batch(&triples);
        let set: HashSet<_> = b.iter().collect();
        assert_eq!(set.len(), b.len());
    }

    #[test]
    fn draws_equal_a_fresh_fisher_yates_and_leave_the_permutation_intact() {
        // The reused identity permutation must give exactly the batches a
        // fresh `0..n` array per draw gives (same RNG calls, same swaps),
        // batch after batch, and across a change of subgraph length.
        let (triples, ks, _) = setup();
        let mut p = Prefetcher::new(24, ks, 17);
        let mut oracle = StdRng::seed_from_u64(17);
        for round in 0..6 {
            let sub = if round < 4 {
                &triples[..]
            } else {
                &triples[..300]
            };
            let n = sub.len();
            let mut idx: Vec<u32> = (0..n as u32).collect();
            for i in 0..24 {
                let j = oracle.random_range(i..n);
                idx.swap(i, j);
            }
            let want: Vec<Triple> = idx[..24].iter().map(|&i| sub[i as usize]).collect();
            assert_eq!(p.sample_batch(sub), want, "round {round}");
            assert!(p.perm.iter().enumerate().all(|(i, &v)| v as usize == i));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (triples, ks, _) = setup();
        let mk = || {
            let mut neg = NegativeSampler::new(
                100,
                NegConfig {
                    per_positive: 2,
                    strategy: NegStrategy::Independent,
                },
                7,
            );
            let mut p = Prefetcher::new(8, ks, 5);
            p.prefetch(&triples, &mut neg, 3)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.accesses, b.accesses);
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.positives, y.positives);
        }
    }
}
