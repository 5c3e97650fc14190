//! Algorithm 1 — `prefetch`: sample the next `D` iterations of mini-batches
//! in advance and record which embeddings they will touch.
//!
//! For each of the `D` iterations the worker samples a positive mini-batch
//! from its subgraph and corrupts it into negatives. The sampled batches
//! themselves (`L_s`) are kept so training can replay exactly what was
//! prefetched — that is what makes the DPS cache contents match the upcoming
//! accesses. The access list `L_er` is kept as *statistics* rather than as a
//! raw list: per key of the window, how many uses it has and — what a cached
//! copy actually saves, because a batch pulls each distinct key once — how
//! many of the `D` batches read it, and which ([`KeyReads`]). The window
//! therefore knows, for every key, the last batch that reads it before any
//! point — which is when a worker that holds the row's gradients can let
//! them go. The counters live in the window's entries; the prefetcher keeps
//! only a key-indexed mark per key saying where a key's entry is, stamped by
//! window so nothing is zeroed per window.

use hetkg_embed::negative::{Negative, NegativeSampler};
use hetkg_kgraph::{KeySpace, ParamKey, Triple};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One training iteration's samples: positives and their corruptions.
#[derive(Debug, Clone, Default)]
pub struct MiniBatch {
    /// Positive triples drawn from the worker's subgraph.
    pub positives: Vec<Triple>,
    /// Negatives produced by corruption.
    pub negatives: Vec<Negative>,
}

/// How a prefetched window reads one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyReads {
    /// The key.
    pub key: ParamKey,
    /// Batches of the window that read the key at least once. A batch pulls
    /// each distinct key once however often it uses it, so this — not
    /// `uses` — is the number of pulls a cached copy can stand in for.
    pub batches: u32,
    /// Raw uses over the window: every head/relation/tail occurrence of
    /// every positive and negative (Algorithm 1 lines 7–8 count these).
    pub uses: u32,
    /// Which batches read the key: bit `b` is set when batch `b` of the
    /// window does. `batches` is its popcount while the window is no deeper
    /// than [`KeyReads::BATCH_BITS`]; deeper batches are not recorded.
    pub in_batches: u64,
}

impl KeyReads {
    /// How many of a window's batches [`KeyReads::in_batches`] records.
    pub const BATCH_BITS: usize = u64::BITS as usize;

    /// Whether any batch of `batches` (indices into the window) reads the
    /// key. A batch past the recorded ones counts as reading it: whoever
    /// asks in order to act on "nobody reads this row for a while" must not
    /// act on what the window did not record.
    pub fn read_in(&self, batches: std::ops::Range<usize>) -> bool {
        if batches.end > Self::BATCH_BITS {
            return true;
        }
        let below = |b: usize| ((1u128 << b) - 1) as u64;
        self.in_batches & (below(batches.end) & !below(batches.start)) != 0
    }
}

/// The output of Algorithm 1: the sample list `L_s` and the access
/// statistics of `L_er`.
#[derive(Debug, Clone, Default)]
pub struct Prefetched {
    /// `L_s`: one mini-batch per prefetched iteration.
    pub batches: Vec<MiniBatch>,
    /// `L_er`, counted: one entry per distinct key the window touches, in
    /// first-seen order.
    pub reads: Vec<KeyReads>,
}

/// Where a key's counters are: its entry in the window's `reads`, valid only
/// if `stamp` belongs to the window being counted.
#[derive(Debug, Clone, Copy, Default)]
struct ReadMark {
    /// Stamp of the last batch that read the key. Batches are stamped with a
    /// counter that runs on from window to window, so a mark left by an
    /// earlier window carries a stamp below the current window's first.
    stamp: u32,
    /// Index of the key's entry in `reads`.
    entry: u32,
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
    /// Window statistics scratch, one mark per key of the key space; sized
    /// by the first [`Prefetcher::prefetch_into`] (a sampler that only draws
    /// batches never pays for it).
    marks: Vec<ReadMark>,
    /// The stamp the next window's first batch takes; a window of `d`
    /// batches takes `d` consecutive ones. Never 0, which is what an
    /// untouched mark carries.
    next_stamp: u32,
    /// The first stamp of the latest window: a mark stamped below it belongs
    /// to an earlier one.
    window_first: u32,
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
            marks: Vec::new(),
            next_stamp: 1,
            window_first: 1,
        }
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
        let mut out = Prefetched::default();
        self.prefetch_into(triples, neg, d, &mut out);
        out
    }

    /// [`Prefetcher::prefetch`] into a reused window: `out`'s batches keep
    /// their buffers, so a worker that hands the same `Prefetched` back
    /// every `d` iterations allocates nothing once the largest batch has
    /// been seen.
    pub fn prefetch_into(
        &mut self,
        triples: &[Triple],
        neg: &mut NegativeSampler,
        d: usize,
        out: &mut Prefetched,
    ) {
        assert!(d > 0, "prefetch depth must be positive");
        out.batches.resize_with(d, MiniBatch::default);
        let window = self.begin_window(d, &mut out.reads);
        for b in 0..d {
            self.draw_into(triples, neg, &mut out.batches[b]);
            self.count_batch(&out.batches[b], window, window + b as u32, &mut out.reads);
        }
    }

    /// Open a window of `d` batches and return its first stamp: it takes the
    /// next `d`, under which every mark left by an earlier window is stale.
    fn begin_window(&mut self, d: usize, reads: &mut Vec<KeyReads>) -> u32 {
        reads.clear();
        let d = u32::try_from(d).expect("prefetch depth fits in 32 bits");
        let fresh = self.marks.len() != self.key_space.len();
        if fresh || self.next_stamp.checked_add(d).is_none() {
            // First window, or the stamps ran out: start over from marks
            // that no stamp of this window can match.
            self.marks.clear();
            self.marks.resize(self.key_space.len(), ReadMark::default());
            self.next_stamp = 1;
        }
        let window = self.next_stamp;
        self.next_stamp += d;
        self.window_first = window;
        window
    }

    /// How `window` reads `key`; `None` when none of its batches does.
    /// `window` must be the one the latest [`Prefetcher::prefetch_into`]
    /// filled: the marks that say where a key's entry is are this
    /// prefetcher's, and they are overwritten window after window (which is
    /// why [`Window`](crate::window::Window) holds both).
    pub(crate) fn reads_of<'w>(
        &self,
        window: &'w Prefetched,
        key: ParamKey,
    ) -> Option<&'w KeyReads> {
        let mark = self.marks.get(key.index())?;
        if mark.stamp < self.window_first {
            return None;
        }
        let reads = &window.reads[mark.entry as usize];
        debug_assert_eq!(reads.key, key, "the window is not the latest prefetched");
        Some(reads)
    }

    /// Count the batch stamped `stamp` of the window whose first stamp is
    /// `window` into `reads`, appending an entry for each key the window had
    /// not touched yet.
    fn count_batch(
        &mut self,
        batch: &MiniBatch,
        window: u32,
        stamp: u32,
        reads: &mut Vec<KeyReads>,
    ) {
        let (ks, marks) = (self.key_space, &mut self.marks);
        // Load every positive's marks before counting any. Most of a
        // batch's keys are new to the window, their marks are not cached,
        // and the count branches on each; loaded up front, back to back,
        // the misses overlap. Measured on the benchmark's probe
        // (`core.prefetch_us_per_batch`, fourteen alternating runs): median
        // 76 µs without this loop, 62 µs with it, lower in twelve.
        let mut warmed = 0;
        for p in &batch.positives {
            warmed ^= marks[ks.entity_key(p.head).index()].stamp
                ^ marks[ks.entity_key(p.tail).index()].stamp;
        }
        std::hint::black_box(warmed);
        // This batch's bit in `in_batches`; none past the recorded ones.
        let bit = 1u64.checked_shl(stamp - window).unwrap_or(0);
        let mut note = |k: ParamKey| {
            let m = &mut marks[k.index()];
            if m.stamp < window {
                *m = ReadMark {
                    stamp,
                    entry: u32::try_from(reads.len()).expect("a window's keys fit in 32 bits"),
                };
                reads.push(KeyReads {
                    key: k,
                    batches: 1,
                    uses: 1,
                    in_batches: bit,
                });
                return;
            }
            let r = &mut reads[m.entry as usize];
            r.uses += 1;
            if m.stamp != stamp {
                m.stamp = stamp;
                r.batches += 1;
                r.in_batches |= bit;
            }
        };
        for t in batch
            .positives
            .iter()
            .chain(batch.negatives.iter().map(|n| &n.triple))
        {
            note(ks.entity_key(t.head));
            note(ks.relation_key(t.relation));
            note(ks.entity_key(t.tail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::negative::{NegConfig, NegStrategy};
    use hetkg_kgraph::generator::SyntheticKg;
    use std::collections::{HashMap, HashSet};

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
        assert!(!out.reads.is_empty());
    }

    /// Per-key `(batches, uses)` of a window, counted the obvious way.
    fn brute_force_reads(batches: &[MiniBatch], ks: KeySpace) -> HashMap<ParamKey, (u32, u32)> {
        let mut counts: HashMap<ParamKey, (u32, u32)> = HashMap::new();
        for batch in batches {
            let mut readers = HashSet::new();
            for t in batch
                .positives
                .iter()
                .chain(batch.negatives.iter().map(|n| &n.triple))
            {
                for k in [
                    ks.entity_key(t.head),
                    ks.relation_key(t.relation),
                    ks.entity_key(t.tail),
                ] {
                    let c = counts.entry(k).or_default();
                    c.1 += 1;
                    if readers.insert(k) {
                        c.0 += 1;
                    }
                }
            }
        }
        counts
    }

    #[test]
    fn accesses_count_raw_usage() {
        // A key used by every triple of every batch is read by every batch
        // once and used once per triple: the two statistics differ by the
        // batch's triple count, which is exactly what the filter must not
        // mistake for hotness.
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
        let rel = out.reads.iter().find(|r| r.key == rel_key).unwrap();
        // 3 batches × (1 positive + 1 negative) = 6 relation uses.
        assert_eq!((rel.batches, rel.uses), (3, 6));
        // And every batch contributes 3 uses per triple.
        let uses: u32 = out.reads.iter().map(|r| r.uses).sum();
        assert_eq!(uses, 3 * 2 * 3);
    }

    #[test]
    fn window_statistics_equal_a_brute_force_count_window_after_window() {
        // One prefetcher, one reused `Prefetched`, windows of different
        // depths: the stamped scratch must never leak a count from an
        // earlier window, and the reused batches must be exactly the
        // batches a fresh `prefetch` draws.
        let (triples, ks, _) = setup();
        for strategy in [
            NegStrategy::Independent,
            NegStrategy::Chunked { chunk_size: 4 },
        ] {
            let config = NegConfig {
                per_positive: 3,
                strategy,
            };
            let mut neg = NegativeSampler::new(100, config, 7);
            let mut neg_fresh = NegativeSampler::new(100, config, 7);
            let mut p = Prefetcher::new(16, ks, 3);
            let mut p_fresh = Prefetcher::new(16, ks, 3);
            let mut window = Prefetched::default();
            for d in [5, 1, 8, 3, 8] {
                p.prefetch_into(&triples, &mut neg, d, &mut window);
                let fresh = p_fresh.prefetch(&triples, &mut neg_fresh, d);
                assert_eq!(window.batches.len(), d);
                for (a, b) in window.batches.iter().zip(&fresh.batches) {
                    assert_eq!(a.positives, b.positives);
                    assert_eq!(a.negatives, b.negatives);
                }
                assert_eq!(window.reads, fresh.reads);
                let want = brute_force_reads(&window.batches, ks);
                assert_eq!(window.reads.len(), want.len(), "one entry per key");
                for r in &window.reads {
                    assert_eq!((r.batches, r.uses), want[&r.key], "{} at depth {d}", r.key);
                    assert!(1 <= r.batches && r.batches <= d as u32 && r.batches <= r.uses);
                }
            }
        }
    }

    /// Whether `batch` reads `key`, by looking.
    fn scan(batch: &MiniBatch, ks: KeySpace, key: ParamKey) -> bool {
        batch
            .positives
            .iter()
            .chain(batch.negatives.iter().map(|n| &n.triple))
            .any(|t| {
                ks.entity_key(t.head) == key
                    || ks.relation_key(t.relation) == key
                    || ks.entity_key(t.tail) == key
            })
    }

    #[test]
    fn batch_bits_agree_with_a_scan_of_the_batches_window_after_window() {
        let (triples, ks, mut neg) = setup();
        let mut p = Prefetcher::new(16, ks, 3);
        let mut window = Prefetched::default();
        let mut earlier: Vec<ParamKey> = Vec::new();
        for d in [6, 16, 1, 9] {
            p.prefetch_into(&triples, &mut neg, d, &mut window);
            for r in &window.reads {
                assert_eq!(r.in_batches.count_ones(), r.batches, "{}", r.key);
                for (b, batch) in window.batches.iter().enumerate() {
                    let reads = scan(batch, ks, r.key);
                    assert_eq!(r.in_batches >> b & 1 == 1, reads, "{} batch {b}", r.key);
                    assert_eq!(r.read_in(b..b + 1), reads);
                }
                assert_eq!(r.in_batches >> d, 0, "no bit past the window");
                // Every range of batches, against the scan.
                for lo in 0..d {
                    for hi in lo..=d {
                        let any = (lo..hi).any(|b| scan(&window.batches[b], ks, r.key));
                        assert_eq!(r.read_in(lo..hi), any, "{} in {lo}..{hi}", r.key);
                    }
                }
                // The prefetcher finds a key's entry, and only this window's.
                assert_eq!(p.reads_of(&window, r.key), Some(r));
            }
            for &k in &earlier {
                let in_window = window.reads.iter().any(|r| r.key == k);
                assert_eq!(p.reads_of(&window, k).is_some(), in_window, "{k}");
            }
            earlier = window.reads.iter().map(|r| r.key).collect();
        }
        // A key no batch of any window read.
        let fresh = Prefetcher::new(16, ks, 3);
        assert_eq!(fresh.reads_of(&window, ParamKey(0)), None, "no window yet");
    }

    #[test]
    fn batches_past_the_bit_width_count_as_reading_every_key() {
        let (triples, ks, mut neg) = setup();
        let mut p = Prefetcher::new(4, ks, 3);
        let d = KeyReads::BATCH_BITS + 6;
        let out = p.prefetch(&triples, &mut neg, d);
        let want = brute_force_reads(&out.batches, ks);
        let mut deeper = 0;
        for r in &out.reads {
            // The counts still cover the whole window; the bits its first 64.
            assert_eq!((r.batches, r.uses), want[&r.key]);
            let recorded = (0..KeyReads::BATCH_BITS)
                .filter(|&b| scan(&out.batches[b], ks, r.key))
                .count() as u32;
            assert_eq!(r.in_batches.count_ones(), recorded);
            deeper += u32::from(r.batches > recorded);
            // Inside the recorded batches the answer is exact, the last one
            // included; a range that reaches past them is "yes" whatever the
            // batches there hold.
            let last = KeyReads::BATCH_BITS - 1;
            assert_eq!(
                r.read_in(last..last + 1),
                scan(&out.batches[last], ks, r.key)
            );
            assert!(r.read_in(last..last + 2));
            assert!(r.read_in(d - 2..d));
            assert!(!r.read_in(3..3), "an empty range reads nothing");
        }
        assert!(deeper > 0, "some key is read past the recorded batches");
    }

    #[test]
    fn running_out_of_stamps_cannot_revive_old_counts() {
        let (triples, ks, mut neg) = setup();
        let mut p = Prefetcher::new(16, ks, 3);
        p.prefetch(&triples, &mut neg, 2);
        // Not enough stamps left for the next window: it must start over
        // rather than wrap into stamps the marks already carry.
        p.next_stamp = u32::MAX - 1;
        let out = p.prefetch(&triples, &mut neg, 2);
        assert_eq!(p.next_stamp, 3, "the window took stamps 1 and 2");
        let want = brute_force_reads(&out.batches, ks);
        assert_eq!(out.reads.len(), want.len());
        for r in &out.reads {
            assert_eq!((r.batches, r.uses), want[&r.key]);
        }
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
        assert_eq!(a.reads, b.reads);
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.positives, y.positives);
        }
    }
}
