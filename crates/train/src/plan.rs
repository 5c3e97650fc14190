//! A mini-batch compiled to dense slot indices.
//!
//! One pass over a [`MiniBatch`] ([`BatchPlan::compile`]) numbers its
//! distinct keys in first-seen order — the order the per-shard pull frames
//! are built in — counts how often each is used, and rewrites every triple
//! as `[head slot, relation slot, tail slot]`. Everything after that pass
//! (cache probe, pull sinks, the score/gradient kernel, the local cache
//! update, the push) addresses rows by slot in flat arenas
//! ([`crate::batch::WorkingSet`], [`crate::batch::GradAccum`]) laid out by
//! the same [`SlotLayout`], so no key is hashed again and no row is a heap
//! allocation of its own.

use hetkg_core::prefetch::MiniBatch;
use hetkg_kgraph::{KeySpace, ParamKey};
use std::ops::Range;

/// Where one slot's row lives in an arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    width: u32,
}

/// Keys numbered by insertion order (`key ↔ slot`) with one variable-width
/// row per slot (entity and relation widths differ for TransR-like models),
/// packed back to back.
///
/// The key → slot side is an open-addressed table under a multiplicative
/// hash: keys are parameter indices this program generated, so the default
/// hasher's protection against crafted collisions buys nothing here and
/// costs most of the probe. `clear` keeps every buffer, so a layout reused
/// batch after batch allocates nothing at steady state.
#[derive(Debug, Default)]
pub struct SlotLayout {
    /// `slot + 1` of the key hashed here, 0 when empty. Length is 0 or a
    /// power of two, at least twice `keys.len()`.
    table: Vec<u32>,
    keys: Vec<ParamKey>,
    spans: Vec<Span>,
    total: usize,
}

impl SlotLayout {
    const MIN_TABLE: usize = 16;

    /// Empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every key; buffers keep their capacity.
    pub fn clear(&mut self) {
        self.table.fill(0);
        self.keys.clear();
        self.spans.clear();
        self.total = 0;
    }

    /// Become a copy of `other`, reusing this layout's buffers.
    pub fn copy_from(&mut self, other: &SlotLayout) {
        self.table.clone_from(&other.table);
        self.keys.clone_from(&other.keys);
        self.spans.clone_from(&other.spans);
        self.total = other.total;
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key is registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys in slot order.
    #[inline]
    pub fn keys(&self) -> &[ParamKey] {
        &self.keys
    }

    /// Summed row widths: the arena length this layout addresses.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// The arena range of `slot`'s row.
    #[inline]
    pub fn range(&self, slot: u32) -> Range<usize> {
        let s = self.spans[slot as usize];
        s.start..s.start + s.width as usize
    }

    #[inline]
    fn home(&self, key: ParamKey) -> usize {
        // Fibonacci hashing: the top bits of key × 2⁶⁴/φ.
        let shift = 64 - self.table.len().trailing_zeros();
        (key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The slot of `key`, if registered.
    #[inline]
    pub fn slot_of(&self, key: ParamKey) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.table[i] {
                0 => return None,
                s if self.keys[(s - 1) as usize] == key => return Some(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot of `key`, registering it with a row of `width` floats when
    /// it is new. Returns `(slot, newly registered)`.
    #[inline]
    pub fn insert(&mut self, key: ParamKey, width: usize) -> (u32, bool) {
        if (self.keys.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.table[i] {
                0 => break,
                s if self.keys[(s - 1) as usize] == key => return (s - 1, false),
                _ => i = (i + 1) & mask,
            }
        }
        let slot = u32::try_from(self.keys.len()).expect("fewer than 2^32 slots");
        self.table[i] = slot + 1;
        self.keys.push(key);
        self.spans.push(Span {
            start: self.total,
            width: u32::try_from(width).expect("row width fits u32"),
        });
        self.total += width;
        (slot, true)
    }

    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(Self::MIN_TABLE);
        self.table.clear();
        self.table.resize(cap, 0);
        let mask = cap - 1;
        for (slot, &key) in self.keys.iter().enumerate() {
            let mut i = self.home(key);
            while self.table[i] != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = slot as u32 + 1;
        }
    }
}

/// One mini-batch compiled against a [`SlotLayout`]: see the module docs.
#[derive(Debug, Default)]
pub struct BatchPlan {
    layout: SlotLayout,
    /// Per slot: how many times the batch's triples use the key (the
    /// paper's "embedding usage": a key used `u` times counts `u` cache
    /// hits or misses, while pull traffic stays deduplicated).
    uses: Vec<u32>,
    /// Positives, then negatives, as `[head, relation, tail]` slots.
    triples: Vec<[u32; 3]>,
    positives: usize,
    /// Per slot: the slot of the same key in the working set / gradient
    /// accumulator the kernel runs against. The identity after
    /// [`BatchPlan::compile`] (arenas laid out by [`BatchPlan::layout`]);
    /// [`BatchPlan::bind`] points them into arenas with their own layout.
    ws_slot: Vec<u32>,
    grad_slot: Vec<u32>,
}

impl BatchPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile `batch`: one pass, nothing allocated once the buffers have
    /// grown to the batch shape.
    pub fn compile(
        &mut self,
        batch: &MiniBatch,
        ks: KeySpace,
        entity_dim: usize,
        relation_dim: usize,
    ) {
        self.layout.clear();
        self.uses.clear();
        self.triples.clear();
        self.positives = batch.positives.len();
        let (layout, uses) = (&mut self.layout, &mut self.uses);
        let mut slot = |key: ParamKey, width: usize| -> u32 {
            let (s, new) = layout.insert(key, width);
            if new {
                uses.push(0);
            }
            uses[s as usize] += 1;
            s
        };
        for t in batch
            .positives
            .iter()
            .chain(batch.negatives.iter().map(|n| &n.triple))
        {
            let h = slot(ks.entity_key(t.head), entity_dim);
            let r = slot(ks.relation_key(t.relation), relation_dim);
            let tl = slot(ks.entity_key(t.tail), entity_dim);
            self.triples.push([h, r, tl]);
        }
        let n = self.layout.len() as u32;
        self.ws_slot.clear();
        self.ws_slot.extend(0..n);
        self.grad_slot.clear();
        self.grad_slot.extend(0..n);
    }

    /// Point the plan at a working set and an accumulator that have layouts
    /// of their own (a PBG bucket's resident rows; a caller-filled working
    /// set): every key is looked up in `ws` and registered in `grads`.
    ///
    /// # Panics
    /// Panics when `ws` lacks a key of the batch — a system bug.
    pub fn bind(&mut self, ws: &crate::batch::WorkingSet, grads: &mut crate::batch::GradAccum) {
        for (i, &key) in self.layout.keys.iter().enumerate() {
            self.ws_slot[i] = ws
                .slot_of(key)
                .unwrap_or_else(|| panic!("working set missing {key}"));
            self.grad_slot[i] = grads.register(key, self.layout.spans[i].width as usize);
        }
    }

    /// The key ↔ slot numbering and row layout of this batch.
    #[inline]
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// Distinct keys in first-seen order (slot order).
    #[inline]
    pub fn keys(&self) -> &[ParamKey] {
        self.layout.keys()
    }

    /// Per-slot use counts.
    #[inline]
    pub fn uses(&self) -> &[u32] {
        &self.uses
    }

    /// Whether the batch touches `key`.
    #[inline]
    pub fn contains(&self, key: ParamKey) -> bool {
        self.layout.slot_of(key).is_some()
    }

    /// Positives then negatives as `[head, relation, tail]` slots.
    #[inline]
    pub fn triples(&self) -> &[[u32; 3]] {
        &self.triples
    }

    /// How many of [`BatchPlan::triples`] are positives (they come first).
    #[inline]
    pub fn num_positives(&self) -> usize {
        self.positives
    }

    #[inline]
    pub(crate) fn ws_slots(&self) -> &[u32] {
        &self.ws_slot
    }

    #[inline]
    pub(crate) fn grad_slots(&self) -> &[u32] {
        &self.grad_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_core::prefetch::Prefetcher;
    use hetkg_embed::negative::{NegConfig, NegStrategy, NegativeSampler};
    use hetkg_kgraph::generator::SyntheticKg;
    use std::collections::HashMap;

    #[test]
    fn layout_numbers_keys_in_insertion_order_and_survives_growth() {
        let mut l = SlotLayout::new();
        assert_eq!(l.slot_of(ParamKey(3)), None);
        // Far past the first table size, with colliding-looking strides.
        for i in 0..1000u64 {
            let (s, new) = l.insert(ParamKey(i * 4096), 2 + (i % 3) as usize);
            assert_eq!((s, new), (i as u32, true));
        }
        for i in 0..1000u64 {
            assert_eq!(l.slot_of(ParamKey(i * 4096)), Some(i as u32));
            assert_eq!(l.insert(ParamKey(i * 4096), 99), (i as u32, false));
            assert_eq!(l.slot_of(ParamKey(i * 4096 + 1)), None);
        }
        assert_eq!(l.len(), 1000);
        // Rows are packed back to back at their own widths.
        assert_eq!(l.range(0), 0..2);
        assert_eq!(l.range(1), 2..5);
        assert_eq!(l.range(2), 5..9);
        assert_eq!(l.range(999).end, l.total());
        let mut copy = SlotLayout::new();
        copy.copy_from(&l);
        assert_eq!(copy.keys(), l.keys());
        assert_eq!(copy.slot_of(ParamKey(4096 * 7)), Some(7));
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.total(), 0);
        assert_eq!(l.slot_of(ParamKey(0)), None);
        assert_eq!(l.insert(ParamKey(5), 4), (0, true));
    }

    /// The three things `compile` replaced, recomputed the old way: the
    /// batch's distinct keys in first-seen order and each key's use count.
    fn old_way(batch: &MiniBatch, ks: KeySpace) -> (Vec<ParamKey>, HashMap<ParamKey, u64>) {
        let mut usage = HashMap::new();
        let mut keys = Vec::new();
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
                let uses = usage.entry(k).or_insert(0u64);
                if *uses == 0 {
                    keys.push(k);
                }
                *uses += 1;
            }
        }
        (keys, usage)
    }

    #[test]
    fn plan_matches_unique_keys_usage_counts_and_round_trips_triples() {
        let g = SyntheticKg {
            num_entities: 300,
            num_relations: 7,
            num_triples: 2_000,
            ..Default::default()
        }
        .build(3);
        let ks = g.key_space();
        for (strategy, seed) in [
            (NegStrategy::Independent, 1u64),
            (NegStrategy::Chunked { chunk_size: 8 }, 2),
        ] {
            let mut neg = NegativeSampler::new(
                g.num_entities(),
                NegConfig {
                    per_positive: 6,
                    strategy,
                },
                seed,
            );
            let mut pf = Prefetcher::new(64, ks, seed);
            let mut plan = BatchPlan::new();
            // One plan reused across batches, as a worker does.
            for batch in pf.prefetch(g.triples(), &mut neg, 5).batches {
                plan.compile(&batch, ks, 4, 6);
                let (keys, usage) = old_way(&batch, ks);
                assert_eq!(plan.keys(), keys.as_slice(), "first-seen key order");
                for (slot, &k) in plan.keys().iter().enumerate() {
                    assert_eq!(u64::from(plan.uses()[slot]), usage[&k], "uses of {k}");
                    assert!(plan.contains(k));
                    let want = if ks.is_entity(k) { 4 } else { 6 };
                    assert_eq!(plan.layout().range(slot as u32).len(), want);
                }
                assert_eq!(plan.num_positives(), batch.positives.len());
                let all: Vec<_> = batch
                    .positives
                    .iter()
                    .chain(batch.negatives.iter().map(|n| &n.triple))
                    .collect();
                assert_eq!(plan.triples().len(), all.len());
                for (t, &[h, r, tl]) in all.iter().zip(plan.triples()) {
                    assert_eq!(plan.keys()[h as usize], ks.entity_key(t.head));
                    assert_eq!(plan.keys()[r as usize], ks.relation_key(t.relation));
                    assert_eq!(plan.keys()[tl as usize], ks.entity_key(t.tail));
                }
            }
        }
    }
}
