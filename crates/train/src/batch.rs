//! The compute kernel: forward + backward over one mini-batch.
//!
//! All systems share this kernel — they differ only in *where the working
//! set comes from* (PS pulls vs cache hits) and *where gradients go*. The
//! kernel reads embedding rows from a [`WorkingSet`] and accumulates into a
//! [`GradAccum`], so the surrounding system can route fetches and updates
//! however it likes.
//!
//! Both are flat `f32` arenas addressed by the dense slot indices of a
//! [`SlotLayout`]; the batch itself is a [`BatchPlan`] (every triple as three
//! slots), so the inner loops index arenas and hash nothing. Workers compile
//! the plan once per iteration, lay both arenas out by it and call
//! [`compute_planned`]; [`compute_batch`] is the same kernel for callers
//! whose working set has a layout of its own (PBG's resident bucket, a
//! caller-filled set). The key-addressed methods (`insert`, `get`, `add`,
//! `row`, `iter`, …) are views over the same arenas.

use crate::plan::{BatchPlan, SlotLayout};
use hetkg_core::prefetch::MiniBatch;
use hetkg_embed::loss::{logistic, margin_ranking, LossKind};
use hetkg_embed::models::KgeModel;
use hetkg_kgraph::{KeySpace, ParamKey};

/// The embeddings a mini-batch needs, fetched into worker-local memory:
/// one row per slot of its layout, in one arena.
#[derive(Debug, Default)]
pub struct WorkingSet {
    layout: SlotLayout,
    data: Vec<f32>,
}

impl WorkingSet {
    /// Empty working set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (copy) a fetched row: a new slot for a new key, overwritten
    /// in place for a key already present.
    pub fn insert(&mut self, key: ParamKey, row: &[f32]) {
        let (slot, new) = self.layout.insert(key, row.len());
        if new {
            self.data.extend_from_slice(row);
        } else {
            self.row_mut(slot).copy_from_slice(row);
        }
    }

    /// The row for `key`.
    ///
    /// # Panics
    /// Panics when the key was not fetched — that is a system bug, not a
    /// recoverable condition.
    #[inline]
    pub fn get(&self, key: ParamKey) -> &[f32] {
        let slot = self
            .slot_of(key)
            .unwrap_or_else(|| panic!("working set missing {key}"));
        self.row(slot)
    }

    /// Whether the key has a row.
    pub fn contains(&self, key: ParamKey) -> bool {
        self.slot_of(key).is_some()
    }

    /// The slot of `key`, if it has a row.
    #[inline]
    pub fn slot_of(&self, key: ParamKey) -> Option<u32> {
        self.layout.slot_of(key)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    /// Drop all rows; the arena and the index keep their capacity.
    pub fn clear(&mut self) {
        self.layout.clear();
        self.data.clear();
    }

    /// Replace the contents with one row per slot of `layout`. Row values
    /// are unspecified until written ([`WorkingSet::row_mut`]): the caller
    /// fills every slot the batch reads, as a pull sink or a cache copy.
    pub fn reset(&mut self, layout: &SlotLayout) {
        self.layout.copy_from(layout);
        self.data.resize(layout.total(), 0.0);
    }

    /// The row in `slot`.
    #[inline]
    pub fn row(&self, slot: u32) -> &[f32] {
        &self.data[self.layout.range(slot)]
    }

    /// The row in `slot`, writable (pull sinks and cache hits copy straight
    /// into it).
    #[inline]
    pub fn row_mut(&mut self, slot: u32) -> &mut [f32] {
        let range = self.layout.range(slot);
        &mut self.data[range]
    }
}

/// Accumulated gradients for one iteration: one arena row per slot of its
/// layout, of which only the *touched* ones (those a gradient was added to)
/// count as present — they are what gets pushed.
#[derive(Debug, Default)]
pub struct GradAccum {
    layout: SlotLayout,
    data: Vec<f32>,
    /// Per slot: whether a gradient has been added (its row is zeroed on
    /// first touch, so `reset` does not clear the arena).
    is_touched: Vec<bool>,
    /// Touched slots in first-touch order.
    touched: Vec<u32>,
}

impl GradAccum {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `g` into the gradient for `key` (a zero row of `g.len()` on
    /// first touch).
    pub fn add(&mut self, key: ParamKey, g: &[f32]) {
        let slot = self.register(key, g.len());
        self.touch(slot);
        self.add_at(slot, g);
    }

    /// Iterate accumulated `(key, gradient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamKey, &[f32])> {
        self.touched
            .iter()
            .map(|&s| (self.key_at(s), self.row_at(s)))
    }

    /// Collect the touched slots, ordered by key, into `out`: the order a
    /// push walks them in (pair with [`GradAccum::key_at`] and
    /// [`GradAccum::row_at`]).
    pub fn sorted_slots_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.touched);
        out.sort_unstable_by_key(|&s| self.key_at(s));
    }

    /// The accumulated gradient for `key`.
    ///
    /// # Panics
    /// Panics when no gradient was accumulated for `key` — a system bug.
    #[inline]
    pub fn row(&self, key: ParamKey) -> &[f32] {
        match self.layout.slot_of(key) {
            Some(s) if self.is_touched[s as usize] => self.row_at(s),
            _ => panic!("no gradient accumulated for {key}"),
        }
    }

    /// Number of touched keys.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no gradient was produced.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Reset for the next iteration; buffers keep their capacity.
    pub fn clear(&mut self) {
        self.layout.clear();
        self.data.clear();
        self.is_touched.clear();
        self.touched.clear();
    }

    /// Reset to one untouched row per slot of `layout`.
    pub fn reset(&mut self, layout: &SlotLayout) {
        self.layout.copy_from(layout);
        self.data.resize(layout.total(), 0.0);
        self.is_touched.clear();
        self.is_touched.resize(layout.len(), false);
        self.touched.clear();
    }

    /// Touched slots in first-touch order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The key in `slot`.
    #[inline]
    pub fn key_at(&self, slot: u32) -> ParamKey {
        self.layout.keys()[slot as usize]
    }

    /// The gradient accumulated in `slot` (meaningful for touched slots).
    #[inline]
    pub fn row_at(&self, slot: u32) -> &[f32] {
        debug_assert!(
            self.is_touched[slot as usize],
            "slot {slot} holds no gradient"
        );
        &self.data[self.layout.range(slot)]
    }

    /// The slot of `key`, giving it an untouched row of `width` when new.
    pub(crate) fn register(&mut self, key: ParamKey, width: usize) -> u32 {
        let (slot, new) = self.layout.insert(key, width);
        if new {
            self.data.resize(self.layout.total(), 0.0);
            self.is_touched.push(false);
        }
        slot
    }

    /// Mark `slot` as holding a gradient, zeroing its row the first time.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if !self.is_touched[slot as usize] {
            self.is_touched[slot as usize] = true;
            self.touched.push(slot);
            let range = self.layout.range(slot);
            self.data[range].fill(0.0);
        }
    }

    #[inline]
    fn add_at(&mut self, slot: u32, g: &[f32]) {
        let range = self.layout.range(slot);
        let buf = &mut self.data[range];
        debug_assert_eq!(buf.len(), g.len());
        for (b, &x) in buf.iter_mut().zip(g) {
            *b += x;
        }
    }

    /// The three rows of one triple, writable at once — `None` when two of
    /// the slots are the same row (`head == tail`).
    #[inline]
    fn rows3_mut(&mut self, h: u32, r: u32, t: u32) -> Option<[&mut [f32]; 3]> {
        let l = &self.layout;
        self.data
            .get_disjoint_mut([l.range(h), l.range(r), l.range(t)])
            .ok()
    }
}

/// Scratch reused across kernel calls: the compiled batch and the
/// forward/backward buffers.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// The batch [`compute_planned`] runs. A worker compiles it (and lays
    /// its arenas out by it) before the call; [`compute_batch`] compiles and
    /// binds it itself.
    pub plan: BatchPlan,
    /// Forward state ([`KgeModel::score_fwd`]) of the triple being scored:
    /// the positive of a ranking pair, or any triple under the logistic
    /// loss.
    fwd: Vec<f32>,
    /// Forward state of a ranking pair's negative (the positive's must
    /// survive every negative of its group).
    fwd_neg: Vec<f32>,
    /// Zeroed-gradient buffers for triples whose head and tail share a row.
    gh: Vec<f32>,
    gr: Vec<f32>,
    gt: Vec<f32>,
}

/// What the kernel produced for one mini-batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchResult {
    /// Total loss over the batch.
    pub loss: f64,
    /// Number of loss terms (for averaging).
    pub terms: usize,
    /// Kernel work units performed (≈ embedding coordinates touched by
    /// scores and gradients). The cost model converts these to simulated
    /// compute time, which keeps timing host-independent — essential on a
    /// machine with fewer real cores than simulated workers.
    pub work_units: u64,
}

impl BatchResult {
    /// Accumulate another batch's result.
    pub fn absorb(&mut self, other: BatchResult) {
        self.loss += other.loss;
        self.terms += other.terms;
        self.work_units += other.work_units;
    }
}

/// Forward + backward over one mini-batch.
///
/// Scores every positive against its negatives under `loss`, accumulates
/// `∂loss/∂embedding` into `grads`, and returns the batch's loss, term
/// count, and kernel work units. `ws` must hold a row for every key of the
/// batch; `grads` may already hold gradients.
pub fn compute_batch(
    model: &dyn KgeModel,
    loss: LossKind,
    key_space: KeySpace,
    batch: &MiniBatch,
    ws: &WorkingSet,
    grads: &mut GradAccum,
    scratch: &mut BatchScratch,
) -> BatchResult {
    scratch
        .plan
        .compile(batch, key_space, model.entity_dim(), model.relation_dim());
    scratch.plan.bind(ws, grads);
    compute_planned(model, loss, ws, grads, scratch)
}

/// [`compute_batch`] over the already-compiled `scratch.plan`, whose slots
/// must address `ws` and `grads`: either both were `reset` to the plan's
/// layout, or the plan was bound to them.
///
/// Triples are scored and differentiated in batch order with
/// [`KgeModel::score_fwd`] / [`KgeModel::grad_bwd`], gradients landing
/// directly in the accumulator's rows — the same float operations in the
/// same order as scoring each triple with `score`, differentiating it with
/// `grad` into zeroed buffers and adding those in, which the differential
/// test below pins bit for bit.
pub fn compute_planned(
    model: &dyn KgeModel,
    loss: LossKind,
    ws: &WorkingSet,
    grads: &mut GradAccum,
    scratch: &mut BatchScratch,
) -> BatchResult {
    let BatchScratch {
        plan,
        fwd,
        fwd_neg,
        gh,
        gr,
        gt,
    } = scratch;
    let (positives, negatives) = plan.triples().split_at(plan.num_positives());
    if positives.is_empty() {
        return BatchResult::default();
    }
    debug_assert_eq!(
        negatives.len() % positives.len(),
        0,
        "negatives must be grouped evenly per positive"
    );
    let per_pos = negatives.len() / positives.len();
    let (ws_slot, grad_slot) = (plan.ws_slots(), plan.grad_slots());
    let rows = |[h, r, t]: [u32; 3]| {
        (
            ws.row(ws_slot[h as usize]),
            ws.row(ws_slot[r as usize]),
            ws.row(ws_slot[t as usize]),
        )
    };

    // One triple's score or gradient touches its three rows once.
    let triple_units = (2 * model.entity_dim() + model.relation_dim()) as u64;
    let mut total_loss = 0.0f64;
    let mut terms = 0usize;
    let mut work_units = 0u64;
    let mut backprop = |triple: [u32; 3], dscore: f32, fwd: &mut Vec<f32>| -> u64 {
        if dscore == 0.0 {
            return 0;
        }
        let (h, r, t) = rows(triple);
        let [hs, rs, ts] = triple.map(|s| grad_slot[s as usize]);
        grads.touch(hs);
        grads.touch(rs);
        grads.touch(ts);
        if let Some([gh, gr, gt]) = grads.rows3_mut(hs, rs, ts) {
            model.grad_bwd(h, r, t, dscore, fwd, gh, gr, gt);
        } else {
            // Head and tail are one row: differentiate into zeroed buffers
            // and add them in head, relation, tail order.
            for (buf, like) in [(&mut *gh, h), (&mut *gr, r), (&mut *gt, t)] {
                buf.clear();
                buf.resize(like.len(), 0.0);
            }
            model.grad_bwd(h, r, t, dscore, fwd, gh, gr, gt);
            grads.add_at(hs, gh);
            grads.add_at(rs, gr);
            grads.add_at(ts, gt);
        }
        triple_units
    };

    match loss {
        LossKind::Logistic => {
            for (triples, label) in [(positives, 1.0), (negatives, -1.0)] {
                for &tr in triples {
                    let (h, r, t) = rows(tr);
                    let (l, d) = logistic(model.score_fwd(h, r, t, fwd), label);
                    total_loss += l as f64;
                    terms += 1;
                    work_units += triple_units + backprop(tr, d, fwd);
                }
            }
        }
        LossKind::MarginRanking { gamma } => {
            for (i, &p) in positives.iter().enumerate() {
                let (h, r, t) = rows(p);
                let s_pos = model.score_fwd(h, r, t, fwd);
                work_units += triple_units;
                for &n in &negatives[i * per_pos..(i + 1) * per_pos] {
                    let (h, r, t) = rows(n);
                    let s_neg = model.score_fwd(h, r, t, fwd_neg);
                    work_units += triple_units;
                    let (l, dp, dn) = margin_ranking(s_pos, s_neg, gamma);
                    total_loss += l as f64;
                    terms += 1;
                    if l > 0.0 {
                        work_units += backprop(p, dp, fwd);
                        work_units += backprop(n, dn, fwd_neg);
                    }
                }
            }
        }
    }
    BatchResult {
        loss: total_loss,
        terms,
        work_units,
    }
}

/// The kernel this module had before the slot arenas: a `HashMap` of heap
/// rows per key, nine lookups per triple, `score`/`grad` per triple into
/// zeroed scratch, `add` per row. Kept as the oracle the arena kernel is
/// pinned against bit for bit; no runtime path uses it.
#[cfg(test)]
mod reference {
    use super::BatchResult;
    use hetkg_core::prefetch::MiniBatch;
    use hetkg_embed::loss::{logistic, margin_ranking, LossKind};
    use hetkg_embed::models::KgeModel;
    use hetkg_kgraph::{KeySpace, ParamKey, Triple};
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct GradMap(pub HashMap<ParamKey, Vec<f32>>);

    impl GradMap {
        fn add(&mut self, key: ParamKey, g: &[f32]) {
            let buf = self.0.entry(key).or_insert_with(|| vec![0.0; g.len()]);
            for i in 0..g.len() {
                buf[i] += g[i];
            }
        }
    }

    pub fn compute_batch(
        model: &dyn KgeModel,
        loss: LossKind,
        key_space: KeySpace,
        batch: &MiniBatch,
        ws: &HashMap<ParamKey, Vec<f32>>,
        grads: &mut GradMap,
    ) -> BatchResult {
        let npos = batch.positives.len();
        if npos == 0 {
            return BatchResult::default();
        }
        let per_pos = batch.negatives.len() / npos;
        let triple_units = (2 * model.entity_dim() + model.relation_dim()) as u64;
        let mut total_loss = 0.0f64;
        let mut terms = 0usize;
        let mut work_units = 0u64;
        let backprop = |triple: Triple, dscore: f32, grads: &mut GradMap| -> u64 {
            if dscore == 0.0 {
                return 0;
            }
            let hk = key_space.entity_key(triple.head);
            let rk = key_space.relation_key(triple.relation);
            let tk = key_space.entity_key(triple.tail);
            let (h, r, t) = (&ws[&hk], &ws[&rk], &ws[&tk]);
            let mut gh = vec![0.0; h.len()];
            let mut gr = vec![0.0; r.len()];
            let mut gt = vec![0.0; t.len()];
            model.grad(h, r, t, dscore, &mut gh, &mut gr, &mut gt);
            grads.add(hk, &gh);
            grads.add(rk, &gr);
            grads.add(tk, &gt);
            triple_units
        };
        let score_of = |triple: Triple| -> f32 {
            let h = &ws[&key_space.entity_key(triple.head)];
            let r = &ws[&key_space.relation_key(triple.relation)];
            let t = &ws[&key_space.entity_key(triple.tail)];
            model.score(h, r, t)
        };
        match loss {
            LossKind::Logistic => {
                for &p in &batch.positives {
                    let (l, d) = logistic(score_of(p), 1.0);
                    total_loss += l as f64;
                    terms += 1;
                    work_units += triple_units + backprop(p, d, grads);
                }
                for n in &batch.negatives {
                    let (l, d) = logistic(score_of(n.triple), -1.0);
                    total_loss += l as f64;
                    terms += 1;
                    work_units += triple_units + backprop(n.triple, d, grads);
                }
            }
            LossKind::MarginRanking { gamma } => {
                for (i, &p) in batch.positives.iter().enumerate() {
                    let s_pos = score_of(p);
                    work_units += triple_units;
                    for n in &batch.negatives[i * per_pos..(i + 1) * per_pos] {
                        let s_neg = score_of(n.triple);
                        work_units += triple_units;
                        let (l, dp, dn) = margin_ranking(s_pos, s_neg, gamma);
                        total_loss += l as f64;
                        terms += 1;
                        if l > 0.0 {
                            work_units += backprop(p, dp, grads);
                            work_units += backprop(n.triple, dn, grads);
                        }
                    }
                }
            }
        }
        BatchResult {
            loss: total_loss,
            terms,
            work_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::models::ModelKind;
    use hetkg_embed::negative::{CorruptSlot, Negative};
    use hetkg_kgraph::Triple;

    fn tiny_setup() -> (Box<dyn KgeModel>, KeySpace, WorkingSet) {
        let model = ModelKind::TransEL2.build(4);
        let ks = KeySpace::new(4, 2);
        let mut ws = WorkingSet::new();
        for k in 0..6u64 {
            let v = [0.1 * k as f32, -0.05 * k as f32, 0.2, 0.3];
            ws.insert(ParamKey(k), &v);
        }
        (model, ks, ws)
    }

    fn batch() -> MiniBatch {
        MiniBatch {
            positives: vec![Triple::new(0, 0, 1), Triple::new(2, 1, 3)],
            negatives: vec![
                Negative {
                    triple: Triple::new(3, 0, 1),
                    slot: CorruptSlot::Head,
                },
                Negative {
                    triple: Triple::new(2, 1, 0),
                    slot: CorruptSlot::Tail,
                },
            ],
        }
    }

    #[test]
    fn logistic_batch_produces_grads_for_touched_keys() {
        let (model, ks, ws) = tiny_setup();
        let mut grads = GradAccum::new();
        let mut scratch = BatchScratch::default();
        let result = compute_batch(
            model.as_ref(),
            LossKind::Logistic,
            ks,
            &batch(),
            &ws,
            &mut grads,
            &mut scratch,
        );
        assert!(result.loss > 0.0);
        assert_eq!(result.terms, 4);
        assert!(result.work_units > 0);
        // Keys touched: entities 0..4 and both relations.
        assert!(grads.len() >= 5, "got {}", grads.len());
        for (_, g) in grads.iter() {
            assert_eq!(g.len(), 4);
            assert!(g.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn margin_batch_pairs_each_negative_with_its_positive() {
        let (model, ks, ws) = tiny_setup();
        let mut grads = GradAccum::new();
        let mut scratch = BatchScratch::default();
        let result = compute_batch(
            model.as_ref(),
            LossKind::MarginRanking { gamma: 5.0 },
            ks,
            &batch(),
            &ws,
            &mut grads,
            &mut scratch,
        );
        // Huge margin: every pair is active.
        assert_eq!(result.terms, 2);
        assert!(result.loss > 0.0);
        assert!(!grads.is_empty());
    }

    #[test]
    fn inactive_margin_pairs_produce_no_gradient() {
        let (model, ks, mut ws) = tiny_setup();
        // Make the positive perfect (score 0) and the negative awful, with
        // a tiny margin: hinge is inactive.
        ws.insert(ParamKey(0), &[0.0; 4]);
        ws.insert(ParamKey(1), &[0.0; 4]);
        ws.insert(ParamKey(4), &[0.0; 4]); // relation 0 = zero translation
        ws.insert(ParamKey(3), &[100.0; 4]);
        let b = MiniBatch {
            positives: vec![Triple::new(0, 0, 1)],
            negatives: vec![Negative {
                triple: Triple::new(3, 0, 1),
                slot: CorruptSlot::Head,
            }],
        };
        let mut grads = GradAccum::new();
        let mut scratch = BatchScratch::default();
        let result = compute_batch(
            model.as_ref(),
            LossKind::MarginRanking { gamma: 0.1 },
            ks,
            &b,
            &ws,
            &mut grads,
            &mut scratch,
        );
        assert_eq!(result.loss, 0.0);
        assert!(grads.is_empty());
    }

    #[test]
    fn training_direction_reduces_logistic_loss() {
        // One gradient step on the working set must reduce the batch loss —
        // the end-to-end sanity check of kernel + models + losses.
        let (model, ks, mut ws) = tiny_setup();
        let b = batch();
        let mut grads = GradAccum::new();
        let mut scratch = BatchScratch::default();
        let before = compute_batch(
            model.as_ref(),
            LossKind::Logistic,
            ks,
            &b,
            &ws,
            &mut grads,
            &mut scratch,
        )
        .loss;
        // Apply a small SGD step to the working set.
        let lr = 0.05f32;
        let updates: Vec<(ParamKey, Vec<f32>)> = grads
            .iter()
            .map(|(k, g)| {
                let cur = ws.get(k);
                let next: Vec<f32> = cur.iter().zip(g).map(|(&x, &gi)| x - lr * gi).collect();
                (k, next)
            })
            .collect();
        for (k, v) in updates {
            ws.insert(k, &v);
        }
        let mut grads2 = GradAccum::new();
        let after = compute_batch(
            model.as_ref(),
            LossKind::Logistic,
            ks,
            &b,
            &ws,
            &mut grads2,
            &mut scratch,
        )
        .loss;
        assert!(after < before, "loss must decrease: {before} -> {after}");
    }

    #[test]
    fn grad_accum_as_batch_is_sorted_and_aligned() {
        let mut g = GradAccum::new();
        g.add(ParamKey(5), &[1.0]);
        g.add(ParamKey(2), &[2.0]);
        g.add(ParamKey(5), &[3.0]);
        // The order a push walks the accumulator in: by key, each key's
        // gradients summed in its one row.
        let mut slots = vec![99];
        g.sorted_slots_into(&mut slots);
        let keys: Vec<ParamKey> = slots.iter().map(|&s| g.key_at(s)).collect();
        assert_eq!(keys, vec![ParamKey(2), ParamKey(5)]);
        assert_eq!(g.row_at(slots[0]), &[2.0]);
        assert_eq!(g.row_at(slots[1]), &[4.0]);
        assert_eq!(g.row(ParamKey(2)), &[2.0]);
        assert_eq!(g.row(ParamKey(5)), &[4.0]);
    }

    #[test]
    #[should_panic(expected = "working set missing")]
    fn missing_key_is_a_loud_bug() {
        let ws = WorkingSet::new();
        let _ = ws.get(ParamKey(0));
    }

    #[test]
    fn empty_batch_is_zero_loss() {
        let (model, ks, ws) = tiny_setup();
        let b = MiniBatch {
            positives: vec![],
            negatives: vec![],
        };
        let mut grads = GradAccum::new();
        let mut scratch = BatchScratch::default();
        let result = compute_batch(
            model.as_ref(),
            LossKind::Logistic,
            ks,
            &b,
            &ws,
            &mut grads,
            &mut scratch,
        );
        assert_eq!(result, BatchResult::default());
    }

    /// Deterministic rows in (−0.9, 0.9): a fixed function of key and
    /// coordinate, so both kernels see the same values.
    fn row_for(key: ParamKey, width: usize) -> Vec<f32> {
        (0..width)
            .map(|i| {
                let x = (key.0 * 131 + i as u64 * 31 + 7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 1.8 - 0.9
            })
            .collect()
    }

    /// Batches that exercise every shape the kernel special-cases: one
    /// relation shared by every triple, `head == tail` positives and
    /// negatives, repeated entities, and both negative layouts.
    fn tricky_batches() -> Vec<MiniBatch> {
        use hetkg_embed::negative::{NegConfig, NegStrategy, NegativeSampler};
        let mut out = Vec::new();
        for strategy in [
            NegStrategy::Independent,
            NegStrategy::Chunked { chunk_size: 4 },
        ] {
            let positives = vec![
                Triple::new(0, 1, 1),
                Triple::new(2, 1, 2), // head == tail
                Triple::new(3, 1, 0),
                Triple::new(1, 1, 4),
                Triple::new(5, 1, 5), // head == tail again
                Triple::new(0, 1, 3),
                Triple::new(4, 1, 2),
                Triple::new(6, 1, 0),
            ];
            let mut sampler = NegativeSampler::new(
                7,
                NegConfig {
                    per_positive: 4,
                    strategy,
                },
                11,
            );
            let mut negatives = Vec::new();
            sampler.corrupt_batch(&positives, &mut negatives);
            // Corruption over 7 entities makes some negatives loops too;
            // force one so the case never depends on the sampler.
            negatives[0].triple = Triple::new(3, 1, 3);
            out.push(MiniBatch {
                positives,
                negatives,
            });
        }
        // Several relations, no negatives' group structure to lean on.
        out.push(MiniBatch {
            positives: vec![Triple::new(0, 0, 1), Triple::new(1, 2, 0)],
            negatives: vec![
                Negative {
                    triple: Triple::new(6, 0, 1),
                    slot: CorruptSlot::Head,
                },
                Negative {
                    triple: Triple::new(1, 2, 1),
                    slot: CorruptSlot::Tail,
                },
            ],
        });
        out
    }

    #[test]
    fn arena_kernel_is_bit_identical_to_the_keyed_reference() {
        use std::collections::HashMap;
        let ks = KeySpace::new(7, 3);
        let losses = [
            LossKind::Logistic,
            // A margin some pairs clear and some do not.
            LossKind::MarginRanking { gamma: 0.6 },
            LossKind::MarginRanking { gamma: 50.0 },
        ];
        for kind in ModelKind::all() {
            // dim 5: TransH/TransD/ComplEx/TransR/RESCAL get
            // entity_dim != relation_dim out of it.
            let model = kind.build(5);
            let (ed, rd) = (model.entity_dim(), model.relation_dim());
            let mut ref_ws = HashMap::new();
            let mut ws = WorkingSet::new();
            for k in (0..ks.len() as u64).map(ParamKey) {
                let row = row_for(k, if ks.is_entity(k) { ed } else { rd });
                ws.insert(k, &row);
                ref_ws.insert(k, row);
            }
            // One scratch and one accumulator reused across every case, as
            // a worker reuses them across iterations.
            let mut scratch = BatchScratch::default();
            let mut grads = GradAccum::new();
            for loss in losses {
                for (bi, batch) in tricky_batches().iter().enumerate() {
                    let what = format!("{kind} {loss:?} batch {bi}");
                    let mut want_grads = reference::GradMap::default();
                    let want = reference::compute_batch(
                        model.as_ref(),
                        loss,
                        ks,
                        batch,
                        &ref_ws,
                        &mut want_grads,
                    );

                    // The public entry point against a caller-filled set…
                    grads.clear();
                    let got = compute_batch(
                        model.as_ref(),
                        loss,
                        ks,
                        batch,
                        &ws,
                        &mut grads,
                        &mut scratch,
                    );
                    assert_same(&what, got, &grads, want, &want_grads);

                    // …and the worker's: arenas laid out by the plan.
                    scratch.plan.compile(batch, ks, ed, rd);
                    let mut planned_ws = WorkingSet::new();
                    planned_ws.reset(scratch.plan.layout());
                    for (slot, &k) in scratch.plan.keys().iter().enumerate() {
                        planned_ws.row_mut(slot as u32).copy_from_slice(&ref_ws[&k]);
                    }
                    grads.reset(scratch.plan.layout());
                    let got = compute_planned(
                        model.as_ref(),
                        loss,
                        &planned_ws,
                        &mut grads,
                        &mut scratch,
                    );
                    assert_same(&what, got, &grads, want, &want_grads);
                }
            }
        }
    }

    fn assert_same(
        what: &str,
        got: BatchResult,
        grads: &GradAccum,
        want: BatchResult,
        want_grads: &reference::GradMap,
    ) {
        assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{what}: loss");
        assert_eq!(got.terms, want.terms, "{what}: terms");
        assert_eq!(got.work_units, want.work_units, "{what}: work units");
        assert_eq!(grads.len(), want_grads.0.len(), "{what}: touched keys");
        for (k, g) in grads.iter() {
            let w = &want_grads.0[&k];
            assert_eq!(g.len(), w.len(), "{what}: width of {k}");
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: grad {k}[{i}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn compute_batch_adds_onto_gradients_already_accumulated() {
        // Two batches into one accumulator equal the reference doing the
        // same: `grads` is not required to start empty.
        use std::collections::HashMap;
        let ks = KeySpace::new(7, 3);
        let model = ModelKind::TransEL2.build(5);
        let mut ws = WorkingSet::new();
        let mut ref_ws = HashMap::new();
        for k in (0..ks.len() as u64).map(ParamKey) {
            let row = row_for(k, 5);
            ws.insert(k, &row);
            ref_ws.insert(k, row);
        }
        let batches = tricky_batches();
        let mut grads = GradAccum::new();
        let mut want_grads = reference::GradMap::default();
        let mut scratch = BatchScratch::default();
        for b in &batches[..2] {
            compute_batch(
                model.as_ref(),
                LossKind::Logistic,
                ks,
                b,
                &ws,
                &mut grads,
                &mut scratch,
            );
            reference::compute_batch(
                model.as_ref(),
                LossKind::Logistic,
                ks,
                b,
                &ref_ws,
                &mut want_grads,
            );
        }
        assert_eq!(grads.len(), want_grads.0.len());
        for (k, g) in grads.iter() {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(&want_grads.0[&k]), "{k}");
        }
    }

    #[test]
    fn untouched_slots_are_not_gradients() {
        // Laying the accumulator out by a plan registers every key of the
        // batch, but only rows a gradient was added to are pushed.
        let (model, ks, ws) = tiny_setup();
        let b = MiniBatch {
            positives: vec![Triple::new(0, 0, 1)],
            negatives: vec![Negative {
                triple: Triple::new(3, 0, 1),
                slot: CorruptSlot::Head,
            }],
        };
        let mut scratch = BatchScratch::default();
        scratch.plan.compile(&b, ks, 4, 4);
        let mut grads = GradAccum::new();
        grads.reset(scratch.plan.layout());
        assert!(grads.is_empty());
        assert_eq!(grads.iter().count(), 0);
        let mut slots = vec![9];
        grads.sorted_slots_into(&mut slots);
        assert!(slots.is_empty());
        let mut planned_ws = WorkingSet::new();
        planned_ws.reset(scratch.plan.layout());
        for (slot, &k) in scratch.plan.keys().iter().enumerate() {
            planned_ws.row_mut(slot as u32).copy_from_slice(ws.get(k));
        }
        compute_planned(
            model.as_ref(),
            LossKind::Logistic,
            &planned_ws,
            &mut grads,
            &mut scratch,
        );
        assert_eq!(grads.len(), 4, "entities 0, 1, 3 and relation 0");
        let mut slots = Vec::new();
        grads.sorted_slots_into(&mut slots);
        let sorted: Vec<ParamKey> = slots.iter().map(|&s| grads.key_at(s)).collect();
        assert_eq!(
            sorted,
            vec![ParamKey(0), ParamKey(1), ParamKey(3), ParamKey(4)]
        );
    }

    #[test]
    fn clear_keeps_the_arena_for_the_next_batch() {
        let mut ws = WorkingSet::new();
        for k in 0..64u64 {
            ws.insert(ParamKey(k), &[k as f32; 8]);
        }
        let cap = ws.data.capacity();
        ws.clear();
        assert!(ws.is_empty());
        assert!(!ws.contains(ParamKey(3)));
        assert_eq!(ws.data.capacity(), cap, "clear must keep the buffer");
        ws.insert(ParamKey(3), &[1.0; 8]);
        assert_eq!(ws.get(ParamKey(3)), &[1.0; 8]);
        assert_eq!(ws.len(), 1);
    }
}
