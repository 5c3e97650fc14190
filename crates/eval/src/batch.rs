//! Blocked candidate scoring and top-k selection — the kernels shared by
//! offline evaluation and the high-QPS serving path.
//!
//! The scalar protocol scores corrupted triples one at a time through
//! `model.score`, which for most models allocates a scratch vector per
//! call and always pays a virtual dispatch per candidate. [`BatchScorer`]
//! instead feeds candidates to the model's block kernels
//! ([`KgeModel::score_tails_block`] / [`KgeModel::score_heads_block`]) in
//! chunks of [`BLOCK`], reusing one scratch buffer for the whole sweep.
//! Block kernels are contractually **bit-identical** to the scalar score
//! (pinned by differential tests in the embed crate and here), so
//! everything downstream — ranks, MRR, top-k — is unchanged to the bit.
//!
//! [`TopK`] is a deterministic bounded selection: best `k` by score
//! descending, ties broken by ascending id, so two sweeps over the same
//! snapshot always return the same answer regardless of block size.

use hetkg_embed::models::KgeModel;
use hetkg_embed::storage::EmbeddingTable;

/// Candidates scored per block-kernel call. Large enough to amortize the
/// dispatch, small enough that the score buffer stays in L1.
pub const BLOCK: usize = 256;

/// A reusable blocked scorer for one model.
///
/// Holds the scratch the block kernels need so a sweep over millions of
/// candidates allocates nothing after the first call.
pub struct BatchScorer<'m> {
    model: &'m dyn KgeModel,
    scratch: Vec<f32>,
}

impl<'m> BatchScorer<'m> {
    /// A scorer borrowing `model`.
    pub fn new(model: &'m dyn KgeModel) -> Self {
        Self {
            model,
            scratch: Vec::new(),
        }
    }

    /// The model being scored.
    pub fn model(&self) -> &'m dyn KgeModel {
        self.model
    }

    /// `out[i] = score(h, r, entities.row(ids[i]))`, blocked.
    ///
    /// `out` must be the same length as `ids`.
    pub fn score_tails(
        &mut self,
        entities: &EmbeddingTable,
        h: &[f32],
        r: &[f32],
        ids: &[u32],
        out: &mut [f32],
    ) {
        assert_eq!(ids.len(), out.len(), "ids and out must be parallel");
        for (idc, outc) in ids.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            self.model
                .score_tails_block(h, r, entities, idc, outc, &mut self.scratch);
        }
    }

    /// `out[i] = score(entities.row(ids[i]), r, t)`, blocked.
    pub fn score_heads(
        &mut self,
        entities: &EmbeddingTable,
        r: &[f32],
        t: &[f32],
        ids: &[u32],
        out: &mut [f32],
    ) {
        assert_eq!(ids.len(), out.len(), "ids and out must be parallel");
        for (idc, outc) in ids.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            self.model
                .score_heads_block(entities, idc, r, t, outc, &mut self.scratch);
        }
    }
}

/// Deterministic bounded top-k selection over `(score, id)` pairs.
///
/// Ordering: higher score wins; equal scores break toward the smaller id.
/// NaN scores are demoted to `-inf` before comparing (under `total_cmp`
/// alone a positive NaN would outrank `+inf`), so a poisoned score can
/// never crowd out a real one. The result is therefore independent of the
/// order candidates are offered in.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Kept sorted best-first; never longer than `k`.
    entries: Vec<(f32, u32)>,
}

impl TopK {
    /// An empty accumulator for the best `k` candidates.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "top-k needs k >= 1");
        Self {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// `k` as configured.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Candidates currently held (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn beats(a: (f32, u32), b: (f32, u32)) -> bool {
        let demote = |s: f32| if s.is_nan() { f32::NEG_INFINITY } else { s };
        match demote(a.0).total_cmp(&demote(b.0)) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a.1 < b.1,
        }
    }

    /// Offer one candidate.
    #[inline]
    pub fn offer(&mut self, score: f32, id: u32) {
        if self.entries.len() == self.k {
            // Full: reject fast unless it beats the current worst.
            let worst = *self.entries.last().expect("k >= 1");
            if !Self::beats((score, id), worst) {
                return;
            }
            self.entries.pop();
        }
        let pos = self
            .entries
            .partition_point(|&e| Self::beats(e, (score, id)));
        self.entries.insert(pos, (score, id));
    }

    /// The selected candidates, best first, as `(id, score)`.
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        self.entries.into_iter().map(|(s, id)| (id, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::models::{ModelKind, Norm, TransE};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_table(rows: usize, dim: usize, rng: &mut StdRng) -> EmbeddingTable {
        let mut t = EmbeddingTable::zeros(rows, dim);
        for i in 0..rows {
            for v in t.row_mut(i) {
                *v = rng.random_range(-1.0..1.0);
            }
        }
        t
    }

    #[test]
    fn blocked_scoring_matches_scalar_for_every_model() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in ModelKind::all() {
            let model = kind.build(6);
            let ents = random_table(300, model.entity_dim(), &mut rng);
            let mut rel = vec![0.0f32; model.relation_dim()];
            for v in rel.iter_mut() {
                *v = rng.random_range(-1.0..1.0);
            }
            let ids: Vec<u32> = (0..300).collect();
            let mut out = vec![0.0f32; ids.len()];
            let mut scorer = BatchScorer::new(model.as_ref());
            let h = ents.row(0).to_vec();
            scorer.score_tails(&ents, &h, &rel, &ids, &mut out);
            for (&id, &got) in ids.iter().zip(&out) {
                let want = model.score(&h, &rel, ents.row(id as usize));
                assert_eq!(got.to_bits(), want.to_bits(), "{kind} tail {id}");
            }
            scorer.score_heads(&ents, &rel, &h, &ids, &mut out);
            for (&id, &got) in ids.iter().zip(&out) {
                let want = model.score(ents.row(id as usize), &rel, &h);
                assert_eq!(got.to_bits(), want.to_bits(), "{kind} head {id}");
            }
        }
    }

    #[test]
    fn topk_selects_best_with_deterministic_ties() {
        let mut tk = TopK::new(3);
        tk.offer(1.0, 9);
        tk.offer(2.0, 4);
        tk.offer(2.0, 2); // ties break toward the smaller id
        tk.offer(0.5, 1);
        tk.offer(3.0, 7);
        assert_eq!(tk.into_sorted(), vec![(7, 3.0), (2, 2.0), (4, 2.0)]);
    }

    #[test]
    fn topk_is_order_independent() {
        let pairs: Vec<(f32, u32)> = (0..200u32).map(|i| ((i % 13) as f32, i)).collect();
        let mut fwd = TopK::new(10);
        for &(s, id) in &pairs {
            fwd.offer(s, id);
        }
        let mut rev = TopK::new(10);
        for &(s, id) in pairs.iter().rev() {
            rev.offer(s, id);
        }
        assert_eq!(fwd.into_sorted(), rev.into_sorted());
    }

    #[test]
    fn topk_handles_fewer_candidates_than_k() {
        let mut tk = TopK::new(10);
        tk.offer(1.0, 1);
        tk.offer(2.0, 0);
        assert_eq!(tk.into_sorted(), vec![(0, 2.0), (1, 1.0)]);
    }

    #[test]
    fn topk_nan_scores_rank_last_not_first() {
        let mut tk = TopK::new(2);
        tk.offer(f32::NAN, 0);
        tk.offer(1.0, 1);
        tk.offer(-1.0, 2);
        let got = tk.into_sorted();
        assert_eq!(got[0], (1, 1.0));
        assert_eq!(got[1], (2, -1.0));
    }

    #[test]
    fn topk_agrees_with_full_sort_on_real_scores() {
        let mut rng = StdRng::seed_from_u64(21);
        let model = TransE::new(8, Norm::L2);
        let ents = random_table(500, 8, &mut rng);
        let rel: Vec<f32> = (0..8).map(|_| rng.random_range(-1.0..1.0)).collect();
        let ids: Vec<u32> = (0..500).collect();
        let mut out = vec![0.0f32; ids.len()];
        let mut scorer = BatchScorer::new(&model);
        let h = ents.row(3).to_vec();
        scorer.score_tails(&ents, &h, &rel, &ids, &mut out);

        let mut tk = TopK::new(7);
        for (&s, &id) in out.iter().zip(&ids) {
            tk.offer(s, id);
        }
        let got = tk.into_sorted();

        let mut full: Vec<(u32, f32)> = ids.iter().map(|&i| (i, out[i as usize])).collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(got, full[..7].to_vec());
    }
}
