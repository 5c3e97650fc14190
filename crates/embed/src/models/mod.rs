//! KGE score functions with analytic gradients.
//!
//! Every model implements [`KgeModel`]: a scalar score for a triple's three
//! embedding slices plus the gradient of that score with respect to each
//! slice. Models may use different per-entity and per-relation parameter
//! widths (e.g. TransR stores a `d×d` projection matrix per relation), which
//! is why [`KgeModel::entity_dim`]/[`KgeModel::relation_dim`] exist — the
//! parameter server and caches size their rows from these.
//!
//! Higher scores mean "more plausible"; translational models return negated
//! distances so this convention holds uniformly.

mod complex;
mod distmult;
mod hole;
mod rescal;
mod transd;
mod transe;
mod transh;
mod transr;

pub use complex::ComplEx;
pub use distmult::DistMult;
pub use hole::HolE;
pub use rescal::Rescal;
pub use transd::TransD;
pub use transe::{Norm, TransE};
pub use transh::TransH;
pub use transr::TransR;

use crate::storage::EmbeddingTable;
use serde::{Deserialize, Serialize};

/// A knowledge-graph embedding score function with analytic gradients.
pub trait KgeModel: Send + Sync {
    /// Human-readable model name (e.g. `"TransE-L2"`).
    fn name(&self) -> &'static str;

    /// The base embedding dimension `d` the model was built with.
    fn base_dim(&self) -> usize;

    /// Width of one entity's parameter row.
    fn entity_dim(&self) -> usize {
        self.base_dim()
    }

    /// Width of one relation's parameter row.
    fn relation_dim(&self) -> usize {
        self.base_dim()
    }

    /// Score of triple `(h, r, t)`; higher = more plausible.
    ///
    /// Slice lengths must equal `entity_dim`/`relation_dim` respectively.
    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32;

    /// Accumulate `dscore * ∂score/∂{h,r,t}` into `gh`, `gr`, `gt`.
    ///
    /// Gradients are *accumulated* (`+=`), so callers can sum over a batch
    /// into shared buffers; zero them first for a fresh gradient.
    #[allow(clippy::too_many_arguments)]
    fn grad(
        &self,
        h: &[f32],
        r: &[f32],
        t: &[f32],
        dscore: f32,
        gh: &mut [f32],
        gr: &mut [f32],
        gt: &mut [f32],
    );

    /// Forward half of a fused score + gradient evaluation: returns exactly
    /// [`KgeModel::score`]`(h, r, t)` and may leave in `fwd` whatever
    /// [`KgeModel::grad_bwd`] can reuse for the same triple (TransE: the
    /// residual and its norm), so the training kernel computes it once per
    /// triple and allocates nothing. The contents of `fwd` are the model's
    /// own business; callers only keep the buffer alive between the two
    /// halves and reuse it across triples.
    ///
    /// Same contract as the block kernels below: an override MUST stay
    /// **bit-identical** to `score`.
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
        let _ = fwd;
        self.score(h, r, t)
    }

    /// Backward half: add `dscore * ∂score/∂{h,r,t}` onto `gh`, `gr`, `gt`,
    /// which already hold other triples' gradients. `fwd` is the buffer the
    /// last [`KgeModel::score_fwd`] call *for these same rows* filled; it
    /// may be used again for a later `grad_bwd` of the same triple, so an
    /// override that reads it must leave it intact.
    ///
    /// The result MUST be bit-identical to [`KgeModel::grad`] into zeroed
    /// buffers followed by an elementwise add onto `gh`/`gr`/`gt` — which
    /// is what this default does, with `fwd` as the zeroed buffer (the
    /// default `score_fwd` keeps nothing there). Accumulating in place is
    /// only the same arithmetic when `grad` touches each output coordinate
    /// exactly once; models for which that holds override this.
    #[allow(clippy::too_many_arguments)]
    fn grad_bwd(
        &self,
        h: &[f32],
        r: &[f32],
        t: &[f32],
        dscore: f32,
        fwd: &mut Vec<f32>,
        gh: &mut [f32],
        gr: &mut [f32],
        gt: &mut [f32],
    ) {
        fwd.clear();
        fwd.resize(gh.len() + gr.len() + gt.len(), 0.0);
        let (th, rest) = fwd.split_at_mut(gh.len());
        let (tr, tt) = rest.split_at_mut(gr.len());
        self.grad(h, r, t, dscore, th, tr, tt);
        for (g, &x) in gh.iter_mut().zip(&*th) {
            *g += x;
        }
        for (g, &x) in gr.iter_mut().zip(&*tr) {
            *g += x;
        }
        for (g, &x) in gt.iter_mut().zip(&*tt) {
            *g += x;
        }
    }

    /// Score a block of candidate tails for a fixed `(h, r)`:
    /// `out[i] = score(h, r, tails.row(ids[i]))`.
    ///
    /// The default implementation loops [`KgeModel::score`]. Models may
    /// override it with a blocked kernel that hoists the per-query work
    /// (e.g. `h + r` for TransE) out of the candidate loop and reuses
    /// `scratch` instead of allocating — but every override MUST stay
    /// **bit-identical** to the default: same float operations on the same
    /// values in the same order per candidate. Offline evaluation pins this
    /// with a differential test; a faster-but-drifting kernel is a bug.
    fn score_tails_block(
        &self,
        h: &[f32],
        r: &[f32],
        tails: &EmbeddingTable,
        ids: &[u32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let _ = scratch;
        debug_assert_eq!(ids.len(), out.len());
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = self.score(h, r, tails.row(id as usize));
        }
    }

    /// Score a block of candidate heads for a fixed `(r, t)`:
    /// `out[i] = score(heads.row(ids[i]), r, t)`.
    ///
    /// Same bit-identity contract as [`KgeModel::score_tails_block`]. Note
    /// that the head side usually has less to hoist: TransE's residual is
    /// `(h + r) - t`, so precomputing `r - t` would change the association
    /// order — overrides on this side mostly win by dropping per-candidate
    /// allocation and dynamic dispatch, not by algebra.
    fn score_heads_block(
        &self,
        heads: &EmbeddingTable,
        ids: &[u32],
        r: &[f32],
        t: &[f32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let _ = scratch;
        debug_assert_eq!(ids.len(), out.len());
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = self.score(heads.row(id as usize), r, t);
        }
    }
}

/// Serializable model selector, used by training configs and the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// TransE with L1 distance.
    TransEL1,
    /// TransE with L2 distance.
    TransEL2,
    /// TransH (relation-specific hyperplanes).
    TransH,
    /// TransR (relation-specific projection matrices; relation rows are
    /// `d + d²` wide).
    TransR,
    /// TransD (projection vectors; entity and relation rows are `2d` wide).
    TransD,
    /// DistMult (diagonal bilinear).
    DistMult,
    /// ComplEx (complex-valued DistMult; rows are `2d` wide).
    ComplEx,
    /// RESCAL (full bilinear; relation rows are `d²` wide).
    Rescal,
    /// HolE (circular correlation).
    HolE,
}

impl ModelKind {
    /// Instantiate the model for base dimension `d`.
    pub fn build(self, dim: usize) -> Box<dyn KgeModel> {
        match self {
            ModelKind::TransEL1 => Box::new(TransE::new(dim, Norm::L1)),
            ModelKind::TransEL2 => Box::new(TransE::new(dim, Norm::L2)),
            ModelKind::TransH => Box::new(TransH::new(dim)),
            ModelKind::TransR => Box::new(TransR::new(dim)),
            ModelKind::TransD => Box::new(TransD::new(dim)),
            ModelKind::DistMult => Box::new(DistMult::new(dim)),
            ModelKind::ComplEx => Box::new(ComplEx::new(dim)),
            ModelKind::Rescal => Box::new(Rescal::new(dim)),
            ModelKind::HolE => Box::new(HolE::new(dim)),
        }
    }

    /// All variants, for exhaustive property tests.
    pub fn all() -> [ModelKind; 9] {
        [
            ModelKind::TransEL1,
            ModelKind::TransEL2,
            ModelKind::TransH,
            ModelKind::TransR,
            ModelKind::TransD,
            ModelKind::DistMult,
            ModelKind::ComplEx,
            ModelKind::Rescal,
            ModelKind::HolE,
        ]
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelKind::TransEL1 => "TransE-L1",
            ModelKind::TransEL2 => "TransE-L2",
            ModelKind::TransH => "TransH",
            ModelKind::TransR => "TransR",
            ModelKind::TransD => "TransD",
            ModelKind::DistMult => "DistMult",
            ModelKind::ComplEx => "ComplEx",
            ModelKind::Rescal => "RESCAL",
            ModelKind::HolE => "HolE",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn every_model_builds_with_consistent_dims() {
        for kind in ModelKind::all() {
            let m = kind.build(8);
            assert_eq!(m.base_dim(), 8, "{kind}");
            assert!(m.entity_dim() >= 8, "{kind}");
            assert!(m.relation_dim() >= 8, "{kind}");
        }
    }

    #[test]
    fn every_model_passes_gradcheck() {
        let mut rng = StdRng::seed_from_u64(99);
        for kind in ModelKind::all() {
            let m = kind.build(6);
            for trial in 0..3 {
                let h: Vec<f32> = (0..m.entity_dim())
                    .map(|_| rng.random_range(-0.8..0.8))
                    .collect();
                let r: Vec<f32> = (0..m.relation_dim())
                    .map(|_| rng.random_range(-0.8..0.8))
                    .collect();
                let t: Vec<f32> = (0..m.entity_dim())
                    .map(|_| rng.random_range(-0.8..0.8))
                    .collect();
                check_model_grads(m.as_ref(), &h, &r, &t)
                    .unwrap_or_else(|e| panic!("{kind} trial {trial}: {e}"));
            }
        }
    }

    #[test]
    fn grads_accumulate_rather_than_overwrite() {
        let m = ModelKind::DistMult.build(4);
        let h = [0.1, 0.2, 0.3, 0.4];
        let r = [0.5, 0.5, 0.5, 0.5];
        let t = [0.4, 0.3, 0.2, 0.1];
        let mut gh = [0.0f32; 4];
        let mut gr = [0.0f32; 4];
        let mut gt = [0.0f32; 4];
        m.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
        let once = gh;
        m.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
        for i in 0..4 {
            assert!((gh[i] - 2.0 * once[i]).abs() < 1e-6);
        }
    }

    /// Every model's block kernels must be bit-identical to the scalar
    /// `score` loop — this is the contract offline evaluation and the
    /// serving top-k path both rely on. Exercises dims that cover the
    /// 8-lane kernels' tails and multi-chunk paths.
    #[test]
    fn block_scoring_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(1234);
        for kind in ModelKind::all() {
            for dim in [3usize, 8, 13] {
                let m = kind.build(dim);
                let n = 17;
                let mut ents = EmbeddingTable::zeros(n, m.entity_dim());
                for i in 0..n {
                    for v in ents.row_mut(i) {
                        *v = rng.random_range(-0.9..0.9);
                    }
                }
                let mut rel = vec![0.0f32; m.relation_dim()];
                for v in rel.iter_mut() {
                    *v = rng.random_range(-0.9..0.9);
                }
                let ids: Vec<u32> = (0..n as u32).rev().collect();
                let fixed = ents.row(5).to_vec();
                let mut scratch = Vec::new();
                let mut out = vec![0.0f32; ids.len()];

                m.score_tails_block(&fixed, &rel, &ents, &ids, &mut out, &mut scratch);
                for (&id, &got) in ids.iter().zip(&out) {
                    let want = m.score(&fixed, &rel, ents.row(id as usize));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kind} d={dim} tail id={id}: {got} vs {want}"
                    );
                }

                m.score_heads_block(&ents, &ids, &rel, &fixed, &mut out, &mut scratch);
                for (&id, &got) in ids.iter().zip(&out) {
                    let want = m.score(ents.row(id as usize), &rel, &fixed);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kind} d={dim} head id={id}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ModelKind::TransEL2.to_string(), "TransE-L2");
        assert_eq!(ModelKind::DistMult.to_string(), "DistMult");
        assert_eq!(ModelKind::Rescal.to_string(), "RESCAL");
    }
}
