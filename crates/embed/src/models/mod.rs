//! KGE score functions with analytic gradients.
//!
//! Every model implements [`KgeModel`] as two kernels: `score_fwd`, a scalar
//! score for a triple's three embedding slices, and `grad_bwd`, the gradient
//! of that score with respect to each slice. Scoring one triple, scoring a
//! block of candidates and differentiating are views of that pair. Models
//! may use different per-entity and per-relation parameter widths (e.g.
//! TransR stores a `d×d` projection matrix per relation), which is why
//! [`KgeModel::entity_dim`]/[`KgeModel::relation_dim`] exist — the parameter
//! server and caches size their rows from these.
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
///
/// A model is two kernels: [`KgeModel::score_fwd`], the forward half, and
/// [`KgeModel::grad_bwd`], the backward half, which may reuse what the
/// forward half left in the caller's scratch. Training calls the pair
/// directly; [`KgeModel::score`], [`KgeModel::grad`] and the block loops
/// are provided views of it, so offline evaluation, serving and training
/// run one implementation per model. A block override may hoist
/// per-query work out of the candidate loop, but it MUST stay
/// **bit-identical** to the provided loop: same float operations on the
/// same values in the same order per candidate.
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

    /// Score of triple `(h, r, t)`; higher = more plausible. Slice lengths
    /// must equal `entity_dim`/`relation_dim` respectively.
    ///
    /// May leave in `fwd` whatever [`KgeModel::grad_bwd`] can reuse for the
    /// same triple (TransE: the residual and its norm), so the training
    /// kernel computes it once per triple and allocates nothing. The
    /// contents of `fwd` are the model's own business: callers only keep
    /// the buffer alive between the two halves and reuse it across triples,
    /// and the score does not depend on what it held before.
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32;

    /// Add `dscore * ∂score/∂{h,r,t}` onto `gh`, `gr`, `gt`, which may
    /// already hold other triples' gradients. `fwd` is the buffer the last
    /// [`KgeModel::score_fwd`] call *for these same rows* filled; it may be
    /// used again for a later `grad_bwd` of the same triple, so a model
    /// that reads it must leave what it reads intact.
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
    );

    /// [`KgeModel::score_fwd`] with a throwaway buffer.
    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        self.score_fwd(h, r, t, &mut Vec::new())
    }

    /// Accumulate `dscore * ∂score/∂{h,r,t}` into `gh`, `gr`, `gt`: the
    /// forward half, then the backward half, with a throwaway buffer.
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
    ) {
        let mut fwd = Vec::new();
        self.score_fwd(h, r, t, &mut fwd);
        self.grad_bwd(h, r, t, dscore, &mut fwd, gh, gr, gt);
    }

    /// Score a block of candidate tails for a fixed `(h, r)`:
    /// `out[i] = score(h, r, tails.row(ids[i]))`, with `scratch` as every
    /// candidate's forward buffer. Offline evaluation and serving's top-k
    /// call it; this module's tests pin any override to the scalar path bit
    /// for bit.
    fn score_tails_block(
        &self,
        h: &[f32],
        r: &[f32],
        tails: &EmbeddingTable,
        ids: &[u32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        debug_assert_eq!(ids.len(), out.len());
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = self.score_fwd(h, r, tails.row(id as usize), scratch);
        }
    }

    /// Score a block of candidate heads for a fixed `(r, t)`:
    /// `out[i] = score(heads.row(ids[i]), r, t)`, with `scratch` as every
    /// candidate's forward buffer. No model overrides it: the head side has
    /// little to hoist (TransE's residual is `(h + r) - t`, so precomputing
    /// `r - t` would change the association order).
    fn score_heads_block(
        &self,
        heads: &EmbeddingTable,
        ids: &[u32],
        r: &[f32],
        t: &[f32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        debug_assert_eq!(ids.len(), out.len());
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = self.score_fwd(heads.row(id as usize), r, t, scratch);
        }
    }
}

/// The backward half of a model whose gradient adds into some output
/// coordinate more than once (HolE, RESCAL): `grad` accumulates into zeroed
/// buffers carved from `fwd`, which are then added onto `gh`, `gr`, `gt`
/// elementwise. Adding in place instead would round differently. Clobbers
/// `fwd`, so such a model's `grad_bwd` reads nothing its `score_fwd` left.
fn add_through_scratch(
    fwd: &mut Vec<f32>,
    gh: &mut [f32],
    gr: &mut [f32],
    gt: &mut [f32],
    grad: impl FnOnce(&mut [f32], &mut [f32], &mut [f32]),
) {
    fwd.clear();
    fwd.resize(gh.len() + gr.len() + gt.len(), 0.0);
    let (th, rest) = fwd.split_at_mut(gh.len());
    let (tr, tt) = rest.split_at_mut(gr.len());
    grad(th, tr, tt);
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

    /// `grad` is provided for every model; it must add onto what the
    /// buffers hold, not overwrite it.
    #[test]
    fn grads_accumulate_rather_than_overwrite() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in ModelKind::all() {
            let m = kind.build(4);
            let mut row =
                |n: usize| -> Vec<f32> { (0..n).map(|_| rng.random_range(-0.8..0.8)).collect() };
            let (h, r, t) = (
                row(m.entity_dim()),
                row(m.relation_dim()),
                row(m.entity_dim()),
            );
            let mut gh = vec![0.0f32; h.len()];
            let mut gr = vec![0.0f32; r.len()];
            let mut gt = vec![0.0f32; t.len()];
            m.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
            let once = [gh.clone(), gr.clone(), gt.clone()];
            assert!(once.iter().flatten().any(|&g| g != 0.0), "{kind}");
            m.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
            for (twice, once) in [gh, gr, gt].iter().zip(&once) {
                for (a, b) in twice.iter().zip(once) {
                    assert!((a - 2.0 * b).abs() < 1e-6, "{kind}: {a} vs 2 × {b}");
                }
            }
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
