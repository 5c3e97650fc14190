//! TransE (Bordes et al., 2013): relations as translations.
//!
//! `score(h, r, t) = −‖h + r − t‖` under L1 or L2. The original
//! translational-distance model, and one of the two the paper evaluates.

use super::KgeModel;
use crate::math::{norm1, norm2, residual_norm1, residual_norm2, translation_residual};
use crate::storage::EmbeddingTable;

/// Distance norm used by [`TransE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// Manhattan distance.
    L1,
    /// Euclidean distance.
    L2,
}

/// The TransE score function.
#[derive(Debug, Clone)]
pub struct TransE {
    dim: usize,
    norm: Norm,
}

impl TransE {
    /// TransE over base dimension `dim` with the given norm.
    pub fn new(dim: usize, norm: Norm) -> Self {
        assert!(dim > 0);
        Self { dim, norm }
    }
}

impl KgeModel for TransE {
    fn name(&self) -> &'static str {
        match self.norm {
            Norm::L1 => "TransE-L1",
            Norm::L2 => "TransE-L2",
        }
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    /// Leaves the residual `u = h + r − t` in `fwd[..dim]` and its norm in
    /// `fwd[dim]`, the two things [`TransE::grad_bwd`] needs.
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
        fwd.resize(self.dim + 1, 0.0);
        let (u, n) = fwd.split_at_mut(self.dim);
        translation_residual(h, r, t, u);
        n[0] = match self.norm {
            Norm::L1 => norm1(u),
            Norm::L2 => norm2(u),
        };
        -n[0]
    }

    /// Blocked tail scoring with the per-query translation `q = h + r`
    /// hoisted out of the candidate loop. Bit-identical to the scalar
    /// path: the residual is still `(h[i] + r[i]) - t[i]` — the same two
    /// additions in the same order — and the fused residual-norm kernels
    /// accumulate in exactly the order `translation_residual` + norm
    /// would, just without storing the residual in between.
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
        let d = self.dim;
        scratch.resize(d, 0.0);
        let q = &mut scratch[..d];
        for i in 0..d {
            q[i] = h[i] + r[i];
        }
        match self.norm {
            Norm::L1 => {
                for (o, &id) in out.iter_mut().zip(ids) {
                    *o = -residual_norm1(q, tails.row(id as usize));
                }
            }
            Norm::L2 => {
                for (o, &id) in out.iter_mut().zip(ids) {
                    *o = -residual_norm2(q, tails.row(id as usize));
                }
            }
        }
    }

    /// In place: every coordinate of `gh`, `gr`, `gt` is touched once.
    fn grad_bwd(
        &self,
        _h: &[f32],
        _r: &[f32],
        _t: &[f32],
        dscore: f32,
        fwd: &mut Vec<f32>,
        gh: &mut [f32],
        gr: &mut [f32],
        gt: &mut [f32],
    ) {
        let d = self.dim;
        let (u, n) = (&fwd[..d], fwd[d]);
        let (gh, gr, gt) = (&mut gh[..d], &mut gr[..d], &mut gt[..d]);
        match self.norm {
            Norm::L1 => {
                // d(−Σ|u_i|)/du_i = −sign(u_i); subgradient 0 at u_i == 0.
                for i in 0..d {
                    let g = -dscore * u[i].signum() * if u[i] == 0.0 { 0.0 } else { 1.0 };
                    gh[i] += g;
                    gr[i] += g;
                    gt[i] -= g;
                }
            }
            Norm::L2 => {
                if n == 0.0 {
                    return; // score is at its max; zero (sub)gradient.
                }
                let inv = dscore * (-1.0 / n);
                for i in 0..d {
                    let g = inv * u[i];
                    gh[i] += g;
                    gr[i] += g;
                    gt[i] -= g;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;

    #[test]
    fn perfect_translation_scores_zero() {
        let m = TransE::new(3, Norm::L2);
        let h = [1.0, 2.0, 3.0];
        let r = [0.5, 0.5, 0.5];
        let t = [1.5, 2.5, 3.5];
        assert!((m.score(&h, &r, &t)).abs() < 1e-6);
    }

    #[test]
    fn worse_translation_scores_lower() {
        let m = TransE::new(2, Norm::L2);
        let h = [0.0, 0.0];
        let r = [1.0, 0.0];
        let good = m.score(&h, &r, &[1.0, 0.0]);
        let bad = m.score(&h, &r, &[5.0, 5.0]);
        assert!(good > bad);
    }

    #[test]
    fn l1_and_l2_agree_on_axis_aligned_residual() {
        let h = [0.0, 0.0];
        let r = [0.0, 0.0];
        let t = [2.0, 0.0];
        assert_eq!(TransE::new(2, Norm::L1).score(&h, &r, &t), -2.0);
        assert_eq!(TransE::new(2, Norm::L2).score(&h, &r, &t), -2.0);
    }

    #[test]
    fn l2_gradcheck() {
        let m = TransE::new(5, Norm::L2);
        let h = [0.3, -0.4, 0.5, 0.1, -0.9];
        let r = [0.2, 0.2, -0.3, 0.4, 0.0];
        let t = [-0.1, 0.6, 0.2, -0.5, 0.3];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }

    #[test]
    fn l1_gradcheck_away_from_kinks() {
        // L1 is non-differentiable where a residual coordinate is 0;
        // pick a point with all coordinates clearly non-zero.
        let m = TransE::new(4, Norm::L1);
        let h = [0.9, -0.7, 0.6, 0.3];
        let r = [0.5, 0.5, 0.5, 0.5];
        let t = [-0.3, 0.4, -0.2, -0.6];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }

    #[test]
    fn zero_residual_gradient_is_zero_not_nan() {
        let m = TransE::new(2, Norm::L2);
        let h = [1.0, 1.0];
        let r = [0.0, 0.0];
        let t = [1.0, 1.0];
        let mut gh = [0.0; 2];
        let mut gr = [0.0; 2];
        let mut gt = [0.0; 2];
        m.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
        assert!(gh
            .iter()
            .chain(&gr)
            .chain(&gt)
            .all(|v| v.is_finite() && *v == 0.0));
    }
}
