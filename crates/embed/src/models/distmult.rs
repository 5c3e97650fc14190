//! DistMult (Yang et al., 2015): diagonal bilinear scoring.
//!
//! `score(h, r, t) = Σ_i h_i · r_i · t_i`. The second model the paper
//! evaluates. Symmetric in h/t by construction.

use super::KgeModel;
use crate::storage::EmbeddingTable;

/// The DistMult score function.
#[derive(Debug, Clone)]
pub struct DistMult {
    dim: usize,
}

impl DistMult {
    /// DistMult over dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for DistMult {
    fn name(&self) -> &'static str {
        "DistMult"
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for i in 0..self.dim {
            acc += h[i] * r[i] * t[i];
        }
        acc
    }

    /// Blocked tail scoring with the per-query product `h ⊙ r` hoisted out
    /// of the candidate loop. Bit-identical to the scalar path:
    /// `h[i] * r[i] * t[i]` parses as `(h[i] * r[i]) * t[i]`, so
    /// precomputing `hr[i] = h[i] * r[i]` performs the same multiplies in
    /// the same order, and the accumulation stays the same sequential sum.
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
        let hr = &mut scratch[..d];
        for i in 0..d {
            hr[i] = h[i] * r[i];
        }
        for (o, &id) in out.iter_mut().zip(ids) {
            let t = tails.row(id as usize);
            let mut acc = 0.0f32;
            for i in 0..d {
                acc += hr[i] * t[i];
            }
            *o = acc;
        }
    }

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
        for i in 0..self.dim {
            gh[i] += dscore * r[i] * t[i];
            gr[i] += dscore * h[i] * t[i];
            gt[i] += dscore * h[i] * r[i];
        }
    }

    /// In place: `grad` touches every coordinate of `gh`, `gr`, `gt` exactly
    /// once, so adding onto earlier gradients is the same arithmetic as
    /// zeroed buffers plus an elementwise add.
    fn grad_bwd(
        &self,
        h: &[f32],
        r: &[f32],
        t: &[f32],
        dscore: f32,
        _fwd: &mut Vec<f32>,
        gh: &mut [f32],
        gr: &mut [f32],
        gt: &mut [f32],
    ) {
        self.grad(h, r, t, dscore, gh, gr, gt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;

    #[test]
    fn score_matches_manual_sum() {
        let m = DistMult::new(3);
        let s = m.score(&[1.0, 2.0, 3.0], &[1.0, 0.5, 2.0], &[2.0, 2.0, 1.0]);
        assert!((s - (2.0 + 2.0 + 6.0)).abs() < 1e-6);
    }

    #[test]
    fn symmetric_in_head_and_tail() {
        let m = DistMult::new(4);
        let h = [0.1, 0.2, 0.3, 0.4];
        let r = [0.9, -0.8, 0.7, -0.6];
        let t = [0.5, 0.6, 0.7, 0.8];
        assert!((m.score(&h, &r, &t) - m.score(&t, &r, &h)).abs() < 1e-6);
    }

    #[test]
    fn gradcheck() {
        let m = DistMult::new(6);
        let h = [0.3, -0.4, 0.5, 0.1, -0.9, 0.2];
        let r = [0.2, 0.2, -0.3, 0.4, 0.0, -0.7];
        let t = [-0.1, 0.6, 0.2, -0.5, 0.3, 0.8];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }

    #[test]
    fn dscore_scales_gradient_linearly() {
        let m = DistMult::new(2);
        let h = [1.0, 2.0];
        let r = [3.0, 4.0];
        let t = [5.0, 6.0];
        let mut g1 = ([0.0f32; 2], [0.0f32; 2], [0.0f32; 2]);
        let mut g3 = ([0.0f32; 2], [0.0f32; 2], [0.0f32; 2]);
        m.grad(&h, &r, &t, 1.0, &mut g1.0, &mut g1.1, &mut g1.2);
        m.grad(&h, &r, &t, 3.0, &mut g3.0, &mut g3.1, &mut g3.2);
        for i in 0..2 {
            assert!((g3.0[i] - 3.0 * g1.0[i]).abs() < 1e-6);
            assert!((g3.1[i] - 3.0 * g1.1[i]).abs() < 1e-6);
            assert!((g3.2[i] - 3.0 * g1.2[i]).abs() < 1e-6);
        }
    }
}
