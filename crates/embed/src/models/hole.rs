//! HolE (Nickel et al., 2016): holographic embeddings via circular
//! correlation.
//!
//! `score = rᵀ (h ⋆ t)` where `(h ⋆ t)_k = Σ_i h_i · t_{(k+i) mod d}`.
//!
//! Compresses RESCAL's pairwise interactions into `d` dimensions — the
//! paper's related-work section describes it as combining RESCAL's
//! expressiveness with DistMult's simplicity. The correlation here is the
//! direct O(d²) form (an FFT would need a transform dependency; at the
//! dimensions used in the experiments the direct form is fast enough).

use super::{add_through_scratch, KgeModel};

/// The HolE score function.
#[derive(Debug, Clone)]
pub struct HolE {
    dim: usize,
}

impl HolE {
    /// HolE over dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for HolE {
    fn name(&self) -> &'static str {
        "HolE"
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], _fwd: &mut Vec<f32>) -> f32 {
        let d = self.dim;
        let mut acc = 0.0f32;
        for k in 0..d {
            let mut corr = 0.0f32;
            for i in 0..d {
                corr += h[i] * t[(k + i) % d];
            }
            acc += r[k] * corr;
        }
        acc
    }

    /// Through scratch: every `gh` and `gt` coordinate is added to `d` times.
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
        let d = self.dim;
        add_through_scratch(fwd, gh, gr, gt, |gh, gr, gt| {
            for k in 0..d {
                let mut corr = 0.0f32;
                for i in 0..d {
                    corr += h[i] * t[(k + i) % d];
                }
                gr[k] += dscore * corr;
                let rk = dscore * r[k];
                for i in 0..d {
                    // score term r_k h_i t_{(k+i)%d}
                    gh[i] += rk * t[(k + i) % d];
                    gt[(k + i) % d] += rk * h[i];
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;

    #[test]
    fn dim1_is_product() {
        let m = HolE::new(1);
        assert!((m.score(&[2.0], &[3.0], &[4.0]) - 24.0).abs() < 1e-6);
    }

    #[test]
    fn score_matches_manual_correlation() {
        let m = HolE::new(2);
        let h = [1.0, 2.0];
        let t = [3.0, 4.0];
        // (h⋆t)_0 = h0*t0 + h1*t1 = 11 ; (h⋆t)_1 = h0*t1 + h1*t0 = 10
        let r = [1.0, 0.0];
        assert!((m.score(&h, &r, &t) - 11.0).abs() < 1e-6);
        let r = [0.0, 1.0];
        assert!((m.score(&h, &r, &t) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck() {
        let m = HolE::new(4);
        let h = [0.3, -0.4, 0.5, 0.1];
        let r = [0.2, 0.2, -0.3, 0.4];
        let t = [-0.1, 0.6, 0.2, -0.5];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
