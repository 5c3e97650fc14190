//! TransR (Lin et al., 2015): relation-specific projection *matrices*.
//!
//! Each relation carries a translation `r` and a full `d×d` projection
//! matrix `M_r` (relation rows are `d + d²` wide: `[r | M_r row-major]`):
//!
//! `score = −‖M_r h + r − M_r t‖₂`.
//!
//! The quadratic relation width is the cost the paper's related-work section
//! notes; it also makes TransR a good stress test for variable-width rows in
//! the PS and cache.

use super::KgeModel;
use crate::math::{matvec, norm2};

/// The TransR score function.
#[derive(Debug, Clone)]
pub struct TransR {
    dim: usize,
}

impl TransR {
    /// TransR over base dimension `dim` (projection matrices are `dim×dim`).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for TransR {
    fn name(&self) -> &'static str {
        "TransR"
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    fn relation_dim(&self) -> usize {
        self.dim + self.dim * self.dim
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        self.score_fwd(h, r, t, &mut Vec::new())
    }

    /// Leaves `[u (d), ‖u‖]` in `fwd` (followed by the two projections it
    /// was built from, which nothing reads back).
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
        let d = self.dim;
        let (rv, m) = r.split_at(d);
        fwd.resize(3 * d + 1, 0.0);
        let (u, rest) = fwd.split_at_mut(d);
        let (n, rest) = rest.split_at_mut(1);
        let (mh, mt) = rest.split_at_mut(d);
        matvec(m, h, mh);
        matvec(m, t, mt);
        for i in 0..d {
            u[i] = mh[i] + rv[i] - mt[i];
        }
        n[0] = norm2(u);
        -n[0]
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
        let mut fwd = Vec::new();
        self.score_fwd(h, r, t, &mut fwd);
        self.grad_bwd(h, r, t, dscore, &mut fwd, gh, gr, gt);
    }

    /// In place: every output coordinate is touched once.
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
        let m = &r[d..];
        let (u, n) = (&fwd[..d], fwd[d]);
        if n == 0.0 {
            return;
        }
        let coef = -dscore / n;
        let (grv, gm) = gr.split_at_mut(d);
        for i in 0..d {
            let g = coef * u[i];
            grv[i] += g;
            // dM: g (h − t)ᵀ, row-major
            for j in 0..d {
                gm[i * d + j] += g * (h[j] - t[j]);
            }
        }
        // dh = Mᵀ g, dt = −Mᵀ g
        for j in 0..d {
            let mut acc = 0.0f32;
            for i in 0..d {
                acc += m[i * d + j] * coef * u[i];
            }
            gh[j] += acc;
            gt[j] -= acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;

    #[test]
    fn relation_rows_are_d_plus_d_squared() {
        let m = TransR::new(5);
        assert_eq!(m.relation_dim(), 5 + 25);
    }

    #[test]
    fn identity_matrix_reduces_to_transe() {
        let d = 3;
        let m = TransR::new(d);
        let h = [0.2, -0.1, 0.4];
        let rv = [0.3, 0.3, 0.3];
        let t = [0.6, 0.1, 0.9];
        // r = [rv | I]
        let mut r = vec![0.0f32; d + d * d];
        r[..d].copy_from_slice(&rv);
        for i in 0..d {
            r[d + i * d + i] = 1.0;
        }
        let te = super::super::TransE::new(d, super::super::Norm::L2);
        assert!((m.score(&h, &r, &t) - te.score(&h, &rv, &t)).abs() < 1e-6);
    }

    #[test]
    fn gradcheck() {
        let d = 3;
        let m = TransR::new(d);
        let h = [0.3, -0.4, 0.5];
        let t = [-0.1, 0.6, 0.2];
        let r: Vec<f32> = (0..d + d * d)
            .map(|i| ((i as f32) * 0.37).sin() * 0.5)
            .collect();
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
