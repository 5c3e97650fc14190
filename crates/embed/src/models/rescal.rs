//! RESCAL (Nickel et al., 2011): full bilinear scoring.
//!
//! Each relation is a `d×d` matrix (relation rows are `d²` wide, row-major):
//!
//! `score = hᵀ M_r t`.
//!
//! The most expressive — and most parameter-hungry — of the semantic
//! matching family; DistMult is its diagonal restriction.

use super::{add_through_scratch, KgeModel};
use crate::math::{dot, matvec};

/// The RESCAL score function.
#[derive(Debug, Clone)]
pub struct Rescal {
    dim: usize,
}

impl Rescal {
    /// RESCAL over base dimension `dim` (relation rows are `dim²` floats).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for Rescal {
    fn name(&self) -> &'static str {
        "RESCAL"
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    fn relation_dim(&self) -> usize {
        self.dim * self.dim
    }

    /// `fwd` holds `M t` while the score is formed; nothing is kept for the
    /// backward half.
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
        fwd.resize(self.dim, 0.0);
        let mt = &mut fwd[..self.dim];
        matvec(r, t, mt);
        dot(h, mt)
    }

    /// Through scratch: every `gt` coordinate is added to `d` times.
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
            // gh = M t ; gt = Mᵀ h ; gM_ij = h_i t_j
            for i in 0..d {
                let row = &r[i * d..(i + 1) * d];
                gh[i] += dscore * dot(row, t);
                let hi = dscore * h[i];
                for j in 0..d {
                    gt[j] += hi * row[j];
                    gr[i * d + j] += hi * t[j];
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
    fn diagonal_matrix_reduces_to_distmult() {
        let d = 3;
        let m = Rescal::new(d);
        let h = [0.2, -0.1, 0.4];
        let rv = [0.3, 0.6, 0.9];
        let t = [0.6, 0.1, 0.9];
        let mut r = vec![0.0f32; d * d];
        for i in 0..d {
            r[i * d + i] = rv[i];
        }
        let dm = super::super::DistMult::new(d);
        assert!((m.score(&h, &r, &t) - dm.score(&h, &rv, &t)).abs() < 1e-6);
    }

    #[test]
    fn identity_matrix_gives_dot_product() {
        let d = 2;
        let m = Rescal::new(d);
        let r = [1.0, 0.0, 0.0, 1.0];
        let s = m.score(&[2.0, 3.0], &r, &[4.0, 5.0]);
        assert!((s - 23.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck() {
        let d = 3;
        let m = Rescal::new(d);
        let h = [0.3, -0.4, 0.5];
        let t = [-0.1, 0.6, 0.2];
        let r: Vec<f32> = (0..d * d)
            .map(|i| ((i as f32) * 0.53).cos() * 0.5)
            .collect();
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
