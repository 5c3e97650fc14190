//! TransH (Wang et al., 2014): translations on relation-specific
//! hyperplanes.
//!
//! Each relation carries a translation vector `d_r` and a hyperplane normal
//! `w_r` (relation rows are `2d` wide: `[d_r | w_r]`). Entities are
//! projected onto the hyperplane before translating:
//!
//! `h⊥ = h − (w_rᵀ h) w_r`, `t⊥ = t − (w_rᵀ t) w_r`,
//! `score = −‖h⊥ + d_r − t⊥‖₂`.
//!
//! The unit-norm constraint on `w_r` is enforced softly by the trainer
//! (periodic renormalization); the score and gradient here use `w_r` as
//! stored, which keeps the backward pass exact for gradcheck.

use super::KgeModel;
use crate::math::{dot, norm2};

/// The TransH score function.
#[derive(Debug, Clone)]
pub struct TransH {
    dim: usize,
}

impl TransH {
    /// TransH over base dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for TransH {
    fn name(&self) -> &'static str {
        "TransH"
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    fn relation_dim(&self) -> usize {
        2 * self.dim
    }

    /// Leaves `[u (d), ‖u‖, w·h, w·t]` in `fwd`.
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
        let d = self.dim;
        let (dr, w) = r.split_at(d);
        let wh = dot(w, h);
        let wt = dot(w, t);
        fwd.resize(d + 3, 0.0);
        let (u, tail) = fwd.split_at_mut(d);
        for i in 0..d {
            let hp = h[i] - wh * w[i];
            let tp = t[i] - wt * w[i];
            u[i] = hp + dr[i] - tp;
        }
        let n = norm2(u);
        tail.copy_from_slice(&[n, wh, wt]);
        -n
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
        let w = &r[d..];
        let (u, n, wh, wt) = (&fwd[..d], fwd[d], fwd[d + 1], fwd[d + 2]);
        if n == 0.0 {
            return;
        }
        let coef = -dscore / n;
        let wg: f32 = (0..d).map(|i| w[i] * coef * u[i]).sum();
        let (gdr, gw) = gr.split_at_mut(d);
        for i in 0..d {
            let g = coef * u[i];
            gh[i] += g - wg * w[i];
            gt[i] -= g - wg * w[i];
            gdr[i] += g;
            gw[i] += -(h[i] * wg + wh * g) + (t[i] * wg + wt * g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;

    #[test]
    fn relation_rows_are_twice_as_wide() {
        let m = TransH::new(8);
        assert_eq!(m.entity_dim(), 8);
        assert_eq!(m.relation_dim(), 16);
    }

    #[test]
    fn zero_normal_reduces_to_transe() {
        // With w = 0 there is no projection: TransH == TransE-L2.
        let m = TransH::new(3);
        let h = [0.2, -0.1, 0.4];
        let dr = [0.3, 0.3, 0.3];
        let t = [0.6, 0.1, 0.9];
        let r = [dr[0], dr[1], dr[2], 0.0, 0.0, 0.0];
        let te = super::super::TransE::new(3, super::super::Norm::L2);
        assert!((m.score(&h, &r, &t) - te.score(&h, &dr, &t)).abs() < 1e-6);
    }

    #[test]
    fn projection_removes_normal_component() {
        // h differs from t only along w: after projection the residual is
        // just d_r.
        let m = TransH::new(2);
        let w = [1.0, 0.0];
        let dr = [0.0, 0.5];
        let r = [dr[0], dr[1], w[0], w[1]];
        let h = [3.0, 1.0];
        let t = [-7.0, 1.0]; // same after projecting out x
        let s = m.score(&h, &r, &t);
        assert!((s - (-0.5)).abs() < 1e-6, "score {s}");
    }

    #[test]
    fn gradcheck() {
        let m = TransH::new(4);
        let h = [0.3, -0.4, 0.5, 0.1];
        let r = [0.2, 0.2, -0.3, 0.4, 0.5, -0.1, 0.2, 0.3];
        let t = [-0.1, 0.6, 0.2, -0.5];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
