//! TransD (Ji et al., 2015): projection *vectors* instead of matrices.
//!
//! Entities and relations each carry an embedding and a projection vector
//! (both rows are `2d` wide: `[e | e_p]`, `[r | r_p]`). The dynamic mapping
//! matrix `M = r_p e_pᵀ + I` is never materialized:
//!
//! `h⊥ = h + (h_pᵀ h) r_p`, `t⊥ = t + (t_pᵀ t) r_p`,
//! `score = −‖h⊥ + r − t⊥‖₂`.
//!
//! This recovers TransR's expressiveness at TransE-like cost — the paper's
//! related-work section highlights exactly this trade-off.

use super::KgeModel;
use crate::math::{dot, norm2};

/// The TransD score function.
#[derive(Debug, Clone)]
pub struct TransD {
    dim: usize,
}

impl TransD {
    /// TransD over base dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for TransD {
    fn name(&self) -> &'static str {
        "TransD"
    }

    fn base_dim(&self) -> usize {
        self.dim
    }

    fn entity_dim(&self) -> usize {
        2 * self.dim
    }

    fn relation_dim(&self) -> usize {
        2 * self.dim
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        self.score_fwd(h, r, t, &mut Vec::new())
    }

    /// Leaves `[u (d), ‖u‖, hp·hv, tp·tv]` in `fwd`.
    fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
        let d = self.dim;
        let (hv, hp) = h.split_at(d);
        let (tv, tp) = t.split_at(d);
        let (rv, rp) = r.split_at(d);
        let hph = dot(hp, hv);
        let tpt = dot(tp, tv);
        fwd.resize(d + 3, 0.0);
        let (u, tail) = fwd.split_at_mut(d);
        for i in 0..d {
            let hproj = hv[i] + hph * rp[i];
            let tproj = tv[i] + tpt * rp[i];
            u[i] = hproj + rv[i] - tproj;
        }
        let n = norm2(u);
        tail.copy_from_slice(&[n, hph, tpt]);
        -n
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
        let (hv, hp) = h.split_at(d);
        let (tv, tp) = t.split_at(d);
        let rp = &r[d..];
        let (u, n, hph, tpt) = (&fwd[..d], fwd[d], fwd[d + 1], fwd[d + 2]);
        if n == 0.0 {
            return;
        }
        let coef = -dscore / n;
        // rpᵀ g, needed by the chain rule through the scalar dot products.
        let rpg: f32 = (0..d).map(|i| rp[i] * coef * u[i]).sum();
        let (ghv, ghp) = gh.split_at_mut(d);
        let (gtv, gtp) = gt.split_at_mut(d);
        let (grv, grp) = gr.split_at_mut(d);
        for i in 0..d {
            let g = coef * u[i];
            // ∂u/∂hv = I + rp hpᵀ ⇒ ghv = g + hp (rpᵀg)
            ghv[i] += g + hp[i] * rpg;
            // ∂u/∂hp = rp hvᵀ ⇒ ghp = hv (rpᵀg)
            ghp[i] += hv[i] * rpg;
            gtv[i] -= g + tp[i] * rpg;
            gtp[i] -= tv[i] * rpg;
            grv[i] += g;
            // ∂u/∂rp = (hph − tpt) I ⇒ grp = (hph − tpt) g
            grp[i] += (hph - tpt) * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model_grads;

    #[test]
    fn both_rows_are_twice_as_wide() {
        let m = TransD::new(6);
        assert_eq!(m.entity_dim(), 12);
        assert_eq!(m.relation_dim(), 12);
    }

    #[test]
    fn zero_projections_reduce_to_transe() {
        let d = 3;
        let m = TransD::new(d);
        let hv = [0.2, -0.1, 0.4];
        let rv = [0.3, 0.3, 0.3];
        let tv = [0.6, 0.1, 0.9];
        let pad = [0.0f32; 3];
        let h: Vec<f32> = hv.iter().chain(&pad).copied().collect();
        let r: Vec<f32> = rv.iter().chain(&pad).copied().collect();
        let t: Vec<f32> = tv.iter().chain(&pad).copied().collect();
        let te = super::super::TransE::new(d, super::super::Norm::L2);
        assert!((m.score(&h, &r, &t) - te.score(&hv, &rv, &tv)).abs() < 1e-6);
    }

    #[test]
    fn gradcheck() {
        let m = TransD::new(4);
        let h = [0.3, -0.4, 0.5, 0.1, 0.2, -0.2, 0.1, 0.4];
        let r = [0.2, 0.2, -0.3, 0.4, -0.1, 0.3, 0.2, -0.4];
        let t = [-0.1, 0.6, 0.2, -0.5, 0.3, 0.1, -0.2, 0.2];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
