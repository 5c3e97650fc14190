//! ComplEx (Trouillon et al., 2016): complex-valued diagonal bilinear.
//!
//! Rows are `2d` wide, `[real | imag]`. With `h = a+bi`, `r = c+di`,
//! `t = e+fi` per coordinate:
//!
//! `score = Re(Σ_k h_k r_k conj(t_k)) = Σ_k e(ac − bd) + f(ad + bc)`.
//!
//! Extends DistMult to asymmetric relations — the property the paper's
//! related-work section credits it with.

use super::KgeModel;

/// The ComplEx score function.
#[derive(Debug, Clone)]
pub struct ComplEx {
    dim: usize,
}

impl ComplEx {
    /// ComplEx over base dimension `dim` (rows are `2*dim` floats).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }
}

impl KgeModel for ComplEx {
    fn name(&self) -> &'static str {
        "ComplEx"
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
        let d = self.dim;
        let (a, b) = h.split_at(d); // re, im
        let (c, dd) = r.split_at(d);
        let (e, f) = t.split_at(d);
        let mut acc = 0.0f32;
        for k in 0..d {
            acc += e[k] * (a[k] * c[k] - b[k] * dd[k]) + f[k] * (a[k] * dd[k] + b[k] * c[k]);
        }
        acc
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
        let d = self.dim;
        let (a, b) = h.split_at(d);
        let (c, dd) = r.split_at(d);
        let (e, f) = t.split_at(d);
        let (ga, gb) = gh.split_at_mut(d);
        let (gc, gd) = gr.split_at_mut(d);
        let (ge, gf) = gt.split_at_mut(d);
        for k in 0..d {
            ga[k] += dscore * (c[k] * e[k] + dd[k] * f[k]);
            gb[k] += dscore * (-dd[k] * e[k] + c[k] * f[k]);
            gc[k] += dscore * (a[k] * e[k] + b[k] * f[k]);
            gd[k] += dscore * (-b[k] * e[k] + a[k] * f[k]);
            ge[k] += dscore * (a[k] * c[k] - b[k] * dd[k]);
            gf[k] += dscore * (a[k] * dd[k] + b[k] * c[k]);
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
    fn real_embeddings_reduce_to_distmult() {
        let d = 3;
        let m = ComplEx::new(d);
        let hv = [0.2, -0.1, 0.4];
        let rv = [0.3, 0.3, 0.3];
        let tv = [0.6, 0.1, 0.9];
        let pad = [0.0f32; 3];
        let h: Vec<f32> = hv.iter().chain(&pad).copied().collect();
        let r: Vec<f32> = rv.iter().chain(&pad).copied().collect();
        let t: Vec<f32> = tv.iter().chain(&pad).copied().collect();
        let dm = super::super::DistMult::new(d);
        assert!((m.score(&h, &r, &t) - dm.score(&hv, &rv, &tv)).abs() < 1e-6);
    }

    #[test]
    fn models_asymmetric_relations() {
        // With non-zero imaginary parts, score(h,r,t) != score(t,r,h).
        let m = ComplEx::new(2);
        let h = [0.5, 0.2, 0.3, -0.4];
        let r = [0.1, 0.7, 0.6, 0.2];
        let t = [-0.3, 0.9, 0.2, 0.5];
        let fwd = m.score(&h, &r, &t);
        let bwd = m.score(&t, &r, &h);
        assert!(
            (fwd - bwd).abs() > 1e-4,
            "expected asymmetry, got {fwd} vs {bwd}"
        );
    }

    #[test]
    fn gradcheck() {
        let m = ComplEx::new(3);
        let h = [0.3, -0.4, 0.5, 0.1, 0.2, -0.2];
        let r = [0.2, 0.2, -0.3, 0.4, -0.1, 0.3];
        let t = [-0.1, 0.6, 0.2, -0.5, 0.3, 0.1];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
