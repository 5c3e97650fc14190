//! Finite-difference verification of analytic gradients.
//!
//! Every [`KgeModel`] implements its backward pass by hand; this module is
//! how we trust them. [`check_model_grads`] compares each analytic partial
//! derivative against a central difference `(f(x+ε) − f(x−ε)) / 2ε` and
//! fails on the first mismatch. It is exported (not test-only) so downstream
//! crates can property-test their own model compositions.

use crate::models::KgeModel;

/// Default perturbation size. f32 scores lose precision below this.
pub const DEFAULT_EPS: f32 = 1e-2;
/// Absolute part of the default tolerance:
/// |analytic − numeric| ≤ ATOL + RTOL·|numeric|.
pub const DEFAULT_ATOL: f32 = 2e-2;
/// Relative part of the default tolerance.
pub const DEFAULT_RTOL: f32 = 5e-2;

/// Which argument of `score(h, r, t)` a check is perturbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Head,
    Relation,
    Tail,
}

/// Compare analytic and numeric gradients of `model.score` at `(h, r, t)`
/// using the default tolerances.
///
/// Returns `Err` with a human-readable description of the first coordinate
/// that disagrees.
pub fn check_model_grads(
    model: &dyn KgeModel,
    h: &[f32],
    r: &[f32],
    t: &[f32],
) -> Result<(), String> {
    check_model_grads_with(model, h, r, t, DEFAULT_EPS, DEFAULT_ATOL, DEFAULT_RTOL)
}

/// [`check_model_grads`] with explicit perturbation and tolerances.
pub fn check_model_grads_with(
    model: &dyn KgeModel,
    h: &[f32],
    r: &[f32],
    t: &[f32],
    eps: f32,
    atol: f32,
    rtol: f32,
) -> Result<(), String> {
    assert_eq!(h.len(), model.entity_dim(), "head slice width");
    assert_eq!(r.len(), model.relation_dim(), "relation slice width");
    assert_eq!(t.len(), model.entity_dim(), "tail slice width");

    let mut gh = vec![0.0f32; h.len()];
    let mut gr = vec![0.0f32; r.len()];
    let mut gt = vec![0.0f32; t.len()];
    model.grad(h, r, t, 1.0, &mut gh, &mut gr, &mut gt);

    let mut hb = h.to_vec();
    let mut rb = r.to_vec();
    let mut tb = t.to_vec();

    for slot in [Slot::Head, Slot::Relation, Slot::Tail] {
        let (len, label, analytic) = match slot {
            Slot::Head => (hb.len(), "h", gh.as_slice()),
            Slot::Relation => (rb.len(), "r", gr.as_slice()),
            Slot::Tail => (tb.len(), "t", gt.as_slice()),
        };
        // Borrow-checker-friendly: own the analytic grads for this slot.
        let analytic = analytic.to_vec();
        for i in 0..len {
            let orig = match slot {
                Slot::Head => hb[i],
                Slot::Relation => rb[i],
                Slot::Tail => tb[i],
            };
            set(&mut hb, &mut rb, &mut tb, slot, i, orig + eps);
            let plus = model.score(&hb, &rb, &tb);
            set(&mut hb, &mut rb, &mut tb, slot, i, orig - eps);
            let minus = model.score(&hb, &rb, &tb);
            set(&mut hb, &mut rb, &mut tb, slot, i, orig);

            let numeric = (plus - minus) / (2.0 * eps);
            let diff = (analytic[i] - numeric).abs();
            let tol = atol + rtol * numeric.abs();
            if !diff.is_finite() || diff > tol {
                return Err(format!(
                    "{model} ∂score/∂{label}[{i}]: analytic {a} vs numeric {numeric} \
                     (diff {diff} > tol {tol})",
                    model = model.name(),
                    a = analytic[i],
                ));
            }
        }
    }
    Ok(())
}

#[inline]
fn set(h: &mut [f32], r: &mut [f32], t: &mut [f32], slot: Slot, i: usize, v: f32) {
    match slot {
        Slot::Head => h[i] = v,
        Slot::Relation => r[i] = v,
        Slot::Tail => t[i] = v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{DistMult, KgeModel};

    /// A deliberately wrong model: score is DistMult but the reported
    /// gradient for `h` is doubled.
    struct WrongGrad(DistMult);

    impl KgeModel for WrongGrad {
        fn name(&self) -> &'static str {
            "WrongGrad"
        }
        fn base_dim(&self) -> usize {
            self.0.base_dim()
        }
        fn score_fwd(&self, h: &[f32], r: &[f32], t: &[f32], fwd: &mut Vec<f32>) -> f32 {
            self.0.score_fwd(h, r, t, fwd)
        }
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
            self.0.grad_bwd(h, r, t, 2.0 * dscore, fwd, gh, gr, gt);
        }
    }

    #[test]
    fn detects_wrong_gradients() {
        let m = WrongGrad(DistMult::new(4));
        let h = [0.5, -0.2, 0.3, 0.9];
        let r = [0.4, 0.4, 0.4, 0.4];
        let t = [0.1, 0.8, -0.5, 0.2];
        let err = check_model_grads(&m, &h, &r, &t).unwrap_err();
        assert!(err.contains("WrongGrad"), "{err}");
    }

    #[test]
    fn accepts_correct_gradients() {
        let m = DistMult::new(4);
        let h = [0.5, -0.2, 0.3, 0.9];
        let r = [0.4, 0.4, 0.4, 0.4];
        let t = [0.1, 0.8, -0.5, 0.2];
        check_model_grads(&m, &h, &r, &t).unwrap();
    }
}
