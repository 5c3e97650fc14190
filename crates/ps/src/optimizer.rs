//! Server-side optimizers.
//!
//! Gradients pushed to the PS are applied there (Algorithm 4, `push`):
//! AdaGrad keeps a per-coordinate sum of squared gradients alongside every
//! parameter row and rescales updates by its square root — the paper's
//! optimizer of choice ("it can get embeddings of greater quality than
//! SGD", §VI-A, at the cost of the extra state memory).

use hetkg_embed::math::dot;
use serde::{Deserialize, Serialize};

/// A gradient's energy `‖g‖² = Σⱼ gⱼ²`. A worker that writes a row back adds
/// this up per gradient — for every gradient of a cached row, so it is the
/// lane-parallel [`dot`] and not a serial fold — and the shard divides by it
/// ([`Optimizer::update_coalesced`]): both sides compute it here, in one
/// summation order.
pub fn energy(grad: &[f32]) -> f32 {
    dot(grad, grad)
}

/// A stateless-object, per-row optimizer: applies one gradient row to one
/// parameter row, given that row's optimizer state.
pub trait Optimizer: std::fmt::Debug + Send + Sync {
    /// Floats of state kept per parameter coordinate (0 for SGD, 1 for
    /// AdaGrad).
    fn state_width(&self) -> usize;

    /// Apply `grad` to `param` in place, updating `state` (length
    /// `param.len() × state_width`).
    fn update(&self, param: &mut [f32], state: &mut [f32], grad: &[f32]);

    /// Apply `sum = Σᵢ gᵢ`, several gradients of one row written back at
    /// once, with their `energy = Σᵢ ‖gᵢ‖²` — what is left of the single
    /// gradients once they are summed. The default ignores the energy and
    /// is [`update`](Self::update), which is exact for an optimizer that is
    /// linear in the gradient.
    fn update_coalesced(&self, param: &mut [f32], state: &mut [f32], sum: &[f32], energy: f32) {
        let _ = energy;
        self.update(param, state, sum);
    }

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Plain stochastic gradient descent: `θ ← θ − η g`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
}

impl Optimizer for Sgd {
    fn state_width(&self) -> usize {
        0
    }

    fn update(&self, param: &mut [f32], _state: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        for i in 0..param.len() {
            param[i] -= self.lr * grad[i];
        }
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// AdaGrad (Duchi et al., 2011): `s ← s + g²; θ ← θ − η g / (√s + ε)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaGrad {
    /// Learning rate η.
    pub lr: f32,
    /// Numerical-stability floor ε.
    pub eps: f32,
}

impl AdaGrad {
    /// AdaGrad with the conventional ε = 1e-10 (DGL-KE's default).
    pub fn new(lr: f32) -> Self {
        Self { lr, eps: 1e-10 }
    }
}

impl Optimizer for AdaGrad {
    fn state_width(&self) -> usize {
        1
    }

    fn update(&self, param: &mut [f32], state: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        debug_assert_eq!(param.len(), state.len());
        for i in 0..param.len() {
            let g = grad[i];
            state[i] += g * g;
            param[i] -= self.lr * g / (state[i].sqrt() + self.eps);
        }
    }

    /// Successive gradients of a hot row anti-correlate, so `(Σg)²`
    /// under-counts what the accumulator would have collected from them one
    /// by one, and every later step comes out too large. The state grows by
    /// `ρ·sumⱼ²` with `ρ = energy ÷ ‖sum‖²` instead: the same `energy` in
    /// total, spread over the coordinates as the sum's own squares are. One
    /// gradient sent with its own energy has `ρ` = 1 and steps exactly as
    /// [`update`](Optimizer::update) does.
    fn update_coalesced(&self, param: &mut [f32], state: &mut [f32], sum: &[f32], energy: f32) {
        debug_assert_eq!(param.len(), sum.len());
        debug_assert_eq!(param.len(), state.len());
        let rho = energy / self::energy(sum);
        // A sum that cancelled to nothing (or to denormals) has no squares
        // to spread the energy over.
        let rho = if rho.is_finite() { rho } else { 1.0 };
        for i in 0..param.len() {
            let g = sum[i];
            state[i] += rho * (g * g);
            param[i] -= self.lr * g / (state[i].sqrt() + self.eps);
        }
    }

    fn name(&self) -> &'static str {
        "adagrad"
    }
}

/// Serializable optimizer selector for training configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain SGD with learning rate.
    Sgd {
        /// Learning rate η.
        lr: f32,
    },
    /// AdaGrad with learning rate (ε fixed at 1e-10).
    AdaGrad {
        /// Learning rate η.
        lr: f32,
    },
}

impl OptimizerKind {
    /// Instantiate the optimizer.
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd { lr } => Box::new(Sgd { lr }),
            OptimizerKind::AdaGrad { lr } => Box::new(AdaGrad::new(lr)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let o = Sgd { lr: 0.1 };
        let mut p = [1.0f32, -1.0];
        o.update(&mut p, &mut [], &[1.0, -1.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
        assert!((p[1] + 0.9).abs() < 1e-6);
    }

    #[test]
    fn adagrad_first_step_is_unit_scaled() {
        // First update: s = g², so step = lr·g/|g| = lr·sign(g).
        let o = AdaGrad::new(0.1);
        let mut p = [0.0f32, 0.0];
        let mut s = [0.0f32, 0.0];
        o.update(&mut p, &mut s, &[4.0, -0.25]);
        assert!((p[0] + 0.1).abs() < 1e-4, "{p:?}");
        assert!((p[1] - 0.1).abs() < 1e-4, "{p:?}");
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        let o = AdaGrad::new(0.1);
        let mut p = [0.0f32];
        let mut s = [0.0f32];
        let mut prev = 0.0f32;
        let mut deltas = Vec::new();
        for _ in 0..5 {
            o.update(&mut p, &mut s, &[1.0]);
            deltas.push((p[0] - prev).abs());
            prev = p[0];
        }
        for w in deltas.windows(2) {
            assert!(w[1] < w[0], "steps should shrink: {deltas:?}");
        }
    }

    #[test]
    fn adagrad_accumulates_state() {
        let o = AdaGrad::new(0.1);
        let mut p = [0.0f32];
        let mut s = [0.0f32];
        o.update(&mut p, &mut s, &[2.0]);
        o.update(&mut p, &mut s, &[3.0]);
        assert!((s[0] - 13.0).abs() < 1e-5);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_gradient_with_its_own_energy_steps_exactly_like_update() {
        let g = [0.37f32, -1.25, 1e-4, 0.0, 3.5, -0.002, 7.0, 0.11];
        let optimizers: [&dyn Optimizer; 2] = [&Sgd { lr: 0.05 }, &AdaGrad::new(0.1)];
        for o in optimizers {
            let w = g.len() * o.state_width();
            let (mut p, mut s) = ([0.5f32; 8], vec![0.25f32; w]);
            let (mut q, mut t) = (p, s.clone());
            // Twice, so the second step starts from a state the first left.
            for _ in 0..2 {
                o.update(&mut p, &mut s, &g);
                o.update_coalesced(&mut q, &mut t, &g, energy(&g));
            }
            assert_eq!(bits(&p), bits(&q), "{}", o.name());
            assert_eq!(bits(&s), bits(&t), "{}", o.name());
        }
    }

    #[test]
    fn sgd_ignores_the_energy() {
        let o = Sgd { lr: 0.1 };
        let sum = [1.0f32, -2.0];
        let (mut p, mut q) = ([0.5f32; 2], [0.5f32; 2]);
        o.update(&mut p, &mut [], &sum);
        o.update_coalesced(&mut q, &mut [], &sum, 1e6);
        assert_eq!(bits(&p), bits(&q));
    }

    #[test]
    fn adagrad_state_grows_by_the_energy_not_by_the_square_of_the_sum() {
        let o = AdaGrad::new(0.1);
        // Two opposite-sign gradients: the regression the energy exists for.
        let (a, b) = ([1.0f32, -0.5, 0.25, 2.0], [-0.8f32, 0.75, -0.5, -1.0]);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let e = energy(&a) + energy(&b);
        let (mut p, mut s) = ([0.0f32; 4], [0.5f32; 4]);
        o.update_coalesced(&mut p, &mut s, &sum, e);
        let grown: f32 = s.iter().map(|v| v - 0.5).sum();
        assert!((grown - e).abs() < 1e-4 * e, "grew {grown}, energy {e}");
        assert!(
            grown > 2.0 * energy(&sum),
            "grew {grown}, (Σg)² is only {}",
            energy(&sum)
        );
        // One by one, the accumulator collects the same total.
        let (mut q, mut t) = ([0.0f32; 4], [0.5f32; 4]);
        o.update(&mut q, &mut t, &a);
        o.update(&mut q, &mut t, &b);
        let one_by_one: f32 = t.iter().map(|v| v - 0.5).sum();
        assert!((one_by_one - grown).abs() < 1e-4 * e);
        // And the coalesced step is the smaller for it.
        let (mut r, mut u) = ([0.0f32; 4], [0.5f32; 4]);
        o.update(&mut r, &mut u, &sum);
        for i in 0..4 {
            assert!(p[i].abs() < r[i].abs(), "coordinate {i}: {p:?} vs {r:?}");
        }
    }

    #[test]
    fn a_sum_that_cancelled_to_zero_does_not_divide_by_zero() {
        let o = AdaGrad::new(0.1);
        for sum in [[0.0f32; 3], [1e-30f32, 0.0, -1e-30]] {
            let (mut p, mut s) = ([0.5f32; 3], [1.0f32; 3]);
            o.update_coalesced(&mut p, &mut s, &sum, 8.0);
            assert!(p.iter().chain(&s).all(|v| v.is_finite()), "{p:?} {s:?}");
            assert!(p.iter().all(|v| (v - 0.5).abs() < 1e-20), "{p:?}");
        }
    }

    #[test]
    fn kind_builds_expected_optimizer() {
        assert_eq!(OptimizerKind::Sgd { lr: 0.1 }.build().name(), "sgd");
        assert_eq!(OptimizerKind::AdaGrad { lr: 0.1 }.build().name(), "adagrad");
        assert_eq!(OptimizerKind::AdaGrad { lr: 0.1 }.build().state_width(), 1);
    }

    #[test]
    fn zero_gradient_is_a_noop() {
        let o = AdaGrad::new(0.1);
        let mut p = [0.5f32];
        let mut s = [1.0f32];
        o.update(&mut p, &mut s, &[0.0]);
        assert_eq!(p[0], 0.5);
        assert_eq!(s[0], 1.0);
    }
}
