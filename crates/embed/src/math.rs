//! Small dense-vector kernels shared by the score functions.
//!
//! Everything operates on `&[f32]` slices of equal length; callers guarantee
//! the lengths (debug-asserted here). These are the hot loops of training —
//! keep them branch-free and auto-vectorizable.
//!
//! `dot` and `axpy` process eight lanes per step over `chunks_exact(8)` so
//! the compiler can keep the whole accumulator state in one vector register
//! without having to prove a reassociation is safe. For `axpy` the result is
//! bit-identical to the scalar loop (each element is independent); for `dot`
//! the lane-split changes the summation *order*, so results may differ from
//! the scalar reference by a few ulps — the property tests below pin the
//! deviation.

/// Accumulator lanes in the chunked kernels (one AVX2 register of f32s).
const LANES: usize = 8;

/// Dot product `x · y`.
///
/// Accumulates into [`LANES`] independent partial sums (one per lane
/// position) and combines them with a pairwise reduction; the tail shorter
/// than a chunk is folded in scalarly at the end.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let (tx, ty) = (xc.remainder(), yc.remainder());
    let mut lanes = [0.0f32; LANES];
    for (xs, ys) in xc.zip(yc) {
        for (l, acc) in lanes.iter_mut().enumerate() {
            *acc += xs[l] * ys[l];
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in 0..tx.len() {
        acc += tx[i] * ty[i];
    }
    acc
}

/// `y += a * x`.
///
/// Chunked eight elements at a time; bit-identical to the scalar loop.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut yc = y.chunks_exact_mut(LANES);
    let xc = x.chunks_exact(LANES);
    let tx = xc.remainder();
    for (ys, xs) in (&mut yc).zip(xc) {
        for l in 0..LANES {
            ys[l] += a * xs[l];
        }
    }
    for (yv, &xv) in yc.into_remainder().iter_mut().zip(tx) {
        *yv += a * xv;
    }
}

/// L2 norm of the residual `q − t` without materializing it:
/// `sqrt(Σ (q_i − t_i)²)`.
///
/// Accumulates with exactly the lane structure of [`dot`] — each element is
/// subtracted then squared into the same lane position the two-pass
/// subtract-into-scratch-then-[`norm2`] path would have used, with the same
/// pairwise lane reduction and scalar tail — so the result is bit-identical
/// to that path while skipping the residual's store/reload round trip.
#[inline]
pub fn residual_norm2(q: &[f32], t: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), t.len());
    let qc = q.chunks_exact(LANES);
    let tc = t.chunks_exact(LANES);
    let (tq, tt) = (qc.remainder(), tc.remainder());
    let mut lanes = [0.0f32; LANES];
    for (qs, ts) in qc.zip(tc) {
        for (l, acc) in lanes.iter_mut().enumerate() {
            let d = qs[l] - ts[l];
            *acc += d * d;
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in 0..tq.len() {
        let d = tq[i] - tt[i];
        acc += d * d;
    }
    acc.sqrt()
}

/// L1 norm of the residual `q − t`: `Σ |q_i − t_i|`, summed sequentially in
/// index order — bit-identical to subtract-into-scratch then [`norm1`].
#[inline]
pub fn residual_norm1(q: &[f32], t: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), t.len());
    q.iter().zip(t).map(|(a, b)| (a - b).abs()).sum()
}

/// L1 norm `Σ |x_i|`.
#[inline]
pub fn norm1(x: &[f32]) -> f32 {
    x.iter().map(|v| v.abs()).sum()
}

/// L2 norm `sqrt(Σ x_i²)`.
#[inline]
pub fn norm2(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Scale a vector in place: `x *= a`.
#[inline]
pub fn scale(x: &mut [f32], a: f32) {
    for v in x {
        *v *= a;
    }
}

/// Elementwise difference norm helper: returns `h + r - t` into `out`.
#[inline]
pub fn translation_residual(h: &[f32], r: &[f32], t: &[f32], out: &mut [f32]) {
    debug_assert!(h.len() == r.len() && r.len() == t.len() && t.len() == out.len());
    for i in 0..h.len() {
        out[i] = h[i] + r[i] - t[i];
    }
}

/// Dense matrix-vector product `out = M x` with `M` row-major `rows×cols`.
#[inline]
pub fn matvec(m: &[f32], x: &[f32], out: &mut [f32]) {
    let rows = out.len();
    let cols = x.len();
    debug_assert_eq!(m.len(), rows * cols);
    for (i, o) in out.iter_mut().enumerate() {
        *o = dot(&m[i * cols..(i + 1) * cols], x);
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically-stable `log(1 + exp(x))` (softplus).
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm1(&[-3.0, 4.0]), 7.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, [3.0, -1.0]);
    }

    #[test]
    fn residual_matches_definition() {
        let mut out = [0.0; 3];
        translation_residual(
            &[1.0, 2.0, 3.0],
            &[0.5, 0.5, 0.5],
            &[1.0, 1.0, 1.0],
            &mut out,
        );
        assert_eq!(out, [0.5, 1.5, 2.5]);
    }

    #[test]
    fn matvec_and_transpose_agree_with_manual() {
        // M = [[1,2],[3,4],[5,6]] (3x2)
        let m = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x2 = [1.0, 1.0];
        let mut out3 = [0.0; 3];
        matvec(&m, &x2, &mut out3);
        assert_eq!(out3, [3.0, 7.0, 11.0]);
        // Mᵀ, row-major (2x3).
        let mt = [1.0, 3.0, 5.0, 2.0, 4.0, 6.0];
        let x3 = [1.0, 0.0, 1.0];
        let mut out2 = [0.0; 2];
        matvec(&mt, &x3, &mut out2);
        assert_eq!(out2, [6.0, 8.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn softplus_is_stable_and_positive() {
        assert!(softplus(-100.0) >= 0.0);
        assert!((softplus(100.0) - 100.0).abs() < 1e-3);
        assert!((softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    /// Tiny deterministic xorshift generator for the property tests (no
    /// external RNG dependency).
    struct XorShift(u64);

    impl XorShift {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// Uniform in [0, 1).
        fn next_f32(&mut self) -> f32 {
            (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
        }

        fn vec_in(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
            (0..n).map(|_| lo + (hi - lo) * self.next_f32()).collect()
        }
    }

    /// Plain left-to-right scalar accumulation — the reference the chunked
    /// kernel is pinned against.
    fn dot_scalar(x: &[f32], y: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for i in 0..x.len() {
            acc += x[i] * y[i];
        }
        acc
    }

    /// Distance in units-in-the-last-place between two finite floats
    /// (order-preserving integer mapping of the IEEE-754 bit patterns).
    fn ulps(a: f32, b: f32) -> i64 {
        fn key(v: f32) -> i64 {
            let i = v.to_bits() as i32;
            (if i < 0 { i32::MIN.wrapping_sub(i) } else { i }) as i64
        }
        (key(a) - key(b)).abs()
    }

    #[test]
    fn chunked_dot_stays_within_the_summation_error_bound() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for trial in 0..200 {
            let n = (trial * 7) % 68; // covers 0, tails, and multi-chunk
            let x = rng.vec_in(n, -1.0, 1.0);
            let y = rng.vec_in(n, -1.0, 1.0);
            let got = dot(&x, &y);
            let want = dot_scalar(&x, &y);
            // Both orders obey |err| <= n * eps * sum(|x_i y_i|); the
            // difference between them obeys twice that.
            let mag: f32 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
            let bound = 2.0 * n as f32 * f32::EPSILON * mag + f32::MIN_POSITIVE;
            assert!(
                (got - want).abs() <= bound,
                "n={n}: chunked {got} vs scalar {want} differ by {} (bound {bound})",
                (got - want).abs()
            );
        }
    }

    #[test]
    fn chunked_dot_is_ulp_close_on_cancellation_free_inputs() {
        // With all-positive terms there is no catastrophic cancellation, so
        // an ulp bound on the result itself is meaningful and tight.
        let mut rng = XorShift(0x1234_5678_9abc_def1);
        for &n in &[1usize, 7, 8, 9, 16, 63, 64, 65, 256] {
            let x = rng.vec_in(n, 0.5, 1.5);
            let y = rng.vec_in(n, 0.5, 1.5);
            let got = dot(&x, &y);
            let want = dot_scalar(&x, &y);
            let bound = 8 + n as i64;
            assert!(
                ulps(got, want) <= bound,
                "n={n}: chunked {got} vs scalar {want} differ by {} ulps (bound {bound})",
                ulps(got, want)
            );
        }
    }

    #[test]
    fn chunked_axpy_is_bit_identical_to_scalar() {
        let mut rng = XorShift(0xfeed_beef_cafe_f00d);
        for &n in &[0usize, 1, 7, 8, 9, 31, 32, 33, 100] {
            let a = -3.0 + 6.0 * rng.next_f32();
            let x = rng.vec_in(n, -2.0, 2.0);
            let mut got = rng.vec_in(n, -2.0, 2.0);
            let mut want = got.clone();
            axpy(a, &x, &mut got);
            for i in 0..n {
                want[i] += a * x[i];
            }
            for i in 0..n {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "n={n} i={i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }
}
