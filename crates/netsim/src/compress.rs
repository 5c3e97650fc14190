//! Gradient-compression codecs for push-path wire frames.
//!
//! HET-KG's whole argument is metered bytes, yet gradients cross the
//! simulated wire as dense f32 rows. This module supplies the *pure* row
//! codecs — int8/int4 row quantization with a per-row scale, and top-k
//! sparsification over int8-quantized survivors — that
//! [`WireFrame`](crate::WireFrame) carries as an encoded payload. The
//! client-side error-feedback state (residuals) lives in the PS crate; this
//! layer only defines the byte format and the total (never-panicking)
//! decoder the receiver runs on whatever survived transit.
//!
//! # Byte layout
//!
//! Every encoded row's length is a function of `(codec, row width)` alone —
//! nothing in the bytes themselves is trusted for framing, so a transit
//! bit-flip can corrupt *values* but never desynchronize row boundaries:
//!
//! * `Int8`  — 4 B scale (f32 LE) + `width` bytes (i8 quantized values);
//! * `Int4`  — 4 B scale + `ceil(width / 2)` bytes (two signed nibbles per
//!   byte, low nibble first);
//! * `TopKQuarter` / `TopKEighth` — 4 B scale + `k × 3` bytes of
//!   `(u16 LE index, i8 value)` entries, where `k = max(1, width / 4)` or
//!   `max(1, width / 8)`; unsent coordinates decode to zero.
//!
//! Decoding is total: a non-finite scale reads as `0.0`, out-of-range
//! top-k indices are ignored, and every decoded value is finite whenever
//! the encoded scale is — corrupted frames that slip past a disabled
//! checksum still decode to *something* bounded.

use serde::{Deserialize, Serialize};

/// User-facing compression mode for the push path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CompressionMode {
    /// No compression: dense f32 frames, bit-identical to the pre-codec
    /// wire format.
    #[default]
    Off,
    /// Int8 row quantization with a per-row scale.
    Int8,
    /// Int4 row quantization (two values per byte).
    Int4,
    /// Top-k sparsification (k = width/4) over int8-quantized values.
    TopK,
    /// Ladder driven by the timeline's comm/compute occupancy: starts at
    /// int8 and tightens through top-k levels only while the comm lane is
    /// the critical one.
    Adaptive,
}

impl CompressionMode {
    /// Parse a CLI value. Accepts `off|int8|int4|topk|adaptive`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "int8" => Some(Self::Int8),
            "int4" => Some(Self::Int4),
            "topk" => Some(Self::TopK),
            "adaptive" => Some(Self::Adaptive),
            _ => None,
        }
    }

    /// The CLI spelling of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Int8 => "int8",
            Self::Int4 => "int4",
            Self::TopK => "topk",
            Self::Adaptive => "adaptive",
        }
    }

    /// Whether frames under this mode may lose information (anything but
    /// `Off`): lossy pushes make a run non-exact for the divergence oracle.
    pub fn is_lossy(self) -> bool {
        self != Self::Off
    }
}

impl std::fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Concrete per-frame codec. `Dense` frames are the legacy format (payload
/// travels as f32); every other codec travels as encoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Codec {
    /// Uncompressed f32 payload (the legacy wire format).
    Dense,
    /// Per-row-scale int8 quantization.
    Int8,
    /// Per-row-scale int4 quantization.
    Int4,
    /// Keep the width/4 largest-magnitude coordinates, int8-quantized.
    TopKQuarter,
    /// Keep the width/8 largest-magnitude coordinates, int8-quantized.
    TopKEighth,
}

impl Codec {
    /// Wire tag mixed into the frame checksum (the codec byte is part of
    /// the integrity envelope: a frame must not decode under the wrong
    /// codec).
    pub fn tag(self) -> u8 {
        match self {
            Codec::Dense => 0,
            Codec::Int8 => 1,
            Codec::Int4 => 2,
            Codec::TopKQuarter => 3,
            Codec::TopKEighth => 4,
        }
    }

    /// Inverse of [`tag`](Codec::tag): resolve a wire tag back to its
    /// codec. `None` for tags no codec owns — a stream decoder must treat
    /// those as corruption, never guess.
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Dense),
            1 => Some(Codec::Int8),
            2 => Some(Codec::Int4),
            3 => Some(Codec::TopKQuarter),
            4 => Some(Codec::TopKEighth),
            _ => None,
        }
    }

    /// How many top-k entries a row of `width` keeps (0 for non-sparse
    /// codecs).
    fn keep(self, width: usize) -> usize {
        match self {
            Codec::TopKQuarter => (width / 4).max(1),
            Codec::TopKEighth => (width / 8).max(1),
            _ => 0,
        }
    }
}

/// Bytes one encoded row of `width` occupies under `codec`. Pure function
/// of the pair — the framing contract that keeps corrupted streams aligned.
pub fn encoded_len(codec: Codec, width: usize) -> usize {
    match codec {
        Codec::Dense => width * 4,
        Codec::Int8 => 4 + width,
        Codec::Int4 => 4 + width.div_ceil(2),
        Codec::TopKQuarter | Codec::TopKEighth => 4 + codec.keep(width) * 3,
    }
}

/// Quantize one value against `inv_scale` (1/scale): `v × inv_scale`
/// rounded half away from zero, clamped to `limit`. A non-finite `v`
/// reads as 0, and so does a NaN product (0 × an infinite `inv_scale`).
///
/// `f32::round` is a libm call on baseline x86-64, and a saturating
/// `as i32` is a scalar conversion per lane, so neither is used. The
/// product is clamped first, which moves no result since `limit` is an
/// integer; adding [`ROUNDER`] rounds it to the nearest integer, ties to
/// even, which the sum's float bits then hold; and a tie that went to even
/// toward zero is moved away from it. Every step is exact and vectorizes.
#[inline]
fn quantize(v: f32, inv_scale: f32, limit: i32) -> i8 {
    let v = if v.is_finite() { v } else { 0.0 };
    let x = v * inv_scale;
    let bound = limit as f32;
    let x = if x.is_nan() {
        0.0
    } else {
        x.clamp(-bound, bound)
    };
    let shifted = x + ROUNDER;
    let even = shifted.to_bits() as i32 - ROUNDER.to_bits() as i32;
    let below = x - (shifted - ROUNDER);
    let away = i32::from(below == 0.5 && x > 0.0) - i32::from(below == -0.5 && x < 0.0);
    (even + away) as i8
}

/// 1.5 × 2²³: added to an `x` with |x| < 2²², the sum lies in [2²³, 2²⁴),
/// where floats are the integers, so it is `x` rounded to the nearest
/// integer (ties to even), plus this constant, in the low mantissa bits.
const ROUNDER: f32 = 12_582_912.0;

/// Largest finite magnitude in `row` (0 for empty or all-non-finite rows),
/// kept in eight independent lanes so the loop vectorizes. The result is
/// exact: a maximum of finite non-negative values does not depend on the
/// order it is taken in.
fn max_abs(row: &[f32]) -> f32 {
    const LANES: usize = 8;
    let finite_abs = |v: f32| {
        let a = v.abs();
        // NaN fails the comparison too.
        if a < f32::INFINITY {
            a
        } else {
            0.0
        }
    };
    let max = |m: f32, a: f32| if a > m { a } else { m };
    let mut lanes = [0.0f32; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = max(*m, finite_abs(v));
        }
    }
    let head = lanes.into_iter().fold(0.0, max);
    tail.iter().map(|&v| finite_abs(v)).fold(head, max)
}

/// Append `row`'s encoding under `codec` to `out`. `idx_scratch` is a
/// reusable index buffer for top-k selection (untouched otherwise), so a
/// steady-state caller allocates nothing. Appends exactly
/// [`encoded_len`]`(codec, row.len())` bytes. `Dense` is not encodable —
/// dense frames never take this path.
pub fn encode_row(codec: Codec, row: &[f32], out: &mut Vec<u8>, idx_scratch: &mut Vec<u32>) {
    encode_row_with(codec, row, out, idx_scratch, max_abs, quantize);
}

/// [`encode_row`] with the scale's `max_abs` and the per-value `quantize`
/// passed in, so that tests can run the byte layout over the reference
/// scalar pair.
fn encode_row_with(
    codec: Codec,
    row: &[f32],
    out: &mut Vec<u8>,
    idx_scratch: &mut Vec<u32>,
    max_abs: impl Fn(&[f32]) -> f32,
    quantize: impl Fn(f32, f32, i32) -> i8,
) {
    debug_assert!(codec != Codec::Dense, "dense rows are sealed, not encoded");
    debug_assert!(
        row.len() <= u16::MAX as usize,
        "row width exceeds u16 index"
    );
    let start = out.len();
    match codec {
        Codec::Dense => unreachable!(),
        Codec::Int8 => {
            let scale = max_abs(row) / 127.0;
            out.extend_from_slice(&scale.to_le_bytes());
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            out.extend(row.iter().map(|&v| quantize(v, inv, 127) as u8));
        }
        Codec::Int4 => {
            let scale = max_abs(row) / 7.0;
            out.extend_from_slice(&scale.to_le_bytes());
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            for pair in row.chunks(2) {
                let lo = (quantize(pair[0], inv, 7) as u8) & 0x0F;
                let hi = if pair.len() > 1 {
                    (quantize(pair[1], inv, 7) as u8) & 0x0F
                } else {
                    0
                };
                out.push(lo | (hi << 4));
            }
        }
        Codec::TopKQuarter | Codec::TopKEighth => {
            let k = codec.keep(row.len()).min(row.len());
            idx_scratch.clear();
            idx_scratch.extend(0..row.len() as u32);
            // Largest magnitude first, ties broken by lower index: a total
            // order, so the unstable selection is still deterministic.
            let mag = |i: u32| {
                let v = row[i as usize];
                if v.is_finite() {
                    v.abs()
                } else {
                    0.0
                }
            };
            let by_mag = |&a: &u32, &b: &u32| mag(b).partial_cmp(&mag(a)).unwrap().then(a.cmp(&b));
            if k < idx_scratch.len() {
                idx_scratch.select_nth_unstable_by(k - 1, by_mag);
                idx_scratch.truncate(k);
            }
            idx_scratch.sort_unstable();
            let kept_max = idx_scratch
                .iter()
                .map(|&i| {
                    let v = row[i as usize];
                    if v.is_finite() {
                        v.abs()
                    } else {
                        0.0
                    }
                })
                .fold(0.0, f32::max);
            let scale = kept_max / 127.0;
            out.extend_from_slice(&scale.to_le_bytes());
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            for &i in idx_scratch.iter() {
                out.extend_from_slice(&(i as u16).to_le_bytes());
                out.push(quantize(row[i as usize], inv, 127) as u8);
            }
            // Pad to exactly k entries when the row is narrower than k
            // (keep() floors at 1, so width-0 rows cannot reach here).
            for _ in idx_scratch.len()..codec.keep(row.len()) {
                out.extend_from_slice(&0u16.to_le_bytes());
                out.push(0);
            }
        }
    }
    debug_assert_eq!(out.len() - start, encoded_len(codec, row.len()));
}

/// Decode one row from `bytes` into `out` (whose length is the row width).
/// Total: any byte string of the right length decodes to finite values —
/// a non-finite scale reads as zero and out-of-range sparse indices are
/// dropped. Reads exactly [`encoded_len`]`(codec, out.len())` bytes.
pub fn decode_row(codec: Codec, bytes: &[u8], out: &mut [f32]) {
    debug_assert!(codec != Codec::Dense, "dense rows are never decoded");
    let need = encoded_len(codec, out.len());
    debug_assert!(bytes.len() >= need, "short encoded row");
    let bytes = &bytes[..need];
    let raw_scale = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    // Non-finite scales read as zero; finite ones are clamped so that even
    // a full-range quantized value (±127) cannot overflow to infinity —
    // decoding is total and finite for arbitrary bytes.
    let scale = if raw_scale.is_finite() {
        raw_scale.clamp(-f32::MAX / 128.0, f32::MAX / 128.0)
    } else {
        0.0
    };
    match codec {
        Codec::Dense => unreachable!(),
        Codec::Int8 => {
            for (o, &b) in out.iter_mut().zip(&bytes[4..]) {
                *o = (b as i8) as f32 * scale;
            }
        }
        Codec::Int4 => {
            for (j, o) in out.iter_mut().enumerate() {
                let b = bytes[4 + j / 2];
                let nib = if j % 2 == 0 { b & 0x0F } else { b >> 4 };
                // Sign-extend the 4-bit two's-complement value.
                let q = ((nib << 4) as i8) >> 4;
                *o = q as f32 * scale;
            }
        }
        Codec::TopKQuarter | Codec::TopKEighth => {
            out.fill(0.0);
            for entry in bytes[4..].chunks_exact(3) {
                let idx = u16::from_le_bytes([entry[0], entry[1]]) as usize;
                if idx < out.len() {
                    out[idx] = (entry[2] as i8) as f32 * scale;
                }
            }
        }
    }
}

crate::counters! {
    /// Client-side compression counters, merged across workers into the run
    /// report. Byte counters compare the dense-equivalent frame size against
    /// what actually crossed the wire (both including the 8-byte key ids).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct CompressionStats {
        /// Gradient rows pushed through the compressor (dense level included).
        pub rows: u64,
        /// Push frames sealed (one per touched shard per push).
        pub frames: u64,
        /// Bytes the same frames would have occupied dense.
        pub raw_bytes: u64,
        /// Bytes the frames actually occupied on the wire.
        pub wire_bytes: u64,
        /// Deferred pushes that folded a client-side residual into the backlog
        /// (error feedback rides the degraded path, not just the wire).
        pub residual_folds: u64,
        /// Adaptive-ladder tightenings (comm lane critical).
        pub level_ups: u64,
        /// Adaptive-ladder relaxations (comm lane slack).
        pub level_downs: u64,
    }
}

impl CompressionStats {
    /// Dense-equivalent over wire bytes (1.0 until anything is pushed).
    pub fn ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.wire_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar quantizer `quantize` replaced (one `f32::round` per
    /// value): the reference it is pinned to.
    fn reference_quantize(v: f32, inv_scale: f32, limit: i32) -> i8 {
        let v = if v.is_finite() { v } else { 0.0 };
        let q = (v * inv_scale).round() as i32;
        q.clamp(-limit, limit) as i8
    }

    /// The sequential fold `max_abs` replaced.
    fn reference_max_abs(row: &[f32]) -> f32 {
        row.iter()
            .map(|v| if v.is_finite() { v.abs() } else { 0.0 })
            .fold(0.0, f32::max)
    }

    const CODECS: [Codec; 4] = [
        Codec::Int8,
        Codec::Int4,
        Codec::TopKQuarter,
        Codec::TopKEighth,
    ];

    /// `row` encoded under `codec` by `encode_row` and by the reference
    /// scalar pair.
    fn both_encodings(codec: Codec, row: &[f32]) -> (Vec<u8>, Vec<u8>) {
        let (mut fast, mut reference, mut idx) = (Vec::new(), Vec::new(), Vec::new());
        encode_row(codec, row, &mut fast, &mut idx);
        encode_row_with(
            codec,
            row,
            &mut reference,
            &mut idx,
            reference_max_abs,
            reference_quantize,
        );
        (fast, reference)
    }

    /// The largest value a codec quantizes to: a row whose magnitude peaks
    /// at `limit × s` has scale `s`.
    fn limit(codec: Codec) -> f32 {
        if codec == Codec::Int4 {
            7.0
        } else {
            127.0
        }
    }

    #[test]
    fn encodings_equal_the_reference_on_ties_and_non_finite_values() {
        for codec in CODECS {
            let l = limit(codec);
            // Scale 1: every value below lands exactly on its quantized
            // value, a tie, or (±∞, NaN) is read as 0.
            let ties = [
                l,
                0.5,
                -0.5,
                1.5,
                -2.5,
                l - 0.5,
                0.5 - l,
                -0.0,
                0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                3.0,
                -l,
            ];
            // A subnormal scale whose reciprocal overflows to ∞: every
            // nonzero value saturates, every zero reads NaN → 0.
            let tiny = f32::from_bits(1 << 9); // 2^-140
            assert!((1.0 / tiny).is_infinite());
            let subnormal = [l * tiny, 3.0 * tiny, 0.0, -0.0, -tiny, f32::NAN];
            for row in [
                &ties[..],
                &subnormal[..],
                &[0.0; 9][..],
                &[-0.0; 3][..],
                &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY][..],
            ] {
                let (fast, reference) = both_encodings(codec, row);
                assert_eq!(fast, reference, "{codec:?} {row:?}");
            }
        }
        // The ties do round half away from zero.
        assert_eq!(
            [0.5f32, -0.5, 126.5, -126.5, 2.5].map(|v| quantize(v, 1.0, 127)),
            [1, -1, 127, -127, 3]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every quantizer input, finite or not: the same byte as the
        /// reference.
        #[test]
        fn quantize_equals_the_reference_on_every_input(
            v in any::<u32>(),
            inv in any::<u32>(),
            wide in any::<bool>(),
        ) {
            let (v, inv) = (f32::from_bits(v), f32::from_bits(inv));
            let l = if wide { 127 } else { 7 };
            prop_assert_eq!(quantize(v, inv, l), reference_quantize(v, inv, l));
        }

        /// Rows of arbitrary bit patterns, of uniform values and of exact
        /// ties at a power-of-two scale, at every codec: `encode_row`'s bytes
        /// are the reference's, scale included.
        #[test]
        fn encode_row_equals_the_reference_bit_for_bit(
            values in prop::collection::vec((0u8..3, any::<u32>(), -1.0f32..1.0, -127i32..127), 1..70),
            exp in -140i32..40,
        ) {
            for codec in CODECS {
                let l = limit(codec);
                // 2^exp, subnormal below 2^-126.
                let s = if exp >= -126 {
                    f32::from_bits(((exp + 127) as u32) << 23)
                } else {
                    f32::from_bits(1 << (exp + 149))
                };
                let mut row: Vec<f32> = values
                    .iter()
                    .map(|&(family, bits, unit, k)| match family {
                        0 => f32::from_bits(bits),
                        1 => unit * l * s,
                        // A tie or an integer multiple of the scale.
                        _ => (k.clamp(-(l as i32), l as i32) as f32 + 0.5 * (bits & 1) as f32) * s,
                    })
                    .collect();
                // Peak at l × s, so ties of the third family are ties.
                let peak = values[0].1 as usize % row.len();
                row[peak] = -l * s;
                let (fast, reference) = both_encodings(codec, &row);
                prop_assert_eq!(fast, reference, "{:?}", codec);
                prop_assert_eq!(max_abs(&row).to_bits(), reference_max_abs(&row).to_bits());
            }
        }
    }

    fn roundtrip(codec: Codec, row: &[f32]) -> Vec<f32> {
        let mut enc = Vec::new();
        let mut idx = Vec::new();
        encode_row(codec, row, &mut enc, &mut idx);
        assert_eq!(enc.len(), encoded_len(codec, row.len()));
        let mut out = vec![7.0f32; row.len()];
        decode_row(codec, &enc, &mut out);
        out
    }

    #[test]
    fn int8_roundtrip_error_is_within_half_a_step() {
        let row = [0.5f32, -1.25, 0.0, 3.0, -0.001, 2.999];
        let out = roundtrip(Codec::Int8, &row);
        let step = 3.0 / 127.0;
        for (a, b) in row.iter().zip(&out) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_roundtrip_error_is_within_half_a_step() {
        let row = [0.5f32, -1.25, 0.0, 3.0, -0.7]; // odd width exercises padding
        let out = roundtrip(Codec::Int4, &row);
        let step = 3.0 / 7.0;
        for (a, b) in row.iter().zip(&out) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn topk_keeps_the_largest_magnitudes() {
        let mut row = vec![0.01f32; 16];
        row[3] = 5.0;
        row[9] = -4.0;
        row[12] = 3.0;
        row[15] = 2.0;
        let out = roundtrip(Codec::TopKQuarter, &row); // k = 4
        for (i, v) in out.iter().enumerate() {
            if [3, 9, 12, 15].contains(&i) {
                assert!((v - row[i]).abs() < 0.05, "kept coord {i}: {v}");
            } else {
                assert_eq!(*v, 0.0, "dropped coord {i} decodes to zero");
            }
        }
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let row = [1.0f32; 8]; // every coordinate ties: lowest indices win
        let mut enc = Vec::new();
        let mut idx = Vec::new();
        encode_row(Codec::TopKQuarter, &row, &mut enc, &mut idx); // k = 2
        let mut out = vec![0.0f32; 8];
        decode_row(Codec::TopKQuarter, &enc, &mut out);
        assert_eq!(&out[..2], &[1.0, 1.0]);
        assert!(out[2..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn zero_rows_roundtrip_to_zero() {
        for codec in [
            Codec::Int8,
            Codec::Int4,
            Codec::TopKQuarter,
            Codec::TopKEighth,
        ] {
            let out = roundtrip(codec, &[0.0f32; 9]);
            assert!(out.iter().all(|v| *v == 0.0), "{codec:?}");
        }
    }

    #[test]
    fn non_finite_inputs_encode_as_zero() {
        let row = [f32::NAN, f32::INFINITY, 1.0, -1.0];
        for codec in [Codec::Int8, Codec::Int4, Codec::TopKQuarter] {
            let out = roundtrip(codec, &row);
            assert!(out.iter().all(|v| v.is_finite()), "{codec:?}");
        }
    }

    #[test]
    fn decode_is_total_on_arbitrary_bytes() {
        // Every byte string of the right length decodes to finite values:
        // the receiver can never be desynchronized or poisoned by transit
        // damage, even with checksums off.
        let width = 11;
        for codec in [
            Codec::Int8,
            Codec::Int4,
            Codec::TopKQuarter,
            Codec::TopKEighth,
        ] {
            let n = encoded_len(codec, width);
            let mut state = 0x9E37_79B9u32;
            for _ in 0..200 {
                let bytes: Vec<u8> = (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        (state >> 24) as u8
                    })
                    .collect();
                let mut out = vec![0.0f32; width];
                decode_row(codec, &bytes, &mut out);
                assert!(out.iter().all(|v| v.is_finite()), "{codec:?}");
            }
        }
    }

    #[test]
    fn non_finite_scale_decodes_to_zero() {
        let mut enc = Vec::new();
        let mut idx = Vec::new();
        encode_row(Codec::Int8, &[1.0f32; 4], &mut enc, &mut idx);
        enc[..4].copy_from_slice(&f32::NAN.to_le_bytes());
        let mut out = vec![9.0f32; 4];
        decode_row(Codec::Int8, &enc, &mut out);
        assert!(out.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn encoded_rows_are_smaller_than_dense() {
        for width in [4usize, 16, 32, 400] {
            for codec in [Codec::Int8, Codec::Int4, Codec::TopKQuarter] {
                assert!(
                    encoded_len(codec, width) < width * 4,
                    "{codec:?} width {width}"
                );
            }
        }
    }

    #[test]
    fn mode_parse_roundtrips() {
        for mode in [
            CompressionMode::Off,
            CompressionMode::Int8,
            CompressionMode::Int4,
            CompressionMode::TopK,
            CompressionMode::Adaptive,
        ] {
            assert_eq!(CompressionMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(CompressionMode::parse("gzip"), None);
        assert!(!CompressionMode::Off.is_lossy());
        assert!(CompressionMode::TopK.is_lossy());
    }

    #[test]
    fn stats_merge_and_ratio() {
        let a = CompressionStats {
            rows: 2,
            frames: 1,
            raw_bytes: 300,
            wire_bytes: 100,
            ..CompressionStats::default()
        };
        let b = CompressionStats {
            rows: 1,
            frames: 1,
            raw_bytes: 100,
            wire_bytes: 100,
            ..CompressionStats::default()
        };
        let m = a.merge(b);
        assert_eq!(m.rows, 3);
        assert_eq!(m.ratio(), 2.0);
        assert_eq!(CompressionStats::default().ratio(), 1.0);
    }
}
