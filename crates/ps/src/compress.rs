//! Client-side push compression with error-feedback residuals.
//!
//! One [`PushCompressor`] per worker (it lives inside the worker's
//! [`PsScratch`](crate::PsScratch), so every push path threads through it
//! without new plumbing). For each pushed row it stages the *compensated*
//! value `v = grad + residual[key]`, encodes `v` under the active codec,
//! and — only after the frame transits successfully — commits the new
//! residual `v − dequant(encode(v))` back to the key. Failed pushes commit
//! nothing: the caller still owns the raw gradient (all-or-nothing), and
//! the residual it peeked is untouched, so no error is double-counted.
//!
//! A codec that drops coordinates (top-k) holds each dropped one back
//! until the key is pushed again, and a worker may not push a key again for
//! a long time: a row it reads only as a negative comes up when the sampler
//! draws it. So at an epoch's end, where the model is evaluated and
//! checkpointed, the worker pushes what such a codec held back
//! ([`PsClient::try_flush_held`](crate::PsClient::try_flush_held)), under
//! int8, which delivers every coordinate: what stays behind is rounding
//! error, as it always is under int8.
//!
//! Degraded-mode callers that defer a push into a backlog instead of
//! retrying fold the key's residual into the deferred value via
//! [`PushCompressor::drain_residual_into`] — accumulated compression error
//! rides the backlog rather than silently waiting for a wire that may stay
//! down.
//!
//! The adaptive mode is a ladder (int8 → top-k/4 → top-k/8) driven by the
//! worker timeline's per-epoch comm/compute occupancy: it tightens one
//! rung only while the comm lane is the critical one and relaxes when the
//! comm lane has ample slack, with hysteresis between the two thresholds.

use hetkg_netsim::compress::{encode_row, Codec, CompressionMode, CompressionStats};
use hetkg_netsim::WireFrame;
use std::collections::{HashMap, HashSet};

/// Tighten one rung when epoch comm time exceeds this multiple of compute
/// time (the comm lane is critical).
const TIGHTEN_RATIO: f64 = 1.1;
/// Relax one rung when epoch comm time falls below this multiple of
/// compute time (ample slack; hysteresis against oscillation).
const RELAX_RATIO: f64 = 0.5;
/// The adaptive ladder, mildest first. The floor is int8 — adaptive mode
/// always compresses; only the *aggressive* rungs are gated on occupancy.
const LADDER: [Codec; 3] = [Codec::Int8, Codec::TopKQuarter, Codec::TopKEighth];

/// Per-worker push-compression state: the active codec, the per-key
/// error-feedback residuals, and reusable scratch so the steady-state push
/// path allocates nothing.
#[derive(Debug)]
pub struct PushCompressor {
    mode: CompressionMode,
    /// Current rung on [`LADDER`] (fixed modes ignore it).
    level: usize,
    /// Per-key accumulated quantization error, added to the next push of
    /// the key (error feedback).
    residuals: HashMap<u64, Vec<f32>>,
    /// Keys staged so far in the batch in flight (duplicate occurrences of
    /// a key must not re-apply its residual).
    seen: HashSet<u64>,
    /// Keys a top-k push held coordinates of since the last
    /// [`take_held_back`](Self::take_held_back).
    held_back: HashSet<u64>,
    /// Whether batch index `i` was its key's first occurrence.
    first: Vec<bool>,
    /// Top-k selection scratch.
    idx_scratch: Vec<u32>,
    /// Decode scratch row.
    row_buf: Vec<f32>,
    stats: CompressionStats,
}

impl PushCompressor {
    /// A compressor for `mode`, or `None` for [`CompressionMode::Off`] —
    /// off is the *absence* of a compressor, so the dense path stays
    /// bit-identical to the pre-compression client.
    pub fn new(mode: CompressionMode) -> Option<Self> {
        if mode == CompressionMode::Off {
            return None;
        }
        Some(Self {
            mode,
            level: 0,
            residuals: HashMap::new(),
            seen: HashSet::new(),
            held_back: HashSet::new(),
            first: Vec::new(),
            idx_scratch: Vec::new(),
            row_buf: Vec::new(),
            stats: CompressionStats::default(),
        })
    }

    /// The codec the next push will use.
    pub fn codec(&self) -> Codec {
        match self.mode {
            CompressionMode::Off => Codec::Dense,
            CompressionMode::Int8 => Codec::Int8,
            CompressionMode::Int4 => Codec::Int4,
            CompressionMode::TopK => Codec::TopKQuarter,
            CompressionMode::Adaptive => LADDER[self.level],
        }
    }

    /// Cumulative counters for reporting.
    pub fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// Adaptive policy step, fed one epoch's comm/compute lane occupancy
    /// from the worker's timeline. No-op for fixed modes; an epoch with no
    /// posted time is inside the hysteresis band.
    pub fn adapt(&mut self, comm_secs: f64, compute_secs: f64) {
        if self.mode != CompressionMode::Adaptive {
            return;
        }
        if comm_secs > TIGHTEN_RATIO * compute_secs && self.level + 1 < LADDER.len() {
            self.level += 1;
            self.stats.level_ups += 1;
        } else if comm_secs < RELAX_RATIO * compute_secs && self.level > 0 {
            self.level -= 1;
            self.stats.level_downs += 1;
        }
    }

    /// Fold `key`'s pending residual into `acc` (a deferred gradient bound
    /// for a degraded-mode backlog) and clear it. Returns whether anything
    /// was folded. Widths beyond `acc` are impossible in practice (one
    /// schema per key); extra residual tail, if any, is dropped.
    pub fn drain_residual_into(&mut self, key: u64, acc: &mut [f32]) -> bool {
        match self.residuals.get_mut(&key) {
            Some(r) if r.iter().any(|v| *v != 0.0) => {
                for (a, b) in acc.iter_mut().zip(r.iter_mut()) {
                    *a += *b;
                    *b = 0.0;
                }
                self.stats.residual_folds += 1;
                true
            }
            _ => false,
        }
    }

    /// The keys a push under a codec that drops coordinates left a residual
    /// on since the last call, ascending. Under int8 and int4 a residual is
    /// rounding error, and no key is listed for it.
    pub(crate) fn take_held_back(&mut self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .held_back
            .drain()
            .filter(|k| self.residuals[k].iter().any(|v| *v != 0.0))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Start staging a push batch of `n` rows.
    pub(crate) fn begin_batch(&mut self, n: usize) {
        self.seen.clear();
        self.first.clear();
        self.first.resize(n, false);
    }

    /// Stage batch row `i` for `key`: add the key's residual into `v` (the
    /// first occurrence only — duplicates of a key within one batch each
    /// carry their own gradient but the residual once). Residual storage
    /// is *not* mutated: a failed batch commits nothing.
    pub(crate) fn stage(&mut self, i: usize, key: u64, v: &mut [f32]) {
        if self.seen.insert(key) {
            self.first[i] = true;
            if let Some(r) = self.residuals.get(&key) {
                for (a, b) in v.iter_mut().zip(r) {
                    *a += *b;
                }
            }
        }
    }

    /// Encode one staged row into `out` using internal scratch.
    pub(crate) fn encode(&mut self, codec: Codec, v: &[f32], out: &mut Vec<u8>) {
        encode_row(codec, v, out, &mut self.idx_scratch);
    }

    /// After a successful transmit: decode row `i`'s encoded bytes, commit
    /// the key's new residual (`staged − decoded`, summed over duplicate
    /// occurrences), and overwrite `row` (which held the staged value)
    /// with the decoded value the server will apply.
    pub(crate) fn decode_commit_row(
        &mut self,
        codec: Codec,
        i: usize,
        key: u64,
        bytes: &[u8],
        row: &mut [f32],
    ) {
        self.row_buf.clear();
        self.row_buf.resize(row.len(), 0.0);
        hetkg_netsim::compress::decode_row(codec, bytes, &mut self.row_buf);
        if matches!(codec, Codec::TopKQuarter | Codec::TopKEighth) {
            self.held_back.insert(key);
        }
        let r = self.residuals.entry(key).or_default();
        if r.len() != row.len() {
            r.resize(row.len(), 0.0);
        }
        if self.first[i] {
            for j in 0..row.len() {
                r[j] = row[j] - self.row_buf[j];
            }
        } else {
            for j in 0..row.len() {
                r[j] += row[j] - self.row_buf[j];
            }
        }
        row.copy_from_slice(&self.row_buf);
    }

    /// Count one delivered push frame.
    pub(crate) fn note_frame(&mut self, frame: &WireFrame) {
        self.stats.frames += 1;
        self.stats.rows += frame.keys.len() as u64;
        self.stats.wire_bytes += frame.wire_bytes();
        self.stats.raw_bytes += frame.dense_wire_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_has_no_compressor() {
        assert!(PushCompressor::new(CompressionMode::Off).is_none());
    }

    #[test]
    fn fixed_modes_pin_their_codec() {
        let c = PushCompressor::new(CompressionMode::Int8).unwrap();
        assert_eq!(c.codec(), Codec::Int8);
        let c = PushCompressor::new(CompressionMode::TopK).unwrap();
        assert_eq!(c.codec(), Codec::TopKQuarter);
    }

    #[test]
    fn adaptive_ladder_tightens_and_relaxes_with_hysteresis() {
        let mut c = PushCompressor::new(CompressionMode::Adaptive).unwrap();
        assert_eq!(c.codec(), Codec::Int8, "floor is int8");
        c.adapt(2.0, 1.0); // comm critical: tighten
        assert_eq!(c.codec(), Codec::TopKQuarter);
        c.adapt(1.0, 1.0); // inside the hysteresis band: hold
        assert_eq!(c.codec(), Codec::TopKQuarter);
        c.adapt(3.0, 1.0);
        assert_eq!(c.codec(), Codec::TopKEighth);
        c.adapt(5.0, 1.0); // already at the top rung
        assert_eq!(c.codec(), Codec::TopKEighth);
        c.adapt(0.1, 1.0); // comm slack: relax
        assert_eq!(c.codec(), Codec::TopKQuarter);
        c.adapt(0.0, 0.0); // no posted time: hold
        assert_eq!(c.codec(), Codec::TopKQuarter);
        let s = c.stats();
        assert_eq!(s.level_ups, 2);
        assert_eq!(s.level_downs, 1);
    }

    #[test]
    fn residual_is_staged_once_per_batch_and_committed_on_success() {
        let mut c = PushCompressor::new(CompressionMode::Int8).unwrap();
        // Seed a residual by pushing a row whose values don't quantize
        // exactly.
        let codec = c.codec();
        c.begin_batch(1);
        let mut v = [0.3f32, -0.7, 0.11, 0.09];
        c.stage(0, 5, &mut v);
        let mut enc = Vec::new();
        c.encode(codec, &v, &mut enc);
        let staged = v;
        c.decode_commit_row(codec, 0, 5, &enc, &mut v);
        let r: Vec<f32> = staged.iter().zip(&v).map(|(a, b)| a - b).collect();
        assert!(r.iter().any(|x| *x != 0.0), "quantization left a residual");
        // The next batch stages that residual into the compensated value.
        c.begin_batch(2);
        let mut v1 = [0.0f32; 4];
        c.stage(0, 5, &mut v1);
        assert_eq!(&v1[..], &r[..], "first occurrence carries the residual");
        let mut v2 = [0.0f32; 4];
        c.stage(1, 5, &mut v2);
        assert_eq!(v2, [0.0; 4], "duplicate occurrence does not re-apply it");
    }

    #[test]
    fn failed_batches_leave_residuals_untouched() {
        let mut c = PushCompressor::new(CompressionMode::Int8).unwrap();
        let codec = c.codec();
        c.begin_batch(1);
        let mut v = [0.3f32, -0.7, 0.11, 0.09];
        c.stage(0, 5, &mut v);
        let mut enc = Vec::new();
        c.encode(codec, &v, &mut enc);
        c.decode_commit_row(codec, 0, 5, &enc, &mut v);
        let mut before = [0.0f32; 4];
        // Stage a new batch but never commit (the transmit "failed").
        c.begin_batch(1);
        let mut staged = [1.0f32; 4];
        c.stage(0, 5, &mut staged);
        // A fresh batch still sees the same residual as before the failure.
        c.begin_batch(1);
        c.stage(0, 5, &mut before);
        let mut again = [0.0f32; 4];
        c.begin_batch(1);
        c.stage(0, 5, &mut again);
        assert_eq!(before, again, "peek-only staging is repeatable");
    }

    #[test]
    fn drain_residual_folds_once_then_clears() {
        let mut c = PushCompressor::new(CompressionMode::Int4).unwrap();
        let codec = c.codec();
        c.begin_batch(1);
        let mut v = [0.3f32, -0.7, 0.11, 0.09];
        c.stage(0, 9, &mut v);
        let mut enc = Vec::new();
        c.encode(codec, &v, &mut enc);
        c.decode_commit_row(codec, 0, 9, &enc, &mut v);
        let mut acc = [1.0f32; 4];
        assert!(c.drain_residual_into(9, &mut acc));
        assert_ne!(acc, [1.0; 4], "residual folded into the deferred value");
        let mut acc2 = [1.0f32; 4];
        assert!(!c.drain_residual_into(9, &mut acc2), "already drained");
        assert_eq!(acc2, [1.0; 4]);
        assert!(!c.drain_residual_into(1234, &mut acc2), "unknown key");
        assert_eq!(c.stats().residual_folds, 1);
    }
}
