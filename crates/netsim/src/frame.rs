//! Checksummed wire frames for parameter-server messages.
//!
//! Every metered PS message is modeled as one [`WireFrame`]: the key ids it
//! addresses plus the f32 payload (embedding rows on pull, gradients on push)
//! and a trailer of one `u32` word for each of its last few keys: on a
//! pull-if-newer exchange the update version of a key asked about
//! conditionally, on a push the gradient energy of a row written back.
//! The sender seals the frame with a 32-bit word-parallel digest over all
//! of it; the receiver re-computes it and rejects the frame on mismatch
//! instead of ingesting garbage.
//!
//! The 4-byte digest rides inside the per-message envelope already priced
//! by [`CostModel::message_overhead_bytes`](crate::CostModel), so enabling
//! checksums changes neither metered bytes nor simulated time — the
//! integrity layer is free when the network is clean, and
//! `tests/fault_differential.rs` holds it to that.

/// Size of the frame digest on the wire. Accounted under the per-message
/// envelope overhead, not the metered payload bytes.
pub const FRAME_CHECKSUM_BYTES: u64 = 4;

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;

/// 32-bit FNV-1a over a byte slice: small and allocation-free, for short
/// inputs. Frames are sealed with the lane-parallel [`frame_digest`], not
/// with this.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(FNV_PRIME)
    })
}

use crate::compress::Codec;

/// Independent hash lanes in the frame digest. Word `i` of a section goes to
/// lane `i % DIGEST_LANES`, so eight multiply chains run side by side instead
/// of one multiply per *byte* waiting on the previous one.
const DIGEST_LANES: usize = 8;

/// Odd multiplier of every lane and fold step (multiplication by an odd
/// constant is a bijection of `u32`).
const DIGEST_MUL: u32 = 0x9E37_79B1;

/// Distinct start values, so the same word means something different in
/// each lane.
const DIGEST_SEEDS: [u32; DIGEST_LANES] = [
    0x811C_9DC5,
    0x1F35_6E7B,
    0xBD4E_3F31,
    0x5B67_0FE7,
    0xF97F_E09D,
    0x9798_B153,
    0x35B1_8209,
    0xD3CA_52BF,
];

/// One hash step. For a fixed word it is a bijection of the state, and for a
/// fixed state a bijection of the word: a changed word always changes the
/// state, and a changed state stays changed through every later step.
#[inline(always)]
fn mix(state: u32, word: u32) -> u32 {
    (state ^ word).wrapping_mul(DIGEST_MUL)
}

/// Feed the key ids: the two 32-bit halves of key `i` go to lanes
/// `2 (i mod 4)` and `2 (i mod 4) + 1`, four keys per round of the lanes.
#[inline]
fn absorb_keys(lanes: &mut [u32; DIGEST_LANES], keys: &[u64]) {
    for (i, &k) in keys.iter().enumerate() {
        let lane = 2 * (i % (DIGEST_LANES / 2));
        lanes[lane] = mix(lanes[lane], k as u32);
        lanes[lane + 1] = mix(lanes[lane + 1], (k >> 32) as u32);
    }
}

/// Feed the trailer words, word `i` to lane `i mod 8`.
#[inline]
fn absorb_versions(lanes: &mut [u32; DIGEST_LANES], versions: &[u32]) {
    for (i, &v) in versions.iter().enumerate() {
        let lane = i % DIGEST_LANES;
        lanes[lane] = mix(lanes[lane], v);
    }
}

/// Fold the lanes in a fixed order, mix in the section lengths (so a word
/// cannot move across a section boundary, and trailing zeros are not free),
/// and finish with an avalanche. Every step is a bijection of the running
/// state, so a difference confined to one lane survives to the result. The
/// version count joins only when there are versions: a frame without them
/// digests exactly as it did before frames could carry any.
#[inline]
fn fold(lanes: [u32; DIGEST_LANES], keys: usize, versions: usize, body: usize) -> u32 {
    let mut h = lanes.iter().fold(DIGEST_SEEDS[0], |h, &l| mix(h, l));
    h = mix(h, keys as u32);
    if versions > 0 {
        h = mix(h, versions as u32);
    }
    h = mix(h, body as u32);
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

/// Digest of a dense frame's wire contents (key ids then f32 payload) —
/// what [`WireFrame::seal`] stamps into the frame. Public so stream
/// transports can seal key-only request messages without allocating a
/// throwaway frame.
pub fn frame_digest(keys: &[u64], payload: &[f32]) -> u32 {
    digest(keys, &[], payload)
}

/// Word-wise, [`DIGEST_LANES`]-lane digest of a dense frame: key halves,
/// the row versions, then the payload's `f32::to_bits` words, each section
/// starting at lane 0.
///
/// A single flipped bit changes exactly one word, hence exactly one lane,
/// and [`mix`]/[`fold`] are bijections of the state they update — so every
/// single-bit flip changes the digest with certainty, not with probability
/// 1 − 2⁻³².
fn digest(keys: &[u64], versions: &[u32], payload: &[f32]) -> u32 {
    let mut lanes = DIGEST_SEEDS;
    absorb_keys(&mut lanes, keys);
    absorb_versions(&mut lanes, versions);
    let rounds = payload.chunks_exact(DIGEST_LANES);
    let rest = rounds.remainder();
    for c in rounds {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane = mix(*lane, v.to_bits());
        }
    }
    for (lane, v) in lanes.iter_mut().zip(rest) {
        *lane = mix(*lane, v.to_bits());
    }
    fold(lanes, keys.len(), versions.len(), payload.len())
}

/// Digest for an encoded (compressed) frame: the key ids, the trailer
/// words, the codec tag (a frame must not verify under the wrong codec),
/// then the encoded payload bytes packed little-endian into words (the last
/// one zero-padded; the byte length is mixed in by [`fold`]) — the checksum
/// covers exactly what crosses the wire. Same lanes and guarantee as
/// [`digest`].
fn digest_encoded(keys: &[u64], versions: &[u32], tag: u8, encoded: &[u8]) -> u32 {
    let mut lanes = DIGEST_SEEDS;
    absorb_keys(&mut lanes, keys);
    absorb_versions(&mut lanes, versions);
    lanes[0] = mix(lanes[0], u32::from(tag));
    let rounds = encoded.chunks_exact(4 * DIGEST_LANES);
    let rest = rounds.remainder();
    for c in rounds {
        for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(4)) {
            *lane = mix(*lane, u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(rest.chunks(4)) {
        let mut word = [0u8; 4];
        word[..w.len()].copy_from_slice(w);
        *lane = mix(*lane, u32::from_le_bytes(word));
    }
    fold(lanes, keys.len(), versions.len(), encoded.len())
}

/// One PS message: key ids plus either a dense f32 payload (the legacy
/// format) or a compressed byte encoding of it, sealed with an end-to-end
/// checksum at send time. The checksum is computed once over the clean
/// wire contents; transit corruption mutates `keys`/`payload`/`encoded`
/// but not the seal, so [`verify`](WireFrame::verify) catches it.
///
/// `versions` is the frame's trailer: one word for each of its *last*
/// `versions.len()` keys, with two meanings. On a pull-if-newer exchange
/// they are row versions — the ones the worker holds on the way out (keys
/// before them are pulled unconditionally), the returned rows' new ones on
/// the way back. On a push they are gradient energies: a trailing key's row
/// is the sum of several gradients, written back once, and its word is
/// `E.to_bits()` for `E = Σᵢ‖gᵢ‖²` (keys before them carry one gradient
/// each and need none). Every other frame has none.
///
/// For encoded frames only `keys`, `versions` and `encoded` cross the
/// (simulated) wire:
/// `payload` is client-side staging that the receiver reconstructs by
/// decoding, so neither [`wire_bytes`](WireFrame::wire_bytes) nor the
/// digest covers it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// Key ids addressed by this message, in transmission order.
    pub keys: Vec<u64>,
    /// Concatenated f32 rows (embeddings or gradients) for those keys.
    /// For encoded frames: the pre-quantization rows at send time, the
    /// decoded rows after receipt — never on the wire.
    pub payload: Vec<f32>,
    /// Compressed payload bytes (empty for dense frames).
    pub encoded: Vec<u8>,
    /// One word for each of the last `versions.len()` keys: row update
    /// versions on a pull-if-newer frame, gradient energies (`f32` bits) on
    /// a push frame, else empty.
    pub versions: Vec<u32>,
    codec: Codec,
    checksum: u32,
}

impl WireFrame {
    /// Seal a dense frame: compute the digest over the clean keys and
    /// payload. Bit-identical to the pre-compression wire format.
    pub fn seal(keys: Vec<u64>, payload: Vec<f32>) -> Self {
        Self::seal_versioned(keys, Vec::new(), payload)
    }

    /// Seal a dense frame with a trailer: `versions` belong to the last
    /// `versions.len()` keys, and the digest covers them like everything
    /// else on the wire.
    pub fn seal_versioned(keys: Vec<u64>, versions: Vec<u32>, payload: Vec<f32>) -> Self {
        let checksum = digest(&keys, &versions, &payload);
        Self {
            keys,
            payload,
            encoded: Vec::new(),
            versions,
            codec: Codec::Dense,
            checksum,
        }
    }

    /// Seal a compressed frame: the digest covers the keys, the codec tag,
    /// the encoded bytes and the trailer — exactly the wire contents. The
    /// last `versions.len()` rows are written back with their energies.
    /// `payload` holds the client's pre-quantization rows (same
    /// concatenated layout) for the receiver to overwrite with the decoded
    /// values.
    pub fn seal_encoded_versioned(
        keys: Vec<u64>,
        versions: Vec<u32>,
        payload: Vec<f32>,
        encoded: Vec<u8>,
        codec: Codec,
    ) -> Self {
        debug_assert!(codec != Codec::Dense, "dense frames use seal()");
        let checksum = digest_encoded(&keys, &versions, codec.tag(), &encoded);
        Self {
            keys,
            payload,
            encoded,
            versions,
            codec,
            checksum,
        }
    }

    /// Reassemble a frame from parts received off a byte stream, keeping
    /// the sender's checksum *as received* instead of recomputing it — so
    /// [`verify`](WireFrame::verify) stays an end-to-end check: bytes
    /// damaged anywhere between the sender's seal and this constructor
    /// fail verification. Transport decoders (see [`crate::stream`]) are
    /// the only intended caller.
    pub fn from_wire(
        keys: Vec<u64>,
        versions: Vec<u32>,
        payload: Vec<f32>,
        encoded: Vec<u8>,
        codec: Codec,
        checksum: u32,
    ) -> Self {
        Self {
            keys,
            payload,
            encoded,
            versions,
            codec,
            checksum,
        }
    }

    /// The digest sealed into the frame at send time.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// This frame's payload codec (`Dense` for legacy frames).
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Re-compute the digest over the (possibly corrupted) contents and
    /// compare against the seal.
    pub fn verify(&self) -> bool {
        match self.codec {
            Codec::Dense => digest(&self.keys, &self.versions, &self.payload) == self.checksum,
            c => {
                digest_encoded(&self.keys, &self.versions, c.tag(), &self.encoded) == self.checksum
            }
        }
    }

    /// Metered size of this frame: 8 bytes per key id, 4 per trailer word, and
    /// the payload as it crosses the wire (4 per f32 dense, or the encoded
    /// byte count). The [`FRAME_CHECKSUM_BYTES`] digest is envelope overhead
    /// on top.
    pub fn wire_bytes(&self) -> u64 {
        let payload_bytes = match self.codec {
            Codec::Dense => self.payload.len() as u64 * 4,
            _ => self.encoded.len() as u64,
        };
        self.keys.len() as u64 * 8 + self.versions.len() as u64 * 4 + payload_bytes
    }

    /// What the frame would meter with its rows sent dense: keys, trailer
    /// and 4 bytes per `payload` word (for an encoded frame, the rows the
    /// sender staged or the receiver decoded). Equal to
    /// [`wire_bytes`](WireFrame::wire_bytes) for a dense frame.
    pub fn dense_wire_bytes(&self) -> u64 {
        (self.keys.len() * 8 + self.versions.len() * 4 + self.payload.len() * 4) as u64
    }

    /// Flip one bit chosen by `pattern` (a seeded draw from the fault
    /// injector), simulating transit corruption. Dense payload flips stay
    /// within the sign + mantissa bits so a damaged embedding remains
    /// finite — the poison is silent, not a NaN that would announce
    /// itself. Encoded frames flip any bit of the encoded bytes (the
    /// codecs' total decoder guarantees finiteness). Returns `false` for
    /// an empty frame (nothing to damage).
    pub fn corrupt(&mut self, pattern: u64) -> bool {
        if !self.encoded.is_empty() {
            let idx = (pattern % self.encoded.len() as u64) as usize;
            let bit = ((pattern >> 32) % 8) as u32;
            self.encoded[idx] ^= 1 << bit;
            true
        } else if !self.payload.is_empty() {
            let idx = (pattern % self.payload.len() as u64) as usize;
            let pick = ((pattern >> 32) % 24) as u32;
            let bit = if pick == 23 { 31 } else { pick };
            self.payload[idx] = f32::from_bits(self.payload[idx].to_bits() ^ (1 << bit));
            true
        } else if !self.keys.is_empty() {
            let idx = (pattern % self.keys.len() as u64) as usize;
            let bit = ((pattern >> 32) % 64) as u32;
            self.keys[idx] ^= 1 << bit;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_frame_verifies() {
        let f = WireFrame::seal(vec![1, 2, 3], vec![0.5, -1.25, 3.0]);
        assert!(f.verify());
        assert_eq!(f.wire_bytes(), 3 * 8 + 3 * 4);
    }

    #[test]
    fn empty_frame_verifies_and_resists_corruption() {
        let mut f = WireFrame::seal(vec![], vec![]);
        assert!(f.verify());
        assert!(!f.corrupt(0xDEAD_BEEF));
        assert!(f.verify());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let keys = vec![7, 11, 400_000];
        let payload = vec![0.1f32, -2.5, 1e-3, 42.0];
        for pattern in 0..4096u64 {
            let mut f = WireFrame::seal(keys.clone(), payload.clone());
            assert!(f.corrupt(pattern));
            assert!(!f.verify(), "flip {pattern:#x} went undetected");
        }
    }

    #[test]
    fn corruption_keeps_payload_finite() {
        for pattern in 0..4096u64 {
            let mut f = WireFrame::seal(vec![1], vec![0.75, -0.125]);
            f.corrupt(pattern);
            assert!(
                f.payload.iter().all(|v| v.is_finite()),
                "pattern {pattern:#x}"
            );
        }
    }

    #[test]
    fn key_only_frames_are_covered_too() {
        let mut f = WireFrame::seal(vec![9, 10], vec![]);
        assert!(f.corrupt(5));
        assert!(!f.verify());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = WireFrame::seal(vec![1, 2], vec![0.5]);
        let b = WireFrame::seal(vec![2, 1], vec![0.5]);
        assert_ne!(a.checksum(), b.checksum());
    }

    fn encoded_frame(codec: Codec) -> WireFrame {
        let keys = vec![7u64, 11, 400_000];
        let rows = [
            vec![0.1f32, -2.5, 1e-3, 42.0, 0.0, 1.5, -0.25, 3.25],
            vec![1.0f32, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0, 8.0],
            vec![0.5f32; 8],
        ];
        let mut payload = Vec::new();
        let mut encoded = Vec::new();
        let mut idx = Vec::new();
        for row in &rows {
            payload.extend_from_slice(row);
            crate::compress::encode_row(codec, row, &mut encoded, &mut idx);
        }
        WireFrame::seal_encoded_versioned(keys, Vec::new(), payload, encoded, codec)
    }

    #[test]
    fn sealed_encoded_frame_verifies_and_is_smaller() {
        for codec in [
            Codec::Int8,
            Codec::Int4,
            Codec::TopKQuarter,
            Codec::TopKEighth,
        ] {
            let f = encoded_frame(codec);
            assert!(f.verify(), "{codec:?}");
            let dense_bytes = f.keys.len() as u64 * 8 + f.payload.len() as u64 * 4;
            assert!(f.wire_bytes() < dense_bytes, "{codec:?} did not compress");
            assert_eq!(
                f.wire_bytes(),
                f.keys.len() as u64 * 8 + f.encoded.len() as u64
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected_on_encoded_frames() {
        // The exhaustive dense sweep, extended to every compressed codec:
        // the digest covers the encoded bytes, so a flip anywhere in the
        // compressed payload (scale, index, or value byte) is caught.
        for codec in [
            Codec::Int8,
            Codec::Int4,
            Codec::TopKQuarter,
            Codec::TopKEighth,
        ] {
            for pattern in 0..4096u64 {
                let mut f = encoded_frame(codec);
                assert!(f.corrupt(pattern));
                assert!(!f.verify(), "{codec:?} flip {pattern:#x} went undetected");
            }
        }
    }

    #[test]
    fn codec_tag_is_part_of_the_seal() {
        // The same keys and bytes under a different codec must not verify:
        // a frame cannot be silently decoded with the wrong decoder.
        let mut reinterpreted = encoded_frame(Codec::Int8);
        reinterpreted.codec = Codec::Int4;
        assert!(!reinterpreted.verify());
        assert_ne!(
            encoded_frame(Codec::Int8).checksum(),
            encoded_frame(Codec::Int4).checksum()
        );
    }

    #[test]
    fn corrupted_encoded_frames_decode_finite() {
        // Even when a damaged compressed frame is ingested (checksums
        // off), the total decoder yields finite rows.
        for codec in [Codec::Int8, Codec::Int4, Codec::TopKQuarter] {
            for pattern in 0..2048u64 {
                let mut f = encoded_frame(codec);
                f.corrupt(pattern);
                let mut out = vec![0.0f32; 8];
                let mut off = 0;
                for _ in 0..f.keys.len() {
                    let n = crate::compress::encoded_len(codec, 8);
                    crate::compress::decode_row(codec, &f.encoded[off..], &mut out);
                    assert!(
                        out.iter().all(|v| v.is_finite()),
                        "{codec:?} pattern {pattern:#x}"
                    );
                    off += n;
                }
            }
        }
    }

    const CODECS: [Codec; 4] = [
        Codec::Int8,
        Codec::Int4,
        Codec::TopKQuarter,
        Codec::TopKEighth,
    ];

    /// Distinct, bit-rich test words (an LCG; values never repeat within a
    /// frame).
    fn word(i: usize) -> u32 {
        (i as u32 + 1)
            .wrapping_mul(0x9E37_79B9)
            .rotate_left(7)
            .wrapping_add(0x7F4A_7C15)
    }

    fn dense_frame(nkeys: usize, nwords: usize) -> WireFrame {
        let keys = (0..nkeys)
            .map(|i| (u64::from(word(2 * i)) << 32) | u64::from(word(2 * i + 1)))
            .collect();
        let payload = (0..nwords).map(|i| f32::from_bits(word(100 + i))).collect();
        WireFrame::seal(keys, payload)
    }

    fn encoded_bytes_frame(codec: Codec, nkeys: usize, nbytes: usize) -> WireFrame {
        let keys = dense_frame(nkeys, 0).keys;
        let encoded = (0..nbytes).map(|i| (word(200 + i) >> 11) as u8).collect();
        WireFrame::seal_encoded_versioned(keys, Vec::new(), Vec::new(), encoded, codec)
    }

    /// The digest used to be FNV-1a fed one byte at a time: one multiply per
    /// byte, each waiting on the one before — 650 ns to seal a 130-word row,
    /// paid per row pulled and per row pushed, a fifth of a training
    /// iteration's wall time. It now takes a 32-bit word per step in eight
    /// independent lanes. What must not change is the guarantee the byte
    /// loop gave: *every* single-bit flip is caught, with certainty. These
    /// sweeps hold it to that over every lane-remainder shape (0..=17 words
    /// leave 0..=7 words in the last round, twice over; 0..=3 keys leave
    /// 0, 2, 4 or 6 key halves) for the dense format and every codec.
    #[test]
    fn every_single_bit_flip_is_detected_in_every_frame_shape() {
        for nkeys in 0..=3usize {
            for nwords in 0..=17usize {
                let clean = dense_frame(nkeys, nwords);
                assert!(clean.verify(), "{nkeys} keys, {nwords} words");
                for k in 0..nkeys {
                    for bit in 0..64 {
                        let mut f = clean.clone();
                        f.keys[k] ^= 1u64 << bit;
                        assert!(!f.verify(), "{nkeys}k {nwords}w: key {k} bit {bit}");
                    }
                }
                for w in 0..nwords {
                    for bit in 0..32 {
                        let mut f = clean.clone();
                        f.payload[w] = f32::from_bits(f.payload[w].to_bits() ^ (1 << bit));
                        assert!(!f.verify(), "{nkeys}k {nwords}w: word {w} bit {bit}");
                    }
                }
            }
        }
        for codec in CODECS {
            for nkeys in 0..=3usize {
                // 0..=70 bytes: whole and partial words, up to 17.5 of them.
                for nbytes in 0..=70usize {
                    let clean = encoded_bytes_frame(codec, nkeys, nbytes);
                    assert!(clean.verify(), "{codec:?} {nkeys} keys, {nbytes} bytes");
                    for k in 0..nkeys {
                        for bit in 0..64 {
                            let mut f = clean.clone();
                            f.keys[k] ^= 1u64 << bit;
                            assert!(!f.verify(), "{codec:?} {nkeys}k {nbytes}b: key {k}.{bit}");
                        }
                    }
                    for b in 0..nbytes {
                        for bit in 0..8 {
                            let mut f = clean.clone();
                            f.encoded[b] ^= 1 << bit;
                            assert!(!f.verify(), "{codec:?} {nkeys}k {nbytes}b: byte {b}.{bit}");
                        }
                    }
                }
            }
        }
    }

    /// Versions ride in the same lanes as everything else: every single-bit
    /// flip of a version word is caught with certainty, over every
    /// lane-remainder shape, with and without a payload behind it.
    #[test]
    fn every_single_bit_flip_of_a_version_is_detected() {
        for nkeys in 1..=17usize {
            for nwords in [0usize, 5, 16] {
                let base = dense_frame(nkeys, nwords);
                let versions: Vec<u32> = (0..nkeys).map(|i| word(300 + i)).collect();
                let clean = WireFrame::seal_versioned(base.keys, versions, base.payload);
                assert!(clean.verify(), "{nkeys} keys, {nwords} words");
                assert_eq!(
                    clean.wire_bytes(),
                    (nkeys * 12 + nwords * 4) as u64,
                    "a version is 4 metered bytes"
                );
                for v in 0..nkeys {
                    for bit in 0..32 {
                        let mut f = clean.clone();
                        f.versions[v] ^= 1 << bit;
                        assert!(!f.verify(), "{nkeys}k {nwords}w: version {v} bit {bit}");
                    }
                }
                // A key or payload flip is still caught with versions present.
                let mut f = clean.clone();
                f.keys[nkeys - 1] ^= 1 << 40;
                assert!(!f.verify());
            }
        }
    }

    #[test]
    fn versions_are_part_of_the_seal() {
        let keys = vec![3u64, 9];
        let rows = vec![0.5f32, -1.0];
        let plain = WireFrame::seal(keys.clone(), rows.clone());
        assert_eq!(plain.checksum(), frame_digest(&keys, &rows));
        let versioned = WireFrame::seal_versioned(keys.clone(), vec![0, 0], rows.clone());
        assert_ne!(
            plain.checksum(),
            versioned.checksum(),
            "zero versions are not free"
        );
        let swapped = WireFrame::seal_versioned(keys.clone(), vec![2, 1], rows.clone());
        let ordered = WireFrame::seal_versioned(keys.clone(), vec![1, 2], rows.clone());
        assert_ne!(
            swapped.checksum(),
            ordered.checksum(),
            "version order matters"
        );
        // Dropping the versions of a versioned frame does not verify.
        let mut stripped = ordered.clone();
        stripped.versions.clear();
        assert!(!stripped.verify());
    }

    /// An encoded frame's seal covers its trailer like a dense frame's: one
    /// sealed without a trailer cannot be given one, one sealed with energies
    /// cannot lose, reorder or change one — and without a trailer the digest
    /// is the one encoded frames always had.
    #[test]
    fn an_encoded_frame_cannot_carry_a_trailer_its_seal_does_not_cover() {
        for codec in CODECS {
            let plain = encoded_frame(codec);
            let mut smuggled = plain.clone();
            smuggled.versions.push(7);
            assert!(
                !smuggled.verify(),
                "{codec:?}: a trailer added after sealing"
            );
            let energies = vec![1.5f32.to_bits(), 0.25f32.to_bits()];
            let sealed = WireFrame::seal_encoded_versioned(
                plain.keys.clone(),
                energies.clone(),
                plain.payload.clone(),
                plain.encoded.clone(),
                codec,
            );
            assert!(sealed.verify(), "{codec:?}");
            assert_ne!(sealed.checksum(), plain.checksum(), "{codec:?}");
            assert_eq!(sealed.wire_bytes(), plain.wire_bytes() + 8, "{codec:?}");
            assert_eq!(
                sealed.dense_wire_bytes(),
                (3 * 8 + 2 * 4 + 24 * 4) as u64,
                "{codec:?}"
            );
            let mut stripped = sealed.clone();
            stripped.versions.clear();
            assert!(!stripped.verify(), "{codec:?}: trailer dropped");
            let mut swapped = sealed.clone();
            swapped.versions.swap(0, 1);
            assert!(!swapped.verify(), "{codec:?}: trailer reordered");
            for v in 0..energies.len() {
                for bit in 0..32 {
                    let mut f = sealed.clone();
                    f.versions[v] ^= 1 << bit;
                    assert!(!f.verify(), "{codec:?}: energy {v} bit {bit}");
                }
            }
            // A payload or key flip is still caught behind a trailer.
            let mut f = sealed.clone();
            f.encoded[0] ^= 1;
            assert!(!f.verify());
            let mut f = sealed.clone();
            f.keys[0] ^= 1 << 33;
            assert!(!f.verify());
            let empty = WireFrame::seal_encoded_versioned(
                plain.keys.clone(),
                Vec::new(),
                plain.payload.clone(),
                plain.encoded.clone(),
                codec,
            );
            assert_eq!(empty.checksum(), plain.checksum(), "{codec:?}");
        }
    }

    #[test]
    fn digest_depends_on_order_position_and_lengths() {
        // Two rows of 16 words (a multiple of the lane count, so swapping
        // them keeps every word in its lane).
        let payload: Vec<f32> = (0..32).map(|i| f32::from_bits(word(i))).collect();
        let base = frame_digest(&[5, 9], &payload);
        let mut rows_swapped = payload.clone();
        rows_swapped.rotate_left(16);
        assert_ne!(frame_digest(&[5, 9], &rows_swapped), base, "rows swapped");
        assert_ne!(frame_digest(&[9, 5], &payload), base, "keys swapped");
        // Two words eight apart share a lane; their order still matters.
        let mut same_lane = payload.clone();
        same_lane.swap(3, 11);
        assert_ne!(frame_digest(&[5, 9], &same_lane), base, "words 3 and 11");
        // Neighbouring words are in different lanes.
        let mut neighbours = payload.clone();
        neighbours.swap(3, 4);
        assert_ne!(frame_digest(&[5, 9], &neighbours), base, "words 3 and 4");

        // The same word stream split differently between keys and payload.
        let (lo, hi) = (word(40), word(41));
        let key = (u64::from(hi) << 32) | u64::from(lo);
        let x = f32::from_bits(word(42));
        assert_ne!(
            frame_digest(&[key], &[x]),
            frame_digest(&[], &[f32::from_bits(lo), f32::from_bits(hi), x]),
            "a key read as payload"
        );

        // Only a length differs: a zero word more is not free, and encoded
        // bytes that pad to the same word are told apart by their count.
        assert_ne!(frame_digest(&[], &[]), frame_digest(&[], &[0.0]));
        assert_ne!(frame_digest(&[], &[]), frame_digest(&[0], &[]));
        assert_ne!(frame_digest(&[7], &[x]), frame_digest(&[7], &[x, 0.0]));
        for codec in CODECS {
            let short =
                WireFrame::seal_encoded_versioned(vec![7], vec![], vec![], vec![1, 2, 3], codec);
            let padded =
                WireFrame::seal_encoded_versioned(vec![7], vec![], vec![], vec![1, 2, 3, 0], codec);
            assert_ne!(short.checksum(), padded.checksum(), "{codec:?}");
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a(b""), 0x811C_9DC5);
        assert_eq!(fnv1a(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a(b"foobar"), 0xBF9C_F968);
    }
}
