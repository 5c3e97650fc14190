//! The stream decoder reads bytes another process wrote. Whatever they are,
//! it must not panic, must not take a length prefix at its word when
//! allocating, must reject a frame with more versions than keys, and must
//! hand back exactly what was written when the bytes are valid.
//!
//! Allocation is measured, not argued: a counting global allocator tracks
//! the peak of live bytes on the decoding thread.

use hetkg_netsim::compress::{encode_row, Codec};
use hetkg_netsim::stream::{read_message, write_frame, EAGER_BODY_BYTES};
use hetkg_netsim::WireFrame;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor};

thread_local! {
    /// Bytes this thread currently holds, and the most it ever held.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn grew(by: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(by: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(by)));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// thread-local `Cell`s with const initializers, so touching them neither
// allocates nor synchronizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count both blocks as live for the duration of the move.
        grew(new_size);
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        shrank(layout.size());
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Decode `bytes`, returning the result and the peak of live bytes the call
/// added on this thread.
fn decode_measured(bytes: &[u8]) -> (io::Result<hetkg_netsim::stream::StreamMessage>, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = read_message(&mut Cursor::new(bytes));
    (out, PEAK.with(Cell::get) - base)
}

/// What a decode of `received` bytes may hold at once: the eager body
/// reservation, the body buffer's doubling while it grows past it, and one
/// decoded copy of every section.
fn allocation_cap(received: usize) -> usize {
    EAGER_BODY_BYTES + 4 * received + 4096
}

/// A valid frame from fuzz inputs: dense or int8, each with or without a
/// trailer (a read's versions; a push's energies, which an int8 frame
/// carries too).
fn frame_from(keys: &[u64], words: &[u32], versioned: bool, int8: bool) -> WireFrame {
    let payload: Vec<f32> = words
        .iter()
        // Keep payload words comparable with `==`: no NaNs.
        .map(|&w| f32::from_bits(w & 0x7F7F_FFFF))
        .collect();
    // The trailing two thirds of the keys carry a trailer word.
    let versions = if versioned {
        keys[keys.len() / 3..]
            .iter()
            .map(|&k| (k >> 7) as u32)
            .collect()
    } else {
        Vec::new()
    };
    if int8 && !payload.is_empty() {
        let mut encoded = Vec::new();
        let mut idx = Vec::new();
        encode_row(Codec::Int8, &payload, &mut encoded, &mut idx);
        return WireFrame::seal_encoded_versioned(
            keys.to_vec(),
            versions,
            Vec::new(),
            encoded,
            Codec::Int8,
        );
    }
    WireFrame::seal_versioned(keys.to_vec(), versions, payload)
}

fn encode(op: u8, frame: &WireFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, op, frame).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: an error or a frame, never a panic, and never more
    /// memory than the bytes that actually arrived justify.
    #[test]
    fn arbitrary_bytes_never_panic_or_over_allocate(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let (out, peak) = decode_measured(&bytes);
        prop_assert!(peak <= allocation_cap(bytes.len()), "held {peak} for {} bytes", bytes.len());
        if let Ok(msg) = out {
            let f = &msg.frame;
            prop_assert!(f.versions.len() <= f.keys.len());
            prop_assert!(f.keys.len() * 8 + f.versions.len() * 4 + f.payload.len() * 4
                + f.encoded.len() <= bytes.len());
        }
    }

    /// A hostile length prefix (anything up to the 1 GiB cap) over a short
    /// stream is a torn message that cost at most the eager reservation.
    #[test]
    fn a_lying_length_prefix_is_not_believed(
        declared in 22u32..(1 << 30),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(declared as usize > tail.len());
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let (out, peak) = decode_measured(&bytes);
        prop_assert_eq!(out.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        prop_assert!(peak <= allocation_cap(bytes.len()), "held {peak}");
    }

    /// Valid frames of every kind round-trip; the same bytes with one
    /// mutation (a flipped bit, a cut, a spliced-in byte) decode to an
    /// error or to a frame that fails verification — unless the mutation
    /// left the message's own bytes as they were (a byte spliced into a run
    /// of itself) or hit the op byte, which the seal does not cover.
    #[test]
    fn valid_frames_round_trip_and_mutations_are_caught(
        keys in prop::collection::vec(any::<u64>(), 0..40),
        words in prop::collection::vec(any::<u32>(), 0..200),
        versioned in any::<bool>(),
        int8 in any::<bool>(),
        op in any::<u8>(),
        mutation in 0u8..3,
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let frame = frame_from(&keys, &words, versioned, int8);
        let bytes = encode(op, &frame);
        let (out, peak) = decode_measured(&bytes);
        let msg = out.unwrap();
        prop_assert_eq!(msg.op, op);
        prop_assert_eq!(&msg.frame.keys, &frame.keys);
        prop_assert_eq!(&msg.frame.versions, &frame.versions);
        prop_assert_eq!(&msg.frame.encoded, &frame.encoded);
        if frame.codec() == Codec::Dense {
            prop_assert_eq!(&msg.frame.payload, &frame.payload);
        }
        prop_assert!(msg.frame.verify());
        prop_assert_eq!(msg.frame.wire_bytes(), frame.wire_bytes());
        prop_assert!(peak <= allocation_cap(bytes.len()));

        let mut bad = bytes.clone();
        let at = at % bad.len();
        match mutation {
            0 => bad[at] ^= 1 << bit,
            1 => bad.truncate(at),
            _ => bad.insert(at, bit),
        }
        let (out, peak) = decode_measured(&bad);
        prop_assert!(peak <= allocation_cap(bad.len()), "held {peak} for {} bytes", bad.len());
        if let Ok(m) = out {
            let op_byte_only = mutation == 0 && at == 4;
            let invisible = bad.len() >= bytes.len() && bad[..bytes.len()] == bytes[..];
            prop_assert!(
                !m.frame.verify() || op_byte_only || invisible,
                "mutation {mutation} at {at} decoded to a frame that verifies"
            );
        }
    }

    /// The rule the pull-if-newer op adds: a frame never has more versions
    /// than keys. A larger count is refused before anything is built from
    /// it, even when the length prefix is made to agree.
    #[test]
    fn a_version_count_above_the_key_count_is_rejected(
        keys in prop::collection::vec(any::<u64>(), 0..40),
        excess in 1u32..40,
    ) {
        let frame = frame_from(&keys, &[], true, false);
        let mut bytes = encode(5, &frame);
        // Rewrite the version section to `claimed` words and make the count
        // and the prefix say so: only the count rule is left to fire.
        let claimed = keys.len() as u32 + excess;
        let versions_at = 4 + 22 + keys.len() * 8;
        bytes.truncate(versions_at);
        bytes.extend(std::iter::repeat_n(0xA5u8, claimed as usize * 4));
        bytes[4 + 10..4 + 14].copy_from_slice(&claimed.to_le_bytes());
        let body = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&body.to_le_bytes());
        let (out, _) = decode_measured(&bytes);
        let err = out.unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("more versions than keys"), "{}", err);
    }
}

/// A frame larger than the eager reservation still decodes, and holds a
/// small multiple of its size while doing so.
#[test]
fn a_frame_past_the_eager_reservation_decodes_within_the_cap() {
    let n = EAGER_BODY_BYTES / 4 + 10_000;
    let frame = WireFrame::seal((0..64).collect(), vec![0.25; n]);
    let bytes = encode(0, &frame);
    assert!(bytes.len() > EAGER_BODY_BYTES);
    let (out, peak) = decode_measured(&bytes);
    assert_eq!(out.unwrap().frame, frame);
    assert!(
        peak <= allocation_cap(bytes.len()),
        "held {peak} for {}",
        bytes.len()
    );
}
