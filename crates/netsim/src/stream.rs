//! Length-prefixed [`WireFrame`] framing for byte streams.
//!
//! The simulated backend hands frames between client and store as Rust
//! values; the multi-process socket backend needs the same frames as
//! bytes on a TCP or Unix-domain stream. One message is:
//!
//! ```text
//! [len: u32 le]                        // byte length of everything below
//! [op: u8] [codec tag: u8]             // operation + payload codec
//! [checksum: u32 le]                   // the sender's frame seal, as sent
//! [nkeys: u32 le] [nversions: u32 le] [npayload: u32 le] [nenc: u32 le]
//! [keys: nkeys × u64 le]
//! [versions: nversions × u32 le]       // the trailer, at most one word per key:
//!                                      // versions on a read, energies on a push
//! [payload: npayload × f32 le]         // dense frames
//! [encoded: nenc bytes]                // compressed frames
//! ```
//!
//! The checksum travels *as sealed by the sender* and the decoder keeps it
//! verbatim ([`WireFrame::from_wire`]), so `WireFrame::verify` remains an
//! end-to-end integrity check across the socket — the length prefix and
//! counts are framing, not trust: the prefix is bounded by
//! [`MAX_MESSAGE_BYTES`], the body buffer grows only as bytes actually
//! arrive (a prefix that promises more than the peer sends costs at most
//! [`EAGER_BODY_BYTES`]), every count is checked against the bytes received
//! before anything is allocated for it, and a frame never carries more
//! versions than keys.

use crate::compress::Codec;
use crate::frame::WireFrame;
use std::io::{self, Read, Write};

/// Hard ceiling on one message's body, so a garbled length prefix cannot
/// make the reader allocate unbounded memory. 1 GiB comfortably covers any
/// shard frame this codebase produces.
pub const MAX_MESSAGE_BYTES: usize = 1 << 30;

/// What the reader reserves for a body up front. Bodies up to this size
/// (every frame a training run sends is one) are read into one exact
/// allocation; a larger declared length is only believed as its bytes
/// arrive.
pub const EAGER_BODY_BYTES: usize = 1 << 20;

/// Fixed header bytes after the length prefix: op, codec tag, checksum,
/// four counts.
const HEADER_BYTES: usize = 1 + 1 + 4 + 4 * 4;

/// One decoded stream message: the transport-level operation byte plus the
/// reassembled frame (carrying the sender's checksum).
#[derive(Debug)]
pub struct StreamMessage {
    /// Transport operation (pull/push/write/ack — the PS layer defines the
    /// values; this module just carries the byte).
    pub op: u8,
    /// The reassembled frame.
    pub frame: WireFrame,
}

/// Serialize one message from raw frame parts. Dense messages ship
/// `payload`; compressed messages ship `encoded` (pass the parts exactly
/// as [`WireFrame::wire_bytes`] accounts them — callers decide which side
/// is empty). `versions` is the frame's trailer, at most one word per key.
/// `checksum` must be the sender's seal over those parts.
#[allow(clippy::too_many_arguments)]
pub fn write_message<W: Write>(
    w: &mut W,
    op: u8,
    keys: &[u64],
    versions: &[u32],
    payload: &[f32],
    encoded: &[u8],
    codec: Codec,
    checksum: u32,
) -> io::Result<()> {
    let body =
        HEADER_BYTES + keys.len() * 8 + versions.len() * 4 + payload.len() * 4 + encoded.len();
    if body > MAX_MESSAGE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "stream message exceeds MAX_MESSAGE_BYTES",
        ));
    }
    let mut buf = Vec::with_capacity(4 + body);
    buf.extend_from_slice(&(body as u32).to_le_bytes());
    buf.push(op);
    buf.push(codec.tag());
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(versions.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
    for k in keys {
        buf.extend_from_slice(&k.to_le_bytes());
    }
    for v in versions {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for v in payload {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(encoded);
    w.write_all(&buf)?;
    w.flush()
}

/// Serialize a whole frame: payload travels for dense frames, encoded
/// bytes for compressed ones — mirroring what `wire_bytes` meters.
pub fn write_frame<W: Write>(w: &mut W, op: u8, frame: &WireFrame) -> io::Result<()> {
    if frame.codec() == Codec::Dense {
        write_message(
            w,
            op,
            &frame.keys,
            &frame.versions,
            &frame.payload,
            &[],
            Codec::Dense,
            frame.checksum(),
        )
    } else {
        write_message(
            w,
            op,
            &frame.keys,
            &frame.versions,
            &[],
            &frame.encoded,
            frame.codec(),
            frame.checksum(),
        )
    }
}

/// Read one message off the stream. Errors:
///
/// * `UnexpectedEof` — the peer closed mid-message (or, at a message
///   boundary, closed cleanly; callers distinguish by whether any prior
///   byte of this message arrived — see [`read_message_or_eof`]);
/// * `InvalidData` — the framing is inconsistent (length prefix over the
///   cap, counts not adding up to the prefix, more versions than keys,
///   unknown codec tag).
pub fn read_message<R: Read>(r: &mut R) -> io::Result<StreamMessage> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    decode_body(r, u32::from_le_bytes(len) as usize)
}

/// [`read_message`], mapping a clean close *at a message boundary* to
/// `Ok(None)` — the reader's EOF, as opposed to a torn message, which
/// stays an `UnexpectedEof` error.
pub fn read_message_or_eof<R: Read>(r: &mut R) -> io::Result<Option<StreamMessage>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-message",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    decode_body(r, u32::from_le_bytes(len) as usize).map(Some)
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn u32_at(body: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(body[off..off + 4].try_into().expect("4-byte slice"))
}

fn decode_body<R: Read>(r: &mut R, body_len: usize) -> io::Result<StreamMessage> {
    if !(HEADER_BYTES..=MAX_MESSAGE_BYTES).contains(&body_len) {
        return Err(invalid("stream message length out of bounds"));
    }
    // The prefix is a claim, not a fact: reserve at most EAGER_BODY_BYTES
    // for it and let the buffer grow with what the peer really sends.
    let mut body = Vec::with_capacity(body_len.min(EAGER_BODY_BYTES));
    r.take(body_len as u64).read_to_end(&mut body)?;
    if body.len() != body_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed mid-message",
        ));
    }
    let op = body[0];
    let codec = Codec::from_tag(body[1]).ok_or_else(|| invalid("unknown codec tag on stream"))?;
    let checksum = u32_at(&body, 2);
    let [nkeys, nversions, npayload, nenc] = [6, 10, 14, 18].map(|off| u32_at(&body, off));
    if nversions > nkeys {
        return Err(invalid("stream message has more versions than keys"));
    }
    // Four u32 counts times at most 8 cannot overflow a u64; the sum must
    // match the bytes actually received, which bounds every count below.
    let expected = HEADER_BYTES as u64
        + u64::from(nkeys) * 8
        + u64::from(nversions) * 4
        + u64::from(npayload) * 4
        + u64::from(nenc);
    if expected != body_len as u64 {
        return Err(invalid(
            "stream message counts disagree with its length prefix",
        ));
    }
    let [nkeys, nversions, npayload] = [nkeys, nversions, npayload].map(|n| n as usize);
    let (keys_bytes, rest) = body[HEADER_BYTES..].split_at(nkeys * 8);
    let (version_bytes, rest) = rest.split_at(nversions * 4);
    let (payload_bytes, encoded) = rest.split_at(npayload * 4);
    let keys = keys_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let versions = version_bytes
        .chunks_exact(4)
        .map(|c| u32_at(c, 0))
        .collect();
    let payload = payload_bytes
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32_at(c, 0)))
        .collect();
    Ok(StreamMessage {
        op,
        frame: WireFrame::from_wire(keys, versions, payload, encoded.to_vec(), codec, checksum),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::encode_row;
    use std::io::Cursor;

    #[test]
    fn dense_frame_round_trips() {
        let frame = WireFrame::seal(vec![3, 9, 400_000], vec![0.5, -1.25, 3.0, 1e-9]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &frame).unwrap();
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(msg.op, 7);
        assert_eq!(msg.frame, frame);
        assert!(msg.frame.verify());
        assert_eq!(msg.frame.wire_bytes(), frame.wire_bytes());
    }

    #[test]
    fn compressed_frame_round_trips_without_its_payload() {
        let row = [0.1f32, -2.5, 1e-3, 42.0, 0.0, 1.5, -0.25, 3.25];
        let mut encoded = Vec::new();
        let mut idx = Vec::new();
        encode_row(Codec::Int8, &row, &mut encoded, &mut idx);
        let frame = WireFrame::seal_encoded_versioned(
            vec![11],
            Vec::new(),
            row.to_vec(),
            encoded,
            Codec::Int8,
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &frame).unwrap();
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert!(msg.frame.payload.is_empty(), "staged rows never transit");
        assert_eq!(msg.frame.encoded, frame.encoded);
        assert_eq!(msg.frame.codec(), Codec::Int8);
        assert!(msg.frame.verify(), "encoded digest ignores the payload");
        assert_eq!(msg.frame.wire_bytes(), frame.wire_bytes());
    }

    #[test]
    fn corruption_in_transit_fails_verification_not_decoding() {
        let frame = WireFrame::seal(vec![1, 2], vec![0.5, 0.25]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, &frame).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40; // flip a payload bit
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert!(!msg.frame.verify(), "damaged bytes must not verify");
    }

    #[test]
    fn torn_stream_is_unexpected_eof() {
        let frame = WireFrame::seal(vec![1, 2, 3], vec![1.0; 6]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, &frame).unwrap();
        buf.truncate(buf.len() / 2);
        let err = read_message(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_message_or_eof(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn clean_close_at_boundary_is_none() {
        assert!(read_message_or_eof(&mut Cursor::new(&[] as &[u8]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        let err = read_message(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn inconsistent_counts_are_rejected() {
        let frame = WireFrame::seal(vec![1], vec![1.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, &frame).unwrap();
        // Claim one more key than the prefix can hold.
        buf[4 + 6] = buf[4 + 6].wrapping_add(1);
        let err = read_message(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn versioned_frame_round_trips_and_a_flipped_version_fails_verification() {
        let frame = WireFrame::seal_versioned(vec![4, 8, 15], vec![16, 23, 42], vec![0.5; 6]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 5, &frame).unwrap();
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(msg.frame, frame);
        assert!(msg.frame.verify());
        assert_eq!(msg.frame.wire_bytes(), 3 * 12 + 6 * 4);
        // The first version word sits right after the header and the keys.
        buf[4 + HEADER_BYTES + 3 * 8] ^= 0x04;
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(msg.frame.versions, [20, 23, 42]);
        assert!(!msg.frame.verify(), "the digest covers the versions");
    }

    #[test]
    fn compressed_push_frame_round_trips_with_its_energy_trailer() {
        let row = [0.1f32, -2.5, 1e-3, 42.0, 0.0, 1.5, -0.25, 3.25];
        let mut encoded = Vec::new();
        let mut idx = Vec::new();
        for _ in 0..2 {
            encode_row(Codec::Int8, &row, &mut encoded, &mut idx);
        }
        let frame = WireFrame::seal_encoded_versioned(
            vec![11, 12],
            vec![2.5f32.to_bits()],
            Vec::new(),
            encoded,
            Codec::Int8,
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &frame).unwrap();
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(msg.frame, frame);
        assert!(msg.frame.verify());
        assert_eq!(msg.frame.wire_bytes(), frame.wire_bytes());
        // The energy word sits right after the header and the keys.
        buf[4 + HEADER_BYTES + 2 * 8 + 3] ^= 0x40;
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert_ne!(msg.frame.versions, frame.versions);
        assert!(!msg.frame.verify(), "the encoded digest covers the trailer");
    }

    #[test]
    fn more_versions_than_keys_are_rejected() {
        let frame = WireFrame::seal_versioned(vec![1, 2], vec![7, 9], vec![]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 5, &frame).unwrap();
        // Claim three versions, with the word and a prefix to match, so
        // only that rule can fire.
        buf[4 + 10] = 3;
        buf.extend_from_slice(&11u32.to_le_bytes());
        let body = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&body.to_le_bytes());
        let err = read_message(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("more versions than keys"), "{err}");
        // Fewer is a frame whose leading keys are plain pulls.
        let mixed = WireFrame::seal_versioned(vec![1, 2, 3], vec![9], vec![]);
        let mut buf = Vec::new();
        write_frame(&mut buf, 5, &mixed).unwrap();
        assert_eq!(read_message(&mut Cursor::new(&buf)).unwrap().frame, mixed);
    }

    #[test]
    fn a_prefix_that_promises_more_than_arrives_is_a_torn_message() {
        // 512 MiB declared, 40 bytes sent: the reader must not take the
        // prefix at its word (the allocation side of this is measured in
        // tests/stream_fuzz.rs).
        let mut buf = Vec::new();
        buf.extend_from_slice(&(512u32 << 20).to_le_bytes());
        buf.extend_from_slice(&[0u8; 40]);
        let err = read_message(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn key_only_request_round_trips() {
        let keys = vec![5u64, 17, 9000];
        let checksum = crate::frame::frame_digest(&keys, &[]);
        let mut buf = Vec::new();
        write_message(&mut buf, 0, &keys, &[], &[], &[], Codec::Dense, checksum).unwrap();
        let msg = read_message(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(msg.frame.keys, keys);
        assert!(msg.frame.payload.is_empty());
        assert!(msg.frame.verify(), "key-only dense digest covers the keys");
    }
}
