//! The framed-record codec: one frame reader and writer, one set of
//! payload primitives, one [`GraphDelta`] encoding and the CRC-32 that
//! guards them.
//!
//! # Frame layout
//!
//! ```text
//! ┌──────┬─────┬──────────┬───────────────┬───────────┐
//! │ "SL" │ tag │ len: u32 │ payload (len) │ crc32: u32│
//! │ 2 B  │ 1 B │ LE       │               │ LE        │
//! └──────┴─────┴──────────┴───────────────┴───────────┘
//! ```
//!
//! The CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) covers `tag`,
//! `len` and the payload, so a flipped bit anywhere after the magic is
//! detected. `len` is capped at [`MAX_FRAME_LEN`]; a larger prefix is
//! rejected *before* any allocation, and [`read_frame`] reads payload
//! bytes in bounded chunks, so even an in-cap lying prefix on a
//! truncated stream never balloons memory. Every malformed input maps to
//! a typed [`WireError`]: the codec never panics.
//!
//! The frame has three users, all of them built on the `put_*`/`get_*`
//! primitives below:
//!
//! * the durability **commitlog** (`snaple-store`'s `log`): one `'d'`
//!   frame per applied delta, payload `seq: u64` then the delta;
//! * the shard **wire** protocol (`snaple-core`'s `shard::wire`): one
//!   frame per router ↔ shard message;
//! * the **delta payload** both of them carry ([`encode_delta`],
//!   [`decode_delta`]), so a delta logged to disk is byte-identical to
//!   the same delta sent to a shard and one forged-bytes corpus covers
//!   both.
//!
//! # Delta payload
//!
//! A delta is its operation sequence in arrival order (last-wins dedup
//! is order sensitive, see [`GraphDelta::ops`]):
//!
//! ```text
//! ┌────────────┬───────────────────────────────────────────┐
//! │ count: u32 │ count × (u: u32, v: u32, w: f32, kind: u8)│
//! │ LE         │ 13 bytes each, LE, w as to_bits, kind 0/1 │
//! └────────────┴───────────────────────────────────────────┘
//! ```
//!
//! Weights travel as raw `f32` bits (`to_bits`/`from_bits`), so a delta
//! that crosses the wire or survives a restart resolves bit-identically
//! to one that never left the process. `kind` is strictly `0` (remove)
//! or `1` (insert), and a removal always carries weight bits `0`
//! (what [`GraphDelta::remove`] queues); anything else is a decode
//! error, so every accepted payload re-encodes to exactly its bytes.
//! The decoder guards the count against the remaining input *before*
//! allocating, so a lying count cannot drive an over-allocation.

use std::error::Error as StdError;
use std::fmt;
use std::io::Read;

use crate::GraphDelta;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"SL";

/// Upper bound on a frame's payload length (1 GiB). A length prefix
/// beyond this is rejected as [`WireError::FrameTooLarge`] before any
/// allocation happens: the cap is what makes a corrupt or hostile
/// length prefix harmless.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Payloads are read in chunks of this size, so a lying in-cap length
/// prefix on a short stream errors out after at most one chunk of
/// over-allocation instead of reserving the full advertised length.
const READ_CHUNK: usize = 64 * 1024;

/// Serialized size of one delta operation: `u32 + u32 + f32 + u8`.
pub const OP_BYTES: usize = 13;

/// Everything that can go wrong reading or writing a frame. Every
/// variant is a typed, non-panicking error; transport-level variants
/// ([`WireError::Io`], [`WireError::Closed`], [`WireError::Truncated`],
/// [`WireError::BadChecksum`]) mean the stream is unusable from here on,
/// while [`WireError::UnknownTag`] and [`WireError::Malformed`] indicate
/// a protocol bug, version skew or forged bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended cleanly (EOF on a frame boundary).
    Closed,
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The checksum did not match: the frame was corrupted.
    BadChecksum {
        /// CRC-32 carried by the frame.
        expected: u32,
        /// CRC-32 computed over the received bytes.
        computed: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The advertised payload length.
        len: u64,
    },
    /// The frame tag is not one its reader knows.
    UnknownTag(u8),
    /// The payload did not decode as the record its tag promises; names
    /// the field that was malformed or missing.
    Malformed(&'static str),
    /// An underlying I/O error (broken pipe, dead child process, ...).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "stream truncated mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadChecksum { expected, computed } => write!(
                f,
                "frame checksum mismatch: frame says {expected:#010x}, computed {computed:#010x}"
            ),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(msg) => write!(f, "wire i/o error: {msg}"),
        }
    }
}

impl StdError for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c; // snaple-lint: allow(index) — const-eval loop, i < 256 = table.len()
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 / zlib) of `data`, resumable via `seed` (pass the
/// previous return value to continue over a split buffer; start at 0).
pub fn crc32(seed: u32, data: &[u8]) -> u32 {
    let mut c = !seed;
    for &b in data {
        // snaple-lint: allow(index) — the index is masked to 8 bits; CRC_TABLE has 256 entries
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Encodes one complete frame into a byte vector: magic, tag, length,
/// payload, checksum.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or(WireError::FrameTooLarge {
            len: payload.len() as u64,
        })?;
    let [l0, l1, l2, l3] = len.to_le_bytes();
    let head = [tag, l0, l1, l2, l3];
    let mut frame = Vec::with_capacity(MAGIC.len() + head.len() + payload.len() + 4);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&head);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(crc32(0, &head), payload).to_le_bytes());
    Ok(frame)
}

/// Reads one frame, returning its tag and filling `payload` (cleared
/// first) with the verified payload bytes. Reading from a `&[u8]`
/// advances the slice past the frame.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF before any frame byte;
/// [`WireError::Truncated`] on EOF inside a frame; [`WireError::BadMagic`],
/// [`WireError::FrameTooLarge`], [`WireError::BadChecksum`] on the
/// corresponding corruptions; [`WireError::Io`] for transport failures.
pub fn read_frame<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<u8, WireError> {
    payload.clear();
    // Magic: distinguish clean EOF (no bytes at all) from truncation.
    let mut magic = [0u8; 2];
    let mut got = 0;
    while got < 2 {
        // snaple-lint: allow(index) — loop guard keeps got < 2 = magic.len()
        match r.read(&mut magic[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let [tag, l0, l1, l2, l3] = head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    // Chunked payload read: never reserve more than one chunk beyond the
    // bytes actually received, so a lying length prefix cannot force a
    // huge allocation on a short stream.
    let mut remaining = len as usize;
    let mut chunk = [0u8; READ_CHUNK];
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        // snaple-lint: allow(index) — take = min(remaining, READ_CHUNK) never exceeds chunk.len()
        r.read_exact(&mut chunk[..take])?;
        // snaple-lint: allow(index) — same bound as the read_exact above
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let computed = crc32(crc32(0, &head), payload);
    if expected != computed {
        return Err(WireError::BadChecksum { expected, computed });
    }
    Ok(tag)
}

// ---------------------------------------------------------------------------
// Payload primitives: little-endian, floats as raw bits. Every `get_*`
// names the field it reads, which a short input reports as `Malformed`.
// ---------------------------------------------------------------------------

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Appends an `f32` as its raw bits.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}
/// Appends an `f64` as its raw bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
/// Appends a `u32` byte length, then the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
/// Appends `0`, or `1` then the value.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}
/// Appends a `u64` byte length, then the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Reads one byte.
pub fn get_u8(input: &mut &[u8], what: &'static str) -> Result<u8, WireError> {
    let (&b, rest) = input.split_first().ok_or(WireError::Malformed(what))?;
    *input = rest;
    Ok(b)
}
/// Reads a little-endian `u32`.
pub fn get_u32(input: &mut &[u8], what: &'static str) -> Result<u32, WireError> {
    let (head, rest) = input
        .split_first_chunk::<4>()
        .ok_or(WireError::Malformed(what))?;
    *input = rest;
    Ok(u32::from_le_bytes(*head))
}
/// Reads a little-endian `u64`.
pub fn get_u64(input: &mut &[u8], what: &'static str) -> Result<u64, WireError> {
    let (head, rest) = input
        .split_first_chunk::<8>()
        .ok_or(WireError::Malformed(what))?;
    *input = rest;
    Ok(u64::from_le_bytes(*head))
}
/// Reads an `f32` from its raw bits.
pub fn get_f32(input: &mut &[u8], what: &'static str) -> Result<f32, WireError> {
    Ok(f32::from_bits(get_u32(input, what)?))
}
/// Reads an `f64` from its raw bits.
pub fn get_f64(input: &mut &[u8], what: &'static str) -> Result<f64, WireError> {
    Ok(f64::from_bits(get_u64(input, what)?))
}
/// Reads a [`put_str`] string; the length is checked against the input
/// before copying.
pub fn get_str(input: &mut &[u8], what: &'static str) -> Result<String, WireError> {
    let len = get_u32(input, what)? as usize;
    if input.len() < len {
        return Err(WireError::Malformed(what));
    }
    let (s, rest) = input.split_at(len);
    *input = rest;
    String::from_utf8(s.to_vec()).map_err(|_| WireError::Malformed(what))
}
/// Reads a [`put_opt_u64`] value; a flag other than `0`/`1` is malformed.
pub fn get_opt_u64(input: &mut &[u8], what: &'static str) -> Result<Option<u64>, WireError> {
    match get_u8(input, what)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(input, what)?)),
        _ => Err(WireError::Malformed(what)),
    }
}
/// Reads a [`put_bytes`] blob; the length is checked against the input
/// before copying.
pub fn get_bytes(input: &mut &[u8], what: &'static str) -> Result<Vec<u8>, WireError> {
    let len = get_u64(input, what)? as usize;
    if input.len() < len {
        return Err(WireError::Malformed(what));
    }
    let (b, rest) = input.split_at(len);
    *input = rest;
    Ok(b.to_vec())
}

/// Reads a `u32` element count and guards it against the remaining
/// input: each element needs at least `min_elem_bytes`, so a lying count
/// is rejected before it can drive an allocation.
pub fn get_count(
    input: &mut &[u8],
    min_elem_bytes: usize,
    what: &'static str,
) -> Result<usize, WireError> {
    let n = get_u32(input, what)? as usize;
    if n.saturating_mul(min_elem_bytes) > input.len() {
        return Err(WireError::Malformed(what));
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// The delta payload.
// ---------------------------------------------------------------------------

/// Appends `delta`'s encoded operation sequence (count prefix +
/// [`OP_BYTES`] per op) to `out`.
pub fn encode_delta(out: &mut Vec<u8>, delta: &GraphDelta) {
    put_u32(out, delta.len() as u32);
    for (u, v, w, insert) in delta.ops() {
        put_u32(out, u);
        put_u32(out, v);
        put_f32(out, w);
        put_u8(out, insert as u8);
    }
}

/// Decodes an operation sequence into a [`GraphDelta`], advancing
/// `input` past it. The rebuilt delta holds the same operations in the
/// same arrival order. Trailing bytes after the sequence are left in
/// `input`: callers check that their payload ends there.
///
/// # Errors
///
/// [`WireError::Malformed`] on truncated input, an over-long count, a
/// `kind` byte outside `{0, 1}`, or a removal whose weight bits are not
/// `0`.
pub fn decode_delta(input: &mut &[u8]) -> Result<GraphDelta, WireError> {
    let n = get_count(input, OP_BYTES, "delta op count")?;
    let mut delta = GraphDelta::with_capacity(n);
    for _ in 0..n {
        let u = get_u32(input, "delta u")?;
        let v = get_u32(input, "delta v")?;
        let w = get_f32(input, "delta w")?;
        match (get_u8(input, "delta kind")?, w.to_bits()) {
            (0, 0) => delta.remove(u, v),
            (0, _) => return Err(WireError::Malformed("delta removal weight")),
            (1, _) => delta.insert_weighted(u, v, w),
            _ => return Err(WireError::Malformed("delta kind")),
        };
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(delta: &GraphDelta) -> Vec<(u32, u32, f32, bool)> {
        delta.ops().collect()
    }

    fn encoded(delta: &GraphDelta) -> Vec<u8> {
        let mut out = Vec::new();
        encode_delta(&mut out, delta);
        out
    }

    #[test]
    fn crc32_check_vector() {
        // The standard CRC-32 (IEEE) check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
    }

    #[test]
    fn crc32_resumes_across_splits() {
        let whole = crc32(0, b"123456789");
        let split = crc32(crc32(0, b"1234"), b"56789");
        assert_eq!(whole, split);
    }

    #[test]
    fn golden_op_bytes() {
        // Pins the exact serialized layout: count prefix then 13 bytes
        // per op, all LE, weight as raw f32 bits, kind 0/1.
        let mut delta = GraphDelta::new();
        delta.insert_weighted(1, 2, 1.5).remove(3, 4);
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            2, 0, 0, 0,                   // count
            1, 0, 0, 0,   2, 0, 0, 0,     // u, v
            0x00, 0x00, 0xC0, 0x3F,       // 1.5f32.to_bits()
            1,                            // insert
            3, 0, 0, 0,   4, 0, 0, 0,     // u, v
            0, 0, 0, 0,                   // 0.0
            0,                            // remove
        ];
        assert_eq!(encoded(&delta), expected);
    }

    #[test]
    fn ops_and_delta_encodings_agree() {
        // The delta payload is nothing but the shared primitives over
        // `GraphDelta::ops`: a count, then (u, v, w, kind) per op.
        let mut delta = GraphDelta::new();
        delta
            .insert(7, 9)
            .insert_weighted(1, 2, 0.25)
            .remove(7, 9)
            .insert(0, 3);
        let mut by_hand = Vec::new();
        put_u32(&mut by_hand, 4);
        for (u, v, w, insert) in delta.ops() {
            put_u32(&mut by_hand, u);
            put_u32(&mut by_hand, v);
            put_f32(&mut by_hand, w);
            put_u8(&mut by_hand, insert as u8);
        }
        assert_eq!(encoded(&delta), by_hand);
    }

    #[test]
    fn round_trips_preserve_arrival_order() {
        let mut delta = GraphDelta::new();
        delta
            .insert(5, 6)
            .remove(5, 6)
            .insert_weighted(6, 5, -2.5)
            .insert(5, 6);
        let bytes = encoded(&delta);
        let mut input = bytes.as_slice();
        let decoded = decode_delta(&mut input).expect("decode");
        assert!(input.is_empty());
        assert_eq!(ops(&decoded), ops(&delta));
    }

    #[test]
    fn nan_weights_round_trip_bit_exact() {
        let weird = f32::from_bits(0x7FC0_1234); // a payload-carrying NaN
        let mut delta = GraphDelta::new();
        delta.insert_weighted(1, 2, weird);
        let decoded = decode_delta(&mut encoded(&delta).as_slice()).expect("decode");
        assert_eq!(ops(&decoded)[0].2.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_inputs_are_typed_errors() {
        let mut delta = GraphDelta::new();
        delta.insert(1, 2).insert(3, 4);
        let bytes = encoded(&delta);
        for cut in 0..bytes.len() {
            let mut input = &bytes[..cut];
            let err = decode_delta(&mut input).expect_err("truncation must fail");
            assert!(matches!(err, WireError::Malformed(_)), "cut at {cut}");
        }
    }

    #[test]
    fn lying_count_is_rejected_before_allocation() {
        // Count claims u32::MAX ops with no bytes behind it.
        let bytes = u32::MAX.to_le_bytes();
        let err = decode_delta(&mut bytes.as_slice()).expect_err("must fail");
        assert_eq!(err, WireError::Malformed("delta op count"));
    }

    #[test]
    fn bad_kind_byte_is_rejected() {
        let mut delta = GraphDelta::new();
        delta.insert(1, 2);
        let mut bytes = encoded(&delta);
        *bytes.last_mut().expect("non-empty") = 2;
        let err = decode_delta(&mut bytes.as_slice()).expect_err("must fail");
        assert_eq!(err, WireError::Malformed("delta kind"));

        // A removal carries weight bits 0; anything else has no
        // canonical encoding and is refused.
        let mut delta = GraphDelta::new();
        delta.remove(1, 2);
        let mut bytes = encoded(&delta);
        bytes[15] = 0x80; // weight -0.0: nonzero bits on a removal
        let err = decode_delta(&mut bytes.as_slice()).expect_err("must fail");
        assert_eq!(err, WireError::Malformed("delta removal weight"));
    }

    #[test]
    fn fuzz_decode_never_panics_and_round_trips_survivors() {
        // Deterministic structured fuzz: hash-derived byte soup plus
        // mutated valid encodings. Every outcome must be a clean decode
        // or a typed error, and whatever decodes must re-encode to the
        // bytes consumed.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..500 {
            let len = (next() % 64) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            if round % 3 == 0 {
                // Seed with a valid encoding, then flip one bit.
                let mut delta = GraphDelta::new();
                delta
                    .insert((next() & 0xFFFF) as u32, (next() & 0xFFFF) as u32)
                    .remove((next() & 0xFFFF) as u32, (next() & 0xFFFF) as u32);
                bytes = encoded(&delta);
                let pos = (next() as usize) % bytes.len();
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= 1 << (next() % 8);
                }
            }
            let mut input = bytes.as_slice();
            if let Ok(delta) = decode_delta(&mut input) {
                let consumed = bytes.len() - input.len();
                assert_eq!(encoded(&delta).as_slice(), &bytes[..consumed]);
            }
        }
    }

    // -----------------------------------------------------------------
    // Frames.
    // -----------------------------------------------------------------

    #[test]
    fn frames_round_trip() {
        for (tag, payload) in [(1u8, &b""[..]), (7, b"x"), (42, b"hello, shard")] {
            let frame = encode_frame(tag, payload).unwrap();
            let mut out = Vec::new();
            let got = read_frame(&mut frame.as_slice(), &mut out).unwrap();
            assert_eq!(got, tag);
            assert_eq!(out, payload);
        }
    }

    #[test]
    fn clean_eof_is_closed_and_partial_frames_are_truncated() {
        let mut buf = Vec::new();
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }, &mut buf), Err(WireError::Closed));
        let frame = encode_frame(3, b"payload").unwrap();
        // Every strict prefix of a valid frame is either Truncated (cut
        // mid-frame) — never a panic, never a bogus success.
        for cut in 1..frame.len() {
            let err = read_frame(&mut &frame[..cut], &mut buf).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(3, b"payload").unwrap();
        frame[0] = b'X';
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut frame.as_slice(), &mut buf),
            Err(WireError::BadMagic([b'X', b'L']))
        ));
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum() {
        let frame = encode_frame(3, b"some payload bytes").unwrap();
        // Flip one bit in every checksummed position (tag, length,
        // payload): all must be caught.
        for pos in 2..frame.len() - 4 {
            let mut bad = frame.clone();
            bad[pos] ^= 0x01;
            let mut buf = Vec::new();
            let err = read_frame(&mut bad.as_slice(), &mut buf).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::BadChecksum { .. }
                        | WireError::FrameTooLarge { .. }
                        | WireError::Truncated
                ),
                "pos {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        // A hand-built header advertising a 4 GiB payload: rejected on
        // the spot.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(2);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut frame.as_slice(), &mut buf),
            Err(WireError::FrameTooLarge {
                len: u32::MAX as u64
            })
        );
        assert_eq!(buf.capacity(), 0, "no allocation for a rejected frame");
    }

    #[test]
    fn in_cap_lying_length_prefix_stays_bounded() {
        // The header promises 512 MiB but the stream holds 10 bytes: the
        // chunked reader must fail with Truncated after at most one
        // chunk's worth of buffering.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(2);
        frame.extend_from_slice(&(512u32 << 20).to_le_bytes());
        frame.extend_from_slice(&[0u8; 10]);
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut frame.as_slice(), &mut buf),
            Err(WireError::Truncated)
        );
        assert!(
            buf.capacity() <= 4 * READ_CHUNK,
            "buffered {} bytes for a truncated stream",
            buf.capacity()
        );
    }

    // -----------------------------------------------------------------
    // One forged-bytes corpus over both delta-carrying frames.
    // -----------------------------------------------------------------

    /// The commitlog's delta frame tag (`snaple-store`'s
    /// `TAG_DELTA_FRAME`).
    const LOG_TAG: u8 = b'd';
    /// The shard wire's `Delta` request tag.
    const WIRE_TAG: u8 = 3;

    /// A delta-carrying frame as its writers build it: `id: u64` (the
    /// log's seq, the wire's request id) then the delta.
    fn delta_frame(tag: u8, id: u64, delta: &GraphDelta) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, id);
        encode_delta(&mut payload, delta);
        encode_frame(tag, &payload).unwrap()
    }

    /// Decodes one delta-carrying frame from the front of `input` the way
    /// its readers do: the frame, the id, the delta, no trailing bytes.
    fn read_delta_frame(input: &mut &[u8]) -> Result<(u8, u64, GraphDelta), WireError> {
        let mut payload = Vec::new();
        let tag = read_frame(input, &mut payload)?;
        let mut rest = payload.as_slice();
        let id = get_u64(&mut rest, "delta frame id")?;
        let delta = decode_delta(&mut rest)?;
        if !rest.is_empty() {
            return Err(WireError::Malformed("trailing delta frame bytes"));
        }
        Ok((tag, id, delta))
    }

    /// Every outcome is a typed error or an exact round trip: whatever
    /// decodes re-encodes to precisely the bytes it consumed.
    fn assert_error_or_exact(bytes: &[u8], case: &str) -> bool {
        let mut input = bytes;
        match read_delta_frame(&mut input) {
            Ok((tag, id, delta)) => {
                let consumed = bytes.len() - input.len();
                assert_eq!(delta_frame(tag, id, &delta), &bytes[..consumed], "{case}");
                true
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "{case}");
                false
            }
        }
    }

    #[test]
    fn forged_log_and_wire_frames_are_typed_errors_or_exact_round_trips() {
        let mut delta = GraphDelta::new();
        delta
            .insert_weighted(1, 2, 1.5)
            .remove(3, 4)
            .insert(0x0102_0304, 7);
        let frames = [
            delta_frame(LOG_TAG, 9, &delta),
            delta_frame(WIRE_TAG, 0x0102_0304_0506_0708, &delta),
        ];
        for frame in &frames {
            assert!(assert_error_or_exact(frame, "intact frame"));

            // Cut at every byte: every strict prefix is refused.
            for cut in 0..frame.len() {
                let case = format!("cut at {cut}");
                assert!(!assert_error_or_exact(&frame[..cut], &case), "{case}");
            }

            // Flip every bit: the magic check or the CRC catches each.
            for pos in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[pos] ^= 1 << bit;
                    let case = format!("bit {bit} of byte {pos}");
                    assert!(!assert_error_or_exact(&bad, &case), "{case}");
                }
            }

            // Forged payloads under a valid CRC: every bit flip in the
            // payload either fails to decode or is an exact round trip.
            let mut payload = Vec::new();
            read_frame(&mut frame.as_slice(), &mut payload).unwrap();
            for pos in 0..payload.len() {
                for bit in 0..8 {
                    let mut forged = payload.clone();
                    forged[pos] ^= 1 << bit;
                    let bytes = encode_frame(frame[2], &forged).unwrap();
                    assert_error_or_exact(&bytes, &format!("forged bit {bit} of byte {pos}"));
                }
            }

            // Lying lengths: the frame's length prefix, and the delta's
            // op count under a valid CRC.
            let payload_len = payload.len() as u32;
            for len in [
                0,
                1,
                payload_len - 1,
                payload_len + 1,
                MAX_FRAME_LEN,
                MAX_FRAME_LEN + 1,
                u32::MAX,
            ] {
                let mut bad = frame.clone();
                bad[3..7].copy_from_slice(&len.to_le_bytes());
                let case = format!("frame len {len}");
                assert!(!assert_error_or_exact(&bad, &case), "{case}");
            }
            for count in [0, 2, 4, u32::MAX] {
                let mut forged = payload.clone();
                forged[8..12].copy_from_slice(&count.to_le_bytes());
                let bytes = encode_frame(frame[2], &forged).unwrap();
                let case = format!("op count {count}");
                assert!(!assert_error_or_exact(&bytes, &case), "{case}");
            }
        }
    }
}
