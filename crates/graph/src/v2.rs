//! `SNPLG2`: the zero-parse on-disk CSR format in its two flavors, and
//! [`FileCsr`], the lazily loaded file-backed [`GraphStore`] backend over
//! the raw one.
//!
//! # Why a second binary format
//!
//! `SNPLG1` (see [`io`](crate::io)) is one unchecksummed stream that
//! must be read and parsed whole, field by field, before any row can be
//! served — fine at bench scale, fatal at the paper's billion-edge
//! scale, where open cost must stop growing with the graph. `SNPLG2`
//! makes the on-disk layout *be* the in-memory layout: its sections are
//! the [`CsrGraph`] arrays verbatim (little-endian), each with its own
//! checksum and table entry, so
//!
//! * a full load ([`io::read_binary`](crate::io::read_binary)) is a
//!   straight bytes→ints copy per section — `chunks_exact` loops the
//!   compiler vectorizes to memcpy speed, no per-edge branching — plus
//!   O(vertices) offset monotonicity and one O(edges) range and row
//!   order scan; and
//! * [`FileCsr::open`] reads only the fixed header and section table —
//!   **O(1) in the edge count** — and faults each section in on first
//!   touch, so a server can open a 100M-edge graph in microseconds and
//!   pay only for the sections a workload actually walks.
//!
//! Everything stays inside `#![forbid(unsafe_code)]`: "zero-parse" here
//! means no per-edge decode work, not `mmap` pointer casts.
//!
//! # Layout
//!
//! ```text
//! offset  0  magic     "SNPLG2"                         6 B
//!         6  version   u8                                (currently 1)
//!         7  flags     u8                                bit0 weighted, bit1 varint
//!         8  n         u64 LE   vertex count
//!        16  m         u64 LE   edge count
//!        24  sections  u32 LE   section count
//!        28  reserved  u32 LE   (zero)
//!        32  section table: sections × 32 B entries
//!            kind u32 LE | crc32 u32 LE | offset u64 LE |
//!            byte_len u64 LE | elem_count u64 LE
//!         …  section payloads (referenced by absolute offset)
//! ```
//!
//! Raw files (`flags & VARINT == 0`) carry [`SEC_OUT_OFFSETS`],
//! [`SEC_OUT_TARGETS`] and, when weighted, [`SEC_OUT_WEIGHTS`]. Varint
//! files replace the targets section with a delta-varint stream
//! ([`SEC_OUT_TARGETS_VARINT`]) plus a per-block byte index
//! ([`SEC_OUT_BLOCK_INDEX`]). Every section carries its own CRC-32; the
//! header and table are validated structurally (bounds, element counts,
//! duplicate/unknown kinds) before any allocation is sized from them.
//!
//! Files written by older builds also carry the in-adjacency (the
//! `SEC_IN_*` kinds). Those stay known kinds, so such files still open
//! and their table entries are still bounds-checked, but no reader ever
//! reads their bytes: every row is served from the out-sections.
//!
//! # The varint flavor
//!
//! The varint flavor is an on-disk format only: its file is about half
//! the size of the raw one, and it opens by eager decode into an in-RAM
//! [`CsrGraph`] ([`decode_v2`], reached through
//! [`io::read_binary`](crate::io::read_binary) and
//! [`io::open_store`](crate::io::open_store)). [`write_v2_varint`]
//! writes it; `graph convert` back to the raw flavor gives a file
//! [`FileCsr`] can open.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use crate::codec::crc32;
use crate::store::GraphStore;
use crate::{CsrGraph, GraphError, VertexId};

/// The six magic bytes opening every `SNPLG2` file.
pub const MAGIC2: &[u8; 6] = b"SNPLG2";

/// Current format version.
pub const VERSION2: u8 = 1;

/// Flag bit: the graph carries per-edge weights.
pub const FLAG2_WEIGHTED: u8 = 1;

/// Flag bit: adjacency ids are delta-varint compressed
/// (see [`write_v2_varint`]).
pub const FLAG2_VARINT: u8 = 2;

/// Fixed header size; the section table starts here.
pub const HEADER2_LEN: usize = 32;

/// Size of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Section: out-adjacency offsets, `(n+1) × u64 LE`.
pub const SEC_OUT_OFFSETS: u32 = 1;
/// Section: out-adjacency targets, `m × u32 LE`.
pub const SEC_OUT_TARGETS: u32 = 2;
/// Section: out-edge weights, `m × f32 LE` (weighted graphs only).
pub const SEC_OUT_WEIGHTS: u32 = 3;
/// Legacy section (older writers only, never read): in-adjacency
/// offsets, `(n+1) × u64 LE`.
pub const SEC_IN_OFFSETS: u32 = 4;
/// Legacy section (older writers only, never read): in-adjacency
/// sources, `m × u32 LE`.
pub const SEC_IN_SOURCES: u32 = 5;
/// Section: delta-varint out-targets stream (`elem_count = m`).
pub const SEC_OUT_TARGETS_VARINT: u32 = 6;
/// Legacy section (older writers only, never read): delta-varint
/// in-sources stream (`elem_count = m`).
pub const SEC_IN_SOURCES_VARINT: u32 = 7;
/// Section: per-block byte index into the out varint stream,
/// `(blocks+1) × u64 LE`.
pub const SEC_OUT_BLOCK_INDEX: u32 = 8;
/// Legacy section (older writers only, never read): per-block byte
/// index into the in varint stream.
pub const SEC_IN_BLOCK_INDEX: u32 = 9;

/// One entry of the section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section kind (`SEC_*`).
    pub kind: u32,
    /// CRC-32 of the section payload.
    pub crc: u32,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub byte_len: u64,
    /// Logical element count (ids, offsets, weights — or ids encoded,
    /// for varint streams).
    pub elem_count: u64,
}

/// The parsed, structurally validated prelude of a `SNPLG2` file:
/// header fields plus section table. This is everything [`FileCsr::open`]
/// reads — O(sections), independent of the edge count.
#[derive(Clone, Debug)]
pub struct V2Header {
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Whether the graph carries per-edge weights.
    pub weighted: bool,
    /// Whether adjacency ids are delta-varint compressed.
    pub varint: bool,
    /// The section table, in file order.
    pub sections: Vec<Section>,
}

impl V2Header {
    /// The table entry for `kind`, if present.
    pub fn section(&self, kind: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }
}

fn le_u32(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at.checked_add(4)?)?
        .try_into()
        .ok()
        .map(u32::from_le_bytes)
}

fn le_u64(b: &[u8], at: usize) -> Option<u64> {
    b.get(at..at.checked_add(8)?)?
        .try_into()
        .ok()
        .map(u64::from_le_bytes)
}

fn corrupt(msg: impl Into<String>) -> GraphError {
    GraphError::Corrupt(msg.into())
}

/// Parses and structurally validates the header + section table of a
/// `SNPLG2` prelude. `file_len` bounds every section; all arithmetic is
/// wide so hostile offsets cannot overflow the checks.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming the malformed field.
pub fn parse_header(prelude: &[u8], file_len: u64) -> Result<V2Header, GraphError> {
    if prelude.get(..MAGIC2.len()) != Some(MAGIC2.as_slice()) {
        return Err(corrupt("bad magic"));
    }
    let version = *prelude.get(6).ok_or_else(|| corrupt("truncated header"))?;
    if version != VERSION2 {
        return Err(corrupt(format!("unsupported SNPLG2 version {version}")));
    }
    let flags = *prelude.get(7).ok_or_else(|| corrupt("truncated header"))?;
    if flags & !(FLAG2_WEIGHTED | FLAG2_VARINT) != 0 {
        return Err(corrupt(format!("unknown flag bits {flags:#x}")));
    }
    let weighted = flags & FLAG2_WEIGHTED != 0;
    let varint = flags & FLAG2_VARINT != 0;
    let raw_n = le_u64(prelude, 8).ok_or_else(|| corrupt("truncated header"))?;
    let raw_m = le_u64(prelude, 16).ok_or_else(|| corrupt("truncated header"))?;
    let count = le_u32(prelude, 24).ok_or_else(|| corrupt("truncated header"))? as usize;
    let reserved = le_u32(prelude, 28).ok_or_else(|| corrupt("truncated header"))?;
    if reserved != 0 {
        return Err(corrupt("nonzero reserved header field"));
    }
    // Vertex ids are u32; see the identical guard on the SNPLG1 path.
    if raw_n > u32::MAX as u64 + 1 {
        return Err(corrupt(format!(
            "vertex count {raw_n} exceeds the u32 id space"
        )));
    }
    if raw_m > u32::MAX as u64 {
        return Err(corrupt(format!(
            "edge count {raw_m} exceeds the u32 target space"
        )));
    }
    let n = raw_n as usize;
    let m = raw_m as usize;
    // A plausible table must fit the file before we allocate it.
    let table_end = HEADER2_LEN as u128 + count as u128 * SECTION_ENTRY_LEN as u128;
    if table_end > file_len as u128 || count > 64 {
        return Err(corrupt(format!("section table ({count} entries) overruns")));
    }
    // snaple-lint: allow(wire-alloc) — count validated <= 64 (and table fits the file) just above
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER2_LEN + i * SECTION_ENTRY_LEN;
        let kind = le_u32(prelude, at).ok_or_else(|| corrupt("truncated section table"))?;
        let crc = le_u32(prelude, at + 4).ok_or_else(|| corrupt("truncated section table"))?;
        let offset = le_u64(prelude, at + 8).ok_or_else(|| corrupt("truncated section table"))?;
        let byte_len =
            le_u64(prelude, at + 16).ok_or_else(|| corrupt("truncated section table"))?;
        let elem_count =
            le_u64(prelude, at + 24).ok_or_else(|| corrupt("truncated section table"))?;
        if (offset as u128) < table_end || offset as u128 + byte_len as u128 > file_len as u128 {
            return Err(corrupt(format!("section {kind} overruns the file")));
        }
        if sections.iter().any(|s: &Section| s.kind == kind) {
            return Err(corrupt(format!("duplicate section {kind}")));
        }
        let expect_elems = |elems: u64, width: u64| -> Result<(), GraphError> {
            if elem_count != elems || byte_len != elems.saturating_mul(width) {
                Err(corrupt(format!("section {kind} has inconsistent size")))
            } else {
                Ok(())
            }
        };
        match kind {
            SEC_OUT_OFFSETS | SEC_IN_OFFSETS => expect_elems(raw_n + 1, 8)?,
            SEC_OUT_TARGETS | SEC_IN_SOURCES => expect_elems(raw_m, 4)?,
            SEC_OUT_WEIGHTS => expect_elems(raw_m, 4)?,
            SEC_OUT_TARGETS_VARINT | SEC_IN_SOURCES_VARINT => {
                if elem_count != raw_m {
                    return Err(corrupt(format!("section {kind} has inconsistent size")));
                }
            }
            SEC_OUT_BLOCK_INDEX | SEC_IN_BLOCK_INDEX => {
                if byte_len != elem_count.saturating_mul(8) {
                    return Err(corrupt(format!("section {kind} has inconsistent size")));
                }
            }
            other => return Err(corrupt(format!("unknown section kind {other}"))),
        }
        sections.push(Section {
            kind,
            crc,
            offset,
            byte_len,
            elem_count,
        });
    }
    let require = |kind: u32| -> Result<(), GraphError> {
        if sections.iter().any(|s| s.kind == kind) {
            Ok(())
        } else {
            Err(corrupt(format!("missing required section {kind}")))
        }
    };
    require(SEC_OUT_OFFSETS)?;
    if varint {
        require(SEC_OUT_TARGETS_VARINT)?;
        require(SEC_OUT_BLOCK_INDEX)?;
    } else {
        require(SEC_OUT_TARGETS)?;
    }
    if weighted {
        require(SEC_OUT_WEIGHTS)?;
    }
    Ok(V2Header {
        n,
        m,
        weighted,
        varint,
        sections,
    })
}

// ---------------------------------------------------------------------------
// Section byte conversions — the "zero-parse" loops. `chunks_exact`
// over little-endian payloads vectorizes to memcpy speed; validation is
// O(n) offset monotonicity plus one O(m) range scan.
// ---------------------------------------------------------------------------

/// Converts a `u64 LE` offsets payload and validates monotonicity and
/// the final value against `m`.
///
/// # Errors
///
/// [`GraphError::Corrupt`] on a checksum-passing but inconsistent
/// payload.
pub fn decode_offsets(bytes: &[u8], n: usize, m: usize) -> Result<Vec<usize>, GraphError> {
    if bytes.len() != (n + 1) * 8 {
        return Err(corrupt("offsets section size mismatch"));
    }
    let offsets: Vec<usize> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])) as usize)
        .collect();
    let first = offsets.first().copied().unwrap_or(1);
    let last = offsets.last().copied().unwrap_or(usize::MAX);
    if first != 0 || last != m || !offsets.is_sorted() {
        return Err(corrupt("non-monotonic offsets"));
    }
    Ok(offsets)
}

/// Checks that vertex `u`'s out-row is strictly increasing (sorted
/// ascending and duplicate-free, the shape the intersection kernels and
/// the binary-searching edge lookups assume) and that every id in it is
/// below `n`.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming `u` and the offending ids.
fn check_row(u: usize, row: &[VertexId], n: usize) -> Result<(), GraphError> {
    if let Some((a, b)) = row.iter().zip(row.iter().skip(1)).find(|(a, b)| a >= b) {
        return Err(corrupt(format!(
            "out-adjacency row of vertex {u} is not strictly increasing ({a} then {b})"
        )));
    }
    match row.last() {
        Some(v) if v.index() >= n => Err(corrupt(format!(
            "out-adjacency row of vertex {u} holds {v}, out of range for {n} vertices"
        ))),
        _ => Ok(()),
    }
}

/// Runs [`check_row`] on every row `ids[offsets[u]..offsets[u + 1]]` of
/// a graph of `offsets.len() - 1` vertices. One O(m) scan.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming the first bad row's vertex.
pub(crate) fn check_rows(offsets: &[usize], ids: &[VertexId]) -> Result<(), GraphError> {
    let n = offsets.len().saturating_sub(1);
    for (u, (&lo, &hi)) in offsets.iter().zip(offsets.iter().skip(1)).enumerate() {
        check_row(u, ids.get(lo..hi).unwrap_or_default(), n)?;
    }
    Ok(())
}

/// Converts a `u32 LE` id payload and range-checks every id below `n`
/// with a single vectorizable scan.
///
/// # Errors
///
/// [`GraphError::VertexOutOfRange`] when an id is out of range.
pub fn decode_ids(bytes: &[u8], n: usize, m: usize) -> Result<Vec<VertexId>, GraphError> {
    if bytes.len() != m * 4 {
        return Err(corrupt("id section size mismatch"));
    }
    let ids: Vec<VertexId> = bytes
        .chunks_exact(4)
        .map(|c| VertexId::new(u32::from_le_bytes(c.try_into().unwrap_or([0; 4]))))
        .collect();
    let max = ids.iter().map(|v| v.as_u32()).max();
    if let Some(max) = max {
        if max as usize >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: max,
                num_vertices: n,
            });
        }
    }
    Ok(ids)
}

/// Converts an `f32 LE` weights payload (bit-preserving).
///
/// # Errors
///
/// [`GraphError::Corrupt`] on a size mismatch.
pub fn decode_weights(bytes: &[u8], m: usize) -> Result<Vec<f32>, GraphError> {
    if bytes.len() != m * 4 {
        return Err(corrupt("weights section size mismatch"));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap_or([0; 4]))))
        .collect())
}

fn section_bytes<'a>(data: &'a [u8], sec: &Section) -> Result<&'a [u8], GraphError> {
    let lo = sec.offset as usize;
    let hi = lo
        .checked_add(sec.byte_len as usize)
        .ok_or_else(|| corrupt("section overruns the file"))?;
    let bytes = data
        .get(lo..hi)
        .ok_or_else(|| corrupt("section overruns the file"))?;
    if crc32(0, bytes) != sec.crc {
        return Err(corrupt(format!("section {} checksum mismatch", sec.kind)));
    }
    Ok(bytes)
}

/// Eagerly decodes a whole in-memory `SNPLG2` file into a [`CsrGraph`].
///
/// Raw files cost one vectorized copy per section; varint files decode
/// their gap streams block by block. Used by
/// [`io::read_binary`](crate::io::read_binary) after magic dispatch.
///
/// # Errors
///
/// [`GraphError::Corrupt`] / [`GraphError::VertexOutOfRange`] on any
/// structural, checksum or range failure.
pub fn decode_v2(data: &[u8]) -> Result<CsrGraph, GraphError> {
    let h = parse_header(data, data.len() as u64)?;
    let get = |kind: u32| -> Result<&[u8], GraphError> {
        let sec = h
            .section(kind)
            .ok_or_else(|| corrupt(format!("missing required section {kind}")))?;
        section_bytes(data, sec)
    };
    let offsets = decode_offsets(get(SEC_OUT_OFFSETS)?, h.n, h.m)?;
    let weights = if h.weighted {
        Some(decode_weights(get(SEC_OUT_WEIGHTS)?, h.m)?)
    } else {
        None
    };
    let targets = if h.varint {
        let index = decode_block_index(get(SEC_OUT_BLOCK_INDEX)?)?;
        decode_all_blocks(get(SEC_OUT_TARGETS_VARINT)?, &index, &offsets, h.n)?
    } else {
        decode_ids(get(SEC_OUT_TARGETS)?, h.n, h.m)?
    };
    check_rows(&offsets, &targets)?;
    Ok(CsrGraph::from_parts(h.n, offsets, targets, weights))
}

/// Converts a block-index payload (`u64 LE` byte offsets).
///
/// # Errors
///
/// [`GraphError::Corrupt`] on a size mismatch.
pub fn decode_block_index(bytes: &[u8]) -> Result<Vec<usize>, GraphError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(corrupt("block index size mismatch"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])) as usize)
        .collect())
}

// ---------------------------------------------------------------------------
// The varint flavor's section codec. Adjacency ids within a vertex's list
// are sorted, so consecutive ids are close: each list stores its first id
// absolute and the rest as LEB128-encoded gaps. Lists are grouped into
// blocks of `BLOCK_VERTICES` vertices with a per-block byte index. Offsets
// and weights stay raw. The crate-visible items are tested by the
// crate's `compress` test module (`varint_tests.rs`).
// ---------------------------------------------------------------------------

/// Vertices per varint block: the granularity of the per-block byte
/// index, which lets the decoder bound each block's bytes.
const BLOCK_VERTICES: usize = 64;

/// Appends `value` to `out` as LEB128.
pub(crate) fn push_varint(out: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        out.push((value & 0x7F) as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads one LEB128 `u32` from `bytes[*pos..]`, advancing `pos`.
///
/// # Errors
///
/// [`GraphError::Corrupt`] on truncation or a value overflowing `u32`.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, GraphError> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| corrupt("truncated varint stream"))?;
        *pos += 1;
        let payload = (b & 0x7F) as u32;
        if shift >= 32 || (shift == 28 && payload > 0x0F) {
            return Err(corrupt("varint overflows u32"));
        }
        value |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Encodes the out-rows of `graph` (ascending ids per row: first
/// absolute, rest gaps) into a stream plus a per-block byte index of
/// length `blocks + 1`, checking each row with [`check_row`] as it goes.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming the first vertex whose row is out of
/// order, repeats an id or holds an id out of range.
pub(crate) fn encode_stream(graph: &dyn GraphStore) -> Result<(Vec<u8>, Vec<usize>), GraphError> {
    let n = graph.num_vertices();
    let blocks = n.div_ceil(BLOCK_VERTICES);
    let mut stream = Vec::new();
    let mut index = Vec::with_capacity(blocks + 1);
    index.push(0);
    for b in 0..blocks {
        let lo = b * BLOCK_VERTICES;
        let hi = ((b + 1) * BLOCK_VERTICES).min(n);
        for u in lo..hi {
            let row = graph.out_neighbors(VertexId::new(u as u32));
            check_row(u, row, n)?;
            // The first id is its own gap from 0.
            let mut prev = 0u32;
            for v in row {
                push_varint(&mut stream, v.as_u32() - prev);
                prev = v.as_u32();
            }
        }
        index.push(stream.len());
    }
    Ok((stream, index))
}

/// Decodes the block covering vertices `[lo, hi)` from `bytes` (the
/// block's byte range) onto `out`, using `offsets` for per-list counts.
///
/// # Errors
///
/// [`GraphError::Corrupt`] on truncation or trailing garbage,
/// [`GraphError::VertexOutOfRange`] on an id out of `[0, n)`.
fn decode_block(
    bytes: &[u8],
    offsets: &[usize],
    lo: usize,
    hi: usize,
    n: usize,
    out: &mut Vec<VertexId>,
) -> Result<(), GraphError> {
    let mut pos = 0usize;
    for u in lo..hi {
        let count = match (offsets.get(u), offsets.get(u + 1)) {
            (Some(&a), Some(&b)) => b.saturating_sub(a),
            _ => 0,
        };
        let mut prev = 0u32;
        for i in 0..count {
            let raw = read_varint(bytes, &mut pos)?;
            let v = if i == 0 { raw } else { prev.wrapping_add(raw) };
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: n,
                });
            }
            out.push(VertexId::new(v));
            prev = v;
        }
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes in varint block"));
    }
    Ok(())
}

/// Eagerly decodes a full varint stream back into its adjacency ids.
///
/// # Errors
///
/// [`GraphError::Corrupt`] / [`GraphError::VertexOutOfRange`] on any
/// malformed block.
pub(crate) fn decode_all_blocks(
    stream: &[u8],
    index: &[usize],
    offsets: &[usize],
    n: usize,
) -> Result<Vec<VertexId>, GraphError> {
    let blocks = n.div_ceil(BLOCK_VERTICES);
    if index.len() != blocks + 1
        || index.first().copied().unwrap_or(1) != 0
        || index.last().copied().unwrap_or(usize::MAX) != stream.len()
        || !index.is_sorted()
    {
        return Err(corrupt("malformed varint block index"));
    }
    let total = offsets.last().copied().unwrap_or(0);
    // Every decoded id costs >= 1 stream byte, so clamping to the
    // stream length keeps a forged offset table from forcing an
    // allocation larger than the actual file.
    // snaple-lint: allow(wire-alloc) — capacity clamped to stream.len(), bounded by real file bytes
    let mut out = Vec::with_capacity(total.min(stream.len()));
    for b in 0..blocks {
        let lo = b * BLOCK_VERTICES;
        let hi = ((b + 1) * BLOCK_VERTICES).min(n);
        let bytes = index
            .get(b)
            .zip(index.get(b + 1))
            .and_then(|(&a, &z)| stream.get(a..z))
            .ok_or_else(|| corrupt("malformed varint block index"))?;
        decode_block(bytes, offsets, lo, hi, n, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------------

/// Exact encoded size of `graph` as a **raw** `SNPLG2` file — known
/// ahead of writing, which is what lets the snapshot store stream a
/// checkpoint without buffering it (`snaple-store` embeds the graph at
/// an offset computed from this).
pub fn encoded_len(graph: &dyn GraphStore) -> u64 {
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    let (sections, weights) = if graph.is_weighted() {
        (3, m * 4)
    } else {
        (2, 0)
    };
    let payload = (n + 1) * 8 + m * 4 + weights;
    HEADER2_LEN as u64 + sections * SECTION_ENTRY_LEN as u64 + payload
}

/// Encodes the fixed header and section table of a file with `flags`,
/// `n` vertices, `m` edges and `sections` in file order — the inverse of
/// [`parse_header`].
pub(crate) fn encode_prelude(flags: u8, n: u64, m: u64, sections: &[Section]) -> Vec<u8> {
    let mut head = Vec::with_capacity(HEADER2_LEN + sections.len() * SECTION_ENTRY_LEN);
    head.extend_from_slice(MAGIC2);
    head.push(VERSION2);
    head.push(flags);
    head.extend_from_slice(&n.to_le_bytes());
    head.extend_from_slice(&m.to_le_bytes());
    head.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    head.extend_from_slice(&0u32.to_le_bytes());
    for s in sections {
        head.extend_from_slice(&s.kind.to_le_bytes());
        head.extend_from_slice(&s.crc.to_le_bytes());
        head.extend_from_slice(&s.offset.to_le_bytes());
        head.extend_from_slice(&s.byte_len.to_le_bytes());
        head.extend_from_slice(&s.elem_count.to_le_bytes());
    }
    head
}

/// Streams one logical section's bytes through `sink` in chunks of at
/// most 64 KiB — used twice per raw section (a CRC pre-pass, then the
/// write) and once per raw section of a varint file. Each out-row is
/// checked with [`check_row`] as it streams.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming the first bad row's vertex, or what
/// `sink` returns.
fn stream_section(
    graph: &dyn GraphStore,
    kind: u32,
    sink: &mut impl FnMut(&[u8]) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    const CHUNK: usize = 64 * 1024;
    let n = graph.num_vertices();
    let mut buf = Vec::with_capacity(CHUNK);
    // Every word is at most 8 bytes, so flushing 8 bytes short of the
    // capacity never grows the buffer.
    let mut put = |buf: &mut Vec<u8>, word: &[u8]| -> Result<(), GraphError> {
        buf.extend_from_slice(word);
        if buf.len() > CHUNK - 8 {
            sink(buf)?;
            buf.clear();
        }
        Ok(())
    };
    let mut total = 0u64;
    if kind == SEC_OUT_OFFSETS {
        put(&mut buf, &total.to_le_bytes())?;
    }
    for raw in 0..n as u32 {
        let u = VertexId::new(raw);
        match kind {
            SEC_OUT_OFFSETS => {
                total += graph.out_degree(u) as u64;
                put(&mut buf, &total.to_le_bytes())?;
            }
            SEC_OUT_TARGETS => {
                let row = graph.out_neighbors(u);
                check_row(u.index(), row, n)?;
                for v in row {
                    put(&mut buf, &v.as_u32().to_le_bytes())?;
                }
            }
            SEC_OUT_WEIGHTS => {
                for &w in graph.out_weights(u).unwrap_or(&[]) {
                    put(&mut buf, &w.to_bits().to_le_bytes())?;
                }
            }
            _ => {}
        }
    }
    if !buf.is_empty() {
        sink(&buf)?;
    }
    Ok(())
}

/// Encodes `graph` as a **raw** `SNPLG2` file: its out-offsets,
/// out-targets and, when weighted, out-weights.
///
/// Two passes per section — a CRC/length pre-pass, then the write — so
/// nothing is buffered beyond a 64 KiB chunk: a 100M-edge checkpoint
/// streams straight to its file instead of transiently tripling memory.
/// The pre-pass checks every row, so a bad row fails before a byte is
/// written. For the varint flavor use [`write_v2_varint`].
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming the first vertex whose row is out of
/// order, repeats an id or holds an id out of range;
/// [`GraphError::Io`] on write failures.
pub fn write_v2<W: std::io::Write>(
    graph: &dyn GraphStore,
    mut writer: W,
) -> Result<(), GraphError> {
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    let weighted = graph.is_weighted();
    let kinds: &[u32] = if weighted {
        &[SEC_OUT_OFFSETS, SEC_OUT_TARGETS, SEC_OUT_WEIGHTS]
    } else {
        &[SEC_OUT_OFFSETS, SEC_OUT_TARGETS]
    };

    // Pass 1: per-section CRC + length, no buffering.
    let mut sections = Vec::with_capacity(kinds.len());
    let mut offset = (HEADER2_LEN + kinds.len() * SECTION_ENTRY_LEN) as u64;
    for &kind in kinds {
        let mut crc = 0u32;
        let mut len = 0u64;
        stream_section(graph, kind, &mut |chunk| {
            crc = crc32(crc, chunk);
            len += chunk.len() as u64;
            Ok(())
        })?;
        let elem_count = if kind == SEC_OUT_OFFSETS { n + 1 } else { m };
        sections.push(Section {
            kind,
            crc,
            offset,
            byte_len: len,
            elem_count,
        });
        offset += len;
    }

    let flags = if weighted { FLAG2_WEIGHTED } else { 0 };
    writer.write_all(&encode_prelude(flags, n, m, &sections))?;

    // Pass 2: the payloads.
    for &kind in kinds {
        stream_section(graph, kind, &mut |chunk| {
            writer.write_all(chunk).map_err(GraphError::from)
        })?;
    }
    Ok(())
}

/// Encodes `graph` as a **varint**-flavored `SNPLG2` file.
///
/// The sections are materialized in memory (the compressed stream is
/// the small representation) and every row is checked before a byte is
/// written.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming the first vertex whose row is out of
/// order, repeats an id or holds an id out of range;
/// [`GraphError::Io`] on write failures.
pub fn write_v2_varint<W: std::io::Write>(
    graph: &dyn GraphStore,
    mut writer: W,
) -> Result<(), GraphError> {
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    let weighted = graph.is_weighted();
    let raw = |kind| -> Result<Vec<u8>, GraphError> {
        let mut bytes = Vec::new();
        stream_section(graph, kind, &mut |chunk| {
            bytes.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(bytes)
    };
    let (stream, index) = encode_stream(graph)?;
    let index_bytes: Vec<u8> = index
        .iter()
        .flat_map(|&at| (at as u64).to_le_bytes())
        .collect();
    let mut payloads: Vec<(u32, u64, Vec<u8>)> = vec![
        (SEC_OUT_OFFSETS, n + 1, raw(SEC_OUT_OFFSETS)?),
        (SEC_OUT_TARGETS_VARINT, m, stream),
        (SEC_OUT_BLOCK_INDEX, index.len() as u64, index_bytes),
    ];
    if weighted {
        payloads.push((SEC_OUT_WEIGHTS, m, raw(SEC_OUT_WEIGHTS)?));
    }
    let mut offset = (HEADER2_LEN + payloads.len() * SECTION_ENTRY_LEN) as u64;
    let mut sections = Vec::with_capacity(payloads.len());
    for (kind, elem_count, bytes) in &payloads {
        sections.push(Section {
            kind: *kind,
            crc: crc32(0, bytes),
            offset,
            byte_len: bytes.len() as u64,
            elem_count: *elem_count,
        });
        offset += bytes.len() as u64;
    }
    let flags = FLAG2_VARINT | if weighted { FLAG2_WEIGHTED } else { 0 };
    writer.write_all(&encode_prelude(flags, n, m, &sections))?;
    for (_, _, bytes) in &payloads {
        writer.write_all(bytes)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// FileCsr: the lazy file-backed backend.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FileCsrInner {
    path: PathBuf,
    file: Mutex<File>,
    header: V2Header,
    out_offsets: OnceLock<Vec<usize>>,
    out_targets: OnceLock<Vec<VertexId>>,
    out_weights: OnceLock<Vec<f32>>,
    /// First deferred load failure; accessors serve empty lists once
    /// set, [`GraphStore::check_fault`] returns it as a typed error.
    fault: OnceLock<String>,
}

/// A file-backed [`GraphStore`] over a raw `SNPLG2` file.
///
/// [`FileCsr::open`] reads only the header and section table — open
/// time is flat in the edge count (the property the bench crate's
/// `gates.rs` enforces). Adjacency sections fault in lazily, each
/// validated against its CRC on load; the in-adjacency sections of files
/// from older writers are never loaded. Accessors never panic: a section
/// that fails its deferred load reads as empty and the failure is
/// recorded. The serving layers ask [`GraphStore::check_fault`] after
/// prepare, after every execute and before a delta folds in, so a result
/// computed over an empty section is returned as an error, never as rows.
///
/// Cloning is cheap (`Arc`-backed); clones share loaded sections.
#[derive(Clone, Debug)]
pub struct FileCsr {
    inner: Arc<FileCsrInner>,
}

impl FileCsr {
    /// Opens a raw `SNPLG2` file, validating the header and section
    /// table only — O(sections), not O(edges).
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on filesystem failures, [`GraphError::Corrupt`]
    /// on a malformed prelude, or if the file is varint-flavored (open
    /// those via [`io::open_store`](crate::io::open_store), which decodes
    /// them into an in-RAM [`CsrGraph`]).
    pub fn open(path: &Path) -> Result<FileCsr, GraphError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let prelude_len = (file_len as usize).min(HEADER2_LEN + 64 * SECTION_ENTRY_LEN);
        let mut prelude = vec![0u8; prelude_len];
        file.read_exact(&mut prelude)?;
        let header = parse_header(&prelude, file_len)?;
        if header.varint {
            return Err(corrupt(
                "varint-flavored SNPLG2: open via io::open_store, not FileCsr",
            ));
        }
        Ok(FileCsr {
            inner: Arc::new(FileCsrInner {
                path: path.to_path_buf(),
                file: Mutex::new(file),
                header,
                out_offsets: OnceLock::new(),
                out_targets: OnceLock::new(),
                out_weights: OnceLock::new(),
                fault: OnceLock::new(),
            }),
        })
    }

    /// The path this store reads from.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The parsed file header.
    pub fn header(&self) -> &V2Header {
        &self.inner.header
    }

    fn record_fault(&self, e: &GraphError) {
        let what = match e {
            GraphError::Corrupt(msg) => msg.clone(),
            other => other.to_string(),
        };
        let _ = self
            .inner
            .fault
            .set(format!("{}: {what}", self.inner.path.display()));
    }

    /// Reads and CRC-checks one section's raw bytes.
    fn read_section(&self, kind: u32) -> Result<Vec<u8>, GraphError> {
        let sec = self
            .inner
            .header
            .section(kind)
            .ok_or_else(|| corrupt(format!("missing required section {kind}")))?;
        // byte_len was validated against the real file size at open, so
        // this allocation is bounded by bytes that actually exist.
        // snaple-lint: allow(wire-length) — byte_len checked against the real file size at open
        let mut buf = vec![0u8; sec.byte_len as usize];
        {
            let mut file = self
                .inner
                .file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            file.seek(SeekFrom::Start(sec.offset))?;
            file.read_exact(&mut buf)?;
        }
        if crc32(0, &buf) != sec.crc {
            return Err(corrupt(format!("section {} checksum mismatch", sec.kind)));
        }
        Ok(buf)
    }

    /// The value `load` returns, or an empty vector once it fails, with
    /// the failure recorded for [`GraphStore::check_fault`].
    fn or_fault<T>(&self, load: Result<Vec<T>, GraphError>) -> Vec<T> {
        load.unwrap_or_else(|e| {
            self.record_fault(&e);
            Vec::new()
        })
    }

    fn out_offs(&self) -> &[usize] {
        let h = &self.inner.header;
        self.inner.out_offsets.get_or_init(|| {
            self.or_fault(
                self.read_section(SEC_OUT_OFFSETS)
                    .and_then(|b| decode_offsets(&b, h.n, h.m)),
            )
        })
    }

    /// Out-adjacency offsets and targets, the targets' rows checked to
    /// be strictly increasing when they load.
    fn out_rows(&self) -> (&[usize], &[VertexId]) {
        let h = &self.inner.header;
        let offsets = self.out_offs();
        let targets = self.inner.out_targets.get_or_init(|| {
            self.or_fault(
                self.read_section(SEC_OUT_TARGETS)
                    .and_then(|b| decode_ids(&b, h.n, h.m))
                    .and_then(|ids| check_rows(offsets, &ids).map(|()| ids)),
            )
        });
        (offsets, targets)
    }

    fn weights_slice(&self) -> Option<&[f32]> {
        let h = &self.inner.header;
        h.weighted.then(|| {
            self.inner
                .out_weights
                .get_or_init(|| {
                    self.or_fault(
                        self.read_section(SEC_OUT_WEIGHTS)
                            .and_then(|b| decode_weights(&b, h.m)),
                    )
                })
                .as_slice()
        })
    }

    fn list<'a>(offsets: &[usize], items: &'a [VertexId], u: VertexId) -> &'a [VertexId] {
        let lo = offsets.get(u.index()).copied();
        let hi = offsets.get(u.index() + 1).copied();
        match (lo, hi) {
            (Some(lo), Some(hi)) => items.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }
}

impl GraphStore for FileCsr {
    fn num_vertices(&self) -> usize {
        self.inner.header.n
    }

    fn num_edges(&self) -> usize {
        self.inner.header.m
    }

    fn is_weighted(&self) -> bool {
        self.inner.header.weighted
    }

    fn out_degree(&self, u: VertexId) -> usize {
        let offs = self.out_offs();
        match (offs.get(u.index()), offs.get(u.index() + 1)) {
            (Some(&lo), Some(&hi)) => hi.saturating_sub(lo),
            _ => 0,
        }
    }

    fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        let (offsets, targets) = self.out_rows();
        Self::list(offsets, targets, u)
    }

    fn out_weights(&self, u: VertexId) -> Option<&[f32]> {
        let ws = self.weights_slice()?;
        let offs = self.out_offs();
        let lo = offs.get(u.index()).copied()?;
        let hi = offs.get(u.index() + 1).copied()?;
        ws.get(lo..hi)
    }

    fn backend_name(&self) -> &'static str {
        "file-csr"
    }

    fn storage_bytes(&self) -> u64 {
        self.inner
            .header
            .sections
            .iter()
            .map(|s| s.byte_len)
            .sum::<u64>()
            + HEADER2_LEN as u64
    }

    fn check_fault(&self) -> Result<(), GraphError> {
        match self.inner.fault.get() {
            Some(msg) => Err(corrupt(msg.clone())),
            None => Ok(()),
        }
    }

    /// Loads every out-section, then copies them. A section that fails
    /// to load yields an empty graph and records the fault
    /// [`GraphStore::check_fault`] reports.
    fn to_csr(&self) -> CsrGraph {
        let (offsets, targets) = self.out_rows();
        let weights = self.weights_slice();
        if self.check_fault().is_err() {
            return CsrGraph::from_edges(0, &[]);
        }
        CsrGraph::from_parts(
            self.inner.header.n,
            offsets.to_vec(),
            targets.to_vec(),
            weights.map(<[f32]>::to_vec),
        )
    }

    fn clone_shared(&self) -> Arc<dyn GraphStore> {
        Arc::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (3, 1), (4, 0)])
    }

    fn weighted_sample() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 2.5)
            .add_weighted_edge(1, 0, 0.5)
            .add_weighted_edge(1, 2, -1.25);
        b.build()
    }

    fn encode(g: &CsrGraph) -> Vec<u8> {
        let mut out = Vec::new();
        write_v2(g, &mut out).expect("encode");
        out
    }

    fn assert_same(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.is_weighted(), b.is_weighted());
        for u in a.vertices() {
            assert_eq!(a.out_neighbors(u), b.out_neighbors(u), "{u} out");
            match (a.out_weights(u), b.out_weights(u)) {
                (Some(x), Some(y)) => assert_eq!(
                    x.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                    y.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                    "{u} weights"
                ),
                (None, None) => {}
                other => panic!("weight presence diverged at {u}: {other:?}"),
            }
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for g in [sample(), weighted_sample(), CsrGraph::from_edges(0, &[])] {
            let bytes = encode(&g);
            let g2 = decode_v2(&bytes).expect("decode");
            assert_same(&g, &g2);
        }
    }

    #[test]
    fn encoded_len_matches_reality() {
        for g in [sample(), weighted_sample(), CsrGraph::from_edges(3, &[])] {
            assert_eq!(encode(&g).len() as u64, encoded_len(&g));
        }
    }

    #[test]
    fn every_corrupt_byte_is_a_typed_error() {
        let bytes = encode(&weighted_sample());
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode_v2(&bad).is_err(), "flip at {pos} went unnoticed");
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = encode(&sample());
        for cut in [0, 3, 7, HEADER2_LEN - 1, HEADER2_LEN + 5, bytes.len() - 1] {
            assert!(decode_v2(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn file_csr_matches_the_ram_graph() {
        let dir = std::env::temp_dir().join(format!("snplg2-basic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (name, g) in [("plain", sample()), ("weighted", weighted_sample())] {
            let path = dir.join(format!("{name}.snplg"));
            std::fs::write(&path, encode(&g)).expect("write");
            let f = FileCsr::open(&path).expect("open");
            assert_eq!(f.backend_name(), "file-csr");
            let s: &dyn GraphStore = &f;
            assert_eq!(s.num_vertices(), g.num_vertices());
            assert_eq!(s.num_edges(), g.num_edges());
            for u in store::vertices(s) {
                assert_eq!(s.out_neighbors(u), g.out_neighbors(u));
                assert_eq!(s.out_degree(u), g.out_degree(u));
                assert_eq!(s.out_weights(u), g.out_weights(u));
            }
            assert_same(&g, &s.to_csr());
            assert!(s.check_fault().is_ok());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_csr_open_reads_only_the_prelude_and_faults_lazily() {
        let dir = std::env::temp_dir().join(format!("snplg2-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let g = sample();
        let path = dir.join("lazy.snplg");
        let mut bytes = encode(&g);
        // Corrupt a payload byte (past the section table): open must
        // still succeed, the fault surfaces on access.
        let table_end = HEADER2_LEN + 2 * SECTION_ENTRY_LEN;
        bytes[table_end + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let f = FileCsr::open(&path).expect("open ignores payloads");
        assert!(f.check_fault().is_ok());
        // Touching the corrupt section serves empty and records a fault.
        let _ = f.out_degree(VertexId::new(0));
        assert!(matches!(f.check_fault(), Err(GraphError::Corrupt(_))));
        assert!(f.out_neighbors(VertexId::new(0)).is_empty());
        // Materializing a faulted file yields an empty graph, and the
        // fault stays recorded for the caller to return.
        assert_eq!(f.to_csr().num_edges(), 0);
        assert!(f.check_fault().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_csr_rejects_missing_and_forged_files() {
        let dir = std::env::temp_dir().join(format!("snplg2-forged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            FileCsr::open(&dir.join("nope.snplg")),
            Err(GraphError::Io(_))
        ));
        // A v1 file is a clean typed error, not a panic.
        let p = dir.join("v1.snplg");
        let mut v1 = Vec::new();
        crate::io::write_binary_v1(&sample(), &mut v1).expect("v1");
        std::fs::write(&p, &v1).expect("write");
        assert!(matches!(FileCsr::open(&p), Err(GraphError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_rejects_hostile_section_tables() {
        let g = sample();
        let bytes = encode(&g);
        // Section offset pointing past the file.
        let mut bad = bytes.clone();
        let off_at = HEADER2_LEN + 8; // first entry's offset field
        bad[off_at..off_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            parse_header(&bad, bad.len() as u64),
            Err(GraphError::Corrupt(_))
        ));
        // Duplicate section kind.
        let mut dup = bytes.clone();
        let second = HEADER2_LEN + SECTION_ENTRY_LEN;
        let first_kind = dup[HEADER2_LEN..HEADER2_LEN + 4].to_vec();
        dup[second..second + 4].copy_from_slice(&first_kind);
        assert!(parse_header(&dup, dup.len() as u64).is_err());
        // Unknown section kind.
        let mut unk = bytes;
        unk[HEADER2_LEN..HEADER2_LEN + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(parse_header(&unk, unk.len() as u64).is_err());
    }
}
