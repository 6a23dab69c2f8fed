//! [`ExternalGraphBuilder`]: out-of-core graph construction.
//!
//! [`GraphBuilder`](crate::GraphBuilder) holds every added edge in RAM
//! until `build()` — a non-starter at the paper's billion-edge scale.
//! This builder accepts the same edge stream with the same semantics
//! (symmetrize, self-loop removal, first-occurrence-wins dedup) but
//! holds only a bounded chunk in memory: full chunks are stably sorted
//! and spilled to disk as sorted runs, and `build` k-way-merges the
//! runs **directly into a raw `SNPLG2` file** — the output never exists
//! as an in-RAM graph. Peak memory is `O(chunk + vertices)`, not
//! `O(edges)`.
//!
//! Equivalence with the in-RAM builder is exact, not approximate: the
//! in-RAM path is one stable sort over the insertion sequence with
//! first-wins dedup, and chunked stable sorts merged with the run index
//! as tie-break reproduce precisely that order. A property test pins
//! the two byte-identical.
//!
//! ```no_run
//! use snaple_graph::extbuild::ExternalGraphBuilder;
//!
//! let mut b = ExternalGraphBuilder::new();
//! b.symmetrize(true);
//! for (u, v) in [(0, 1), (1, 2)] {
//!     b.add_edge(u, v);
//! }
//! let stats = b.build(std::path::Path::new("/tmp/big.snplg"))?;
//! assert_eq!(stats.edges, 4);
//! # Ok::<(), snaple_graph::GraphError>(())
//! ```

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::crc32;
use crate::v2::{
    encode_prelude, Section, FLAG2_WEIGHTED, HEADER2_LEN, SECTION_ENTRY_LEN, SEC_OUT_OFFSETS,
    SEC_OUT_TARGETS, SEC_OUT_WEIGHTS,
};
use crate::GraphError;

/// Default in-RAM chunk size, in edges (~48 MiB of triples).
pub const DEFAULT_CHUNK_EDGES: usize = 4 * 1024 * 1024;

/// Summary of an out-of-core build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildStats {
    /// Vertices in the built graph.
    pub vertices: usize,
    /// Unique edges written (post dedup/self-loop removal).
    pub edges: usize,
    /// Edge records ingested (post symmetrize, pre dedup).
    pub records: u64,
    /// Sorted runs spilled to scratch space.
    pub runs: usize,
    /// Bytes of the final `SNPLG2` file.
    pub output_bytes: u64,
}

/// 12-byte little-endian triple: `u, v, weight bits`.
const TRIPLE: usize = 12;

/// Sorted runs spilled to one append-only scratch file.
struct RunFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    /// Per-run `(byte_offset, record_count)`.
    runs: Vec<(u64, u64)>,
    written: u64,
}

impl RunFile {
    fn create(path: PathBuf) -> Result<RunFile, GraphError> {
        let file = File::create(&path)?;
        Ok(RunFile {
            path,
            writer: Some(BufWriter::new(file)),
            runs: Vec::new(),
            written: 0,
        })
    }

    fn spill(&mut self, records: &[u8]) -> Result<(), GraphError> {
        let count = (records.len() / TRIPLE) as u64;
        if count == 0 {
            return Ok(());
        }
        if let Some(w) = self.writer.as_mut() {
            w.write_all(records)?;
        }
        self.runs.push((self.written, count));
        self.written += records.len() as u64;
        Ok(())
    }

    /// Flushes and reopens one buffered reader per run.
    fn open_readers(&mut self) -> Result<Vec<RunReader>, GraphError> {
        if let Some(w) = self.writer.take() {
            w.into_inner()
                .map_err(|e| GraphError::Io(e.into_error()))?
                .sync_all()
                .ok();
        }
        let mut readers = Vec::with_capacity(self.runs.len());
        for &(offset, count) in &self.runs {
            let mut f = File::open(&self.path)?;
            f.seek(SeekFrom::Start(offset))?;
            readers.push(RunReader {
                reader: BufReader::with_capacity(1 << 20, f),
                remaining: count,
            });
        }
        Ok(readers)
    }
}

struct RunReader {
    reader: BufReader<File>,
    remaining: u64,
}

impl RunReader {
    fn next(&mut self) -> Result<Option<[u8; TRIPLE]>, GraphError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut rec = [0u8; TRIPLE];
        self.reader.read_exact(&mut rec).map_err(GraphError::from)?;
        Ok(Some(rec))
    }
}

fn le32(rec: &[u8; TRIPLE], at: usize) -> u32 {
    u32::from_le_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]])
}

/// A [`Write`] that tracks CRC-32 and length of everything written —
/// sections stream through one of these so the table can be patched in
/// afterwards without buffering payloads.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
    len: u64,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: 0,
            len: 0,
        }
    }

    fn reset(&mut self) {
        self.crc = 0;
        self.len = 0;
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32(self.crc, buf.get(..n).unwrap_or(&[]));
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Out-of-core counterpart of [`GraphBuilder`](crate::GraphBuilder);
/// see the module docs.
pub struct ExternalGraphBuilder {
    chunk: Vec<u8>,
    chunk_capacity: usize,
    scratch_dir: Option<PathBuf>,
    runs: Option<RunFile>,
    weighted: bool,
    symmetrize: bool,
    keep_self_loops: bool,
    min_vertices: usize,
    records: u64,
}

impl std::fmt::Debug for ExternalGraphBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalGraphBuilder")
            .field("records", &self.records)
            .field("chunk_capacity", &self.chunk_capacity)
            .field("runs", &self.runs.as_ref().map_or(0, |r| r.runs.len()))
            .finish()
    }
}

impl Default for ExternalGraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ExternalGraphBuilder {
    /// Creates a builder with the default chunk size, spilling runs to
    /// the system temp directory.
    pub fn new() -> Self {
        Self::with_chunk_edges(DEFAULT_CHUNK_EDGES)
    }

    /// Creates a builder spilling after `chunk_edges` buffered edge
    /// records (post-symmetrize). Small values are only useful to force
    /// multi-run merges in tests.
    pub fn with_chunk_edges(chunk_edges: usize) -> Self {
        ExternalGraphBuilder {
            chunk: Vec::new(),
            chunk_capacity: chunk_edges.max(2),
            scratch_dir: None,
            runs: None,
            weighted: false,
            symmetrize: false,
            keep_self_loops: false,
            min_vertices: 0,
            records: 0,
        }
    }

    /// Directs scratch runs to `dir` (default: the system temp dir).
    /// Scratch space peaks at roughly `12 bytes × edge records`, plus
    /// `4 bytes × edges` for the weights of a weighted graph.
    pub fn scratch_dir(&mut self, dir: &Path) -> &mut Self {
        self.scratch_dir = Some(dir.to_path_buf());
        self
    }

    /// Ensures the built graph has at least `n` vertices.
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// If `true`, every added edge `(u, v)` also produces `(v, u)`.
    pub fn symmetrize(&mut self, yes: bool) -> &mut Self {
        self.symmetrize = yes;
        self
    }

    /// If `true`, self-loops survive into the built graph.
    pub fn keep_self_loops(&mut self, yes: bool) -> &mut Self {
        self.keep_self_loops = yes;
        self
    }

    /// Edge records ingested so far (post-symmetrize, pre-dedup).
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Adds a directed edge with weight `1.0`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] if spilling a full chunk fails.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        self.push(u, v, 1.0f32.to_bits())
    }

    /// Adds a directed edge with an explicit weight. Once any weighted
    /// edge is added the built graph is weighted.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] if spilling a full chunk fails.
    pub fn add_weighted_edge(&mut self, u: u32, v: u32, w: f32) -> Result<(), GraphError> {
        self.weighted = true;
        self.push(u, v, w.to_bits())
    }

    fn push(&mut self, u: u32, v: u32, w: u32) -> Result<(), GraphError> {
        self.push_one(u, v, w)?;
        if self.symmetrize {
            self.push_one(v, u, w)?;
        }
        Ok(())
    }

    fn push_one(&mut self, u: u32, v: u32, w: u32) -> Result<(), GraphError> {
        // The in-RAM builder filters self-loops with a stable `retain`
        // before sorting; dropping them at ingestion is equivalent.
        if u == v && !self.keep_self_loops {
            self.records += 1;
            return Ok(());
        }
        self.chunk.extend_from_slice(&u.to_le_bytes());
        self.chunk.extend_from_slice(&v.to_le_bytes());
        self.chunk.extend_from_slice(&w.to_le_bytes());
        self.records += 1;
        if self.chunk.len() >= self.chunk_capacity * TRIPLE {
            self.spill_chunk()?;
        }
        Ok(())
    }

    fn scratch_file(&mut self, name: &str) -> Result<PathBuf, GraphError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let dir = match &self.scratch_dir {
            Some(d) => d.clone(),
            None => std::env::temp_dir(),
        };
        std::fs::create_dir_all(&dir)?;
        let tag = UNIQUE.fetch_add(1, Ordering::Relaxed);
        Ok(dir.join(format!(
            "snaple-extbuild-{}-{tag}-{name}",
            std::process::id()
        )))
    }

    fn spill_chunk(&mut self) -> Result<(), GraphError> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        if self.runs.is_none() {
            let path = self.scratch_file("runs1")?;
            self.runs = Some(RunFile::create(path)?);
        }
        sort_records(&mut self.chunk);
        if let Some(runs) = self.runs.as_mut() {
            runs.spill(&self.chunk)?;
        }
        self.chunk.clear();
        Ok(())
    }

    /// Consumes the builder, merging all runs into a raw `SNPLG2` file
    /// at `out`.
    ///
    /// Duplicated edges keep the weight of their first occurrence, in
    /// ingestion order — exactly the in-RAM builder's rule.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on filesystem failures.
    pub fn build(mut self, out: &Path) -> Result<BuildStats, GraphError> {
        self.spill_chunk()?;
        let mut runs = match self.runs.take() {
            Some(r) => r,
            None => RunFile::create(self.scratch_file("runs1")?)?,
        };
        let result = self.merge_to_file(&mut runs, out);
        std::fs::remove_file(&runs.path).ok();
        result
    }

    fn merge_to_file(&mut self, runs: &mut RunFile, out: &Path) -> Result<BuildStats, GraphError> {
        let run_count = runs.runs.len();
        let mut readers = runs.open_readers()?;

        let weighted = self.weighted;
        let section_count = if weighted { 3 } else { 2 };
        let prelude_len = HEADER2_LEN + section_count * SECTION_ENTRY_LEN;

        let out_file = File::create(out)?;
        let mut w = CrcWriter::new(BufWriter::with_capacity(1 << 20, out_file));
        // Placeholder prelude; patched after the payloads are placed.
        w.write_all(&vec![0u8; prelude_len])?;
        w.reset();

        let mut sections: Vec<Section> = Vec::with_capacity(section_count);
        let mut cursor = prelude_len as u64;
        let mut seal =
            |w: &mut CrcWriter<BufWriter<File>>, sections: &mut Vec<Section>, kind, elems| {
                sections.push(Section {
                    kind,
                    crc: w.crc,
                    offset: cursor,
                    byte_len: w.len,
                    elem_count: elems,
                });
                cursor += w.len;
                w.reset();
            };

        // One k-way merge by (u, v, run). Targets stream straight into
        // the output; weights go to scratch.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32, usize, u32)>> = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(rec) = r.next()? {
                heap.push(std::cmp::Reverse((
                    le32(&rec, 0),
                    le32(&rec, 4),
                    i,
                    le32(&rec, 8),
                )));
            }
        }
        let mut weights_file = if weighted {
            let p = self.scratch_file("weights")?;
            Some((CrcWriter::new(BufWriter::new(File::create(&p)?)), p))
        } else {
            None
        };

        let mut out_degrees: Vec<u64> = Vec::new();
        let mut m = 0usize;
        let mut max_vertex: Option<u32> = None;
        let mut last: Option<(u32, u32)> = None;
        while let Some(std::cmp::Reverse((u, v, run, wt))) = heap.pop() {
            if let Some(r) = readers.get_mut(run) {
                if let Some(rec) = r.next()? {
                    heap.push(std::cmp::Reverse((
                        le32(&rec, 0),
                        le32(&rec, 4),
                        run,
                        le32(&rec, 8),
                    )));
                }
            }
            if last == Some((u, v)) {
                continue; // duplicate: first occurrence already emitted
            }
            last = Some((u, v));
            if out_degrees.len() <= u as usize {
                out_degrees.resize(u as usize + 1, 0);
            }
            if let Some(d) = out_degrees.get_mut(u as usize) {
                *d += 1;
            }
            max_vertex = Some(max_vertex.map_or(u.max(v), |mv| mv.max(u).max(v)));
            m += 1;
            w.write_all(&v.to_le_bytes())?;
            if let Some((wf, _)) = weights_file.as_mut() {
                wf.write_all(&wt.to_le_bytes())?;
            }
        }
        seal(&mut w, &mut sections, SEC_OUT_TARGETS, m as u64);

        let n = max_vertex
            .map_or(0, |mv| mv as usize + 1)
            .max(self.min_vertices);

        // Weights, appended from scratch after the targets.
        if let Some((wf, path)) = weights_file.take() {
            let crc = wf.crc;
            let len = wf.len;
            wf.inner
                .into_inner()
                .map_err(|e| GraphError::Io(e.into_error()))?;
            let mut rf = File::open(&path)?;
            std::io::copy(&mut rf, &mut w)?;
            std::fs::remove_file(&path).ok();
            debug_assert_eq!((w.crc, w.len), (crc, len));
            seal(&mut w, &mut sections, SEC_OUT_WEIGHTS, m as u64);
        }

        // The offsets section, derived from the degree counters.
        out_degrees.resize(n, 0);
        let mut total = 0u64;
        w.write_all(&0u64.to_le_bytes())?;
        for &d in &out_degrees {
            total += d;
            w.write_all(&total.to_le_bytes())?;
        }
        seal(&mut w, &mut sections, SEC_OUT_OFFSETS, n as u64 + 1);

        // Patch in the real header + section table.
        let mut file = w
            .inner
            .into_inner()
            .map_err(|e| GraphError::Io(e.into_error()))?;
        let output_bytes = file.stream_position()?;
        file.seek(SeekFrom::Start(0))?;
        let flags = if weighted { FLAG2_WEIGHTED } else { 0 };
        file.write_all(&encode_prelude(flags, n as u64, m as u64, &sections))?;
        file.sync_all()?;

        Ok(BuildStats {
            vertices: n,
            edges: m,
            records: self.records,
            runs: run_count.max(1),
            output_bytes,
        })
    }
}

/// Stable in-place sort of edge triples by `(u, v)`.
fn sort_records(bytes: &mut Vec<u8>) {
    let key = |rec: &[u8]| {
        (u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]) as u64) << 32
            | u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]) as u64
    };
    let count = bytes.len() / TRIPLE;
    let mut order: Vec<u32> = (0..count as u32).collect();
    order.sort_by_key(|&i| {
        bytes
            .get(i as usize * TRIPLE..(i as usize + 1) * TRIPLE)
            .map(key)
            .unwrap_or(0)
    });
    let mut sorted = Vec::with_capacity(bytes.len());
    for &i in &order {
        if let Some(rec) = bytes.get(i as usize * TRIPLE..(i as usize + 1) * TRIPLE) {
            sorted.extend_from_slice(rec);
        }
    }
    *bytes = sorted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{v2, CsrGraph, GraphBuilder};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snpl-extbuild-test-{}-{name}", std::process::id()))
    }

    fn assert_matches_in_ram(
        edges: &[(u32, u32, f32)],
        weighted: bool,
        symmetrize: bool,
        keep_self_loops: bool,
        chunk: usize,
    ) {
        let mut ram = GraphBuilder::new();
        ram.symmetrize(symmetrize).keep_self_loops(keep_self_loops);
        let mut ext = ExternalGraphBuilder::with_chunk_edges(chunk);
        ext.symmetrize(symmetrize).keep_self_loops(keep_self_loops);
        for &(u, v, w) in edges {
            if weighted {
                ram.add_weighted_edge(u, v, w);
                ext.add_weighted_edge(u, v, w).expect("add");
            } else {
                ram.add_edge(u, v);
                ext.add_edge(u, v).expect("add");
            }
        }
        let expected = ram.build();
        // Tests run in parallel and several reuse one parameter set, so
        // each call writes its own file.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = tmp(&format!("eq-{call}.snplg"));
        let stats = ext.build(&path).expect("build");
        assert_eq!(stats.edges, expected.num_edges());
        assert_eq!(stats.vertices, expected.num_vertices());
        let bytes = std::fs::read(&path).expect("read");
        let got = v2::decode_v2(&bytes).expect("decode");
        // The streaming layout orders sections differently (targets
        // stream out before n is known), so compare the graphs bit-for-
        // bit rather than the files byte-for-byte.
        assert_identical(&expected, &got);
        // And re-encoding the decoded graph is byte-stable.
        let mut reencoded = Vec::new();
        v2::write_v2(&got, &mut reencoded).expect("encode");
        let mut expected_bytes = Vec::new();
        v2::write_v2(&expected, &mut expected_bytes).expect("encode");
        assert_eq!(reencoded, expected_bytes, "canonical encodings diverge");
        std::fs::remove_file(&path).ok();
    }

    fn assert_identical(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.is_weighted(), b.is_weighted());
        for u in a.vertices() {
            assert_eq!(a.out_neighbors(u), b.out_neighbors(u), "{u} out");
            let wa: Option<Vec<u32>> = a
                .out_weights(u)
                .map(|ws| ws.iter().map(|w| w.to_bits()).collect());
            let wb: Option<Vec<u32>> = b
                .out_weights(u)
                .map(|ws| ws.iter().map(|w| w.to_bits()).collect());
            assert_eq!(wa, wb, "{u} weights");
        }
    }

    #[test]
    fn single_run_matches_the_in_ram_builder() {
        assert_matches_in_ram(
            &[
                (0, 1, 1.0),
                (2, 1, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (3, 0, 1.0),
            ],
            false,
            false,
            false,
            1024,
        );
    }

    #[test]
    fn multi_run_merge_matches_the_in_ram_builder() {
        // chunk=2 forces a spill every two records: many runs.
        let edges: Vec<(u32, u32, f32)> = (0..200u32)
            .map(|i| {
                let u = (i * 37) % 50;
                let v = (i * 61 + 13) % 50;
                (u, v, (i % 7) as f32 * 0.5)
            })
            .collect();
        for symmetrize in [false, true] {
            for weighted in [false, true] {
                assert_matches_in_ram(&edges, weighted, symmetrize, false, 2);
            }
        }
    }

    #[test]
    fn first_occurrence_weight_wins_across_runs() {
        // Same edge in different chunks with different weights: the
        // in-RAM builder keeps the first; the merge tie-break must too.
        assert_matches_in_ram(
            &[
                (0, 1, 9.0),
                (5, 6, 1.0),
                (0, 1, 2.0),
                (0, 1, 3.0),
                (5, 6, 4.0),
            ],
            true,
            false,
            false,
            2,
        );
    }

    #[test]
    fn self_loops_and_reserve_follow_builder_semantics() {
        assert_matches_in_ram(&[(3, 3, 1.0), (0, 1, 1.0)], false, false, false, 2);
        assert_matches_in_ram(&[(3, 3, 1.0), (0, 1, 1.0)], false, false, true, 2);
        let mut ext = ExternalGraphBuilder::new();
        ext.reserve_vertices(9);
        ext.add_edge(0, 1).expect("add");
        let path = tmp("reserve.snplg");
        let stats = ext.build(&path).expect("build");
        assert_eq!(stats.vertices, 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_builder_writes_an_openable_empty_graph() {
        let path = tmp("empty.snplg");
        let stats = ExternalGraphBuilder::new().build(&path).expect("build");
        assert_eq!(stats.edges, 0);
        let g = v2::decode_v2(&std::fs::read(&path).expect("read")).expect("decode");
        assert_eq!(g.num_vertices(), 0);
        let f = v2::FileCsr::open(&path).expect("open");
        // Loading every section finds nothing wrong with them.
        assert_eq!(crate::store::GraphStore::to_csr(&f).num_vertices(), 0);
        assert!(crate::store::GraphStore::check_fault(&f).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
