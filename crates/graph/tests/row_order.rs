//! Adjacency rows must be strictly increasing. Every intersection kernel
//! and every binary-searching edge lookup assumes sorted, duplicate-free
//! rows, so a file that breaks that must fail to load, naming the
//! vertex, rather than load and miscount: the `SNPLG1` reader, the eager
//! `SNPLG2` decode (raw and varint) and the lazy `FileCsr`, whose section
//! loads record the fault that `check_fault` returns. The `SNPLG2`
//! writers refuse such rows too, so they never produce those files.

use std::path::PathBuf;
use std::sync::Arc;

use snaple_graph::codec::crc32;
use snaple_graph::{io, v2, CsrGraph, FileCsr, GraphError, GraphStore, VertexId};

/// A graph store serving whatever out-rows it is given, sorted or not:
/// the rows a foreign or buggy source could hand a writer.
#[derive(Clone, Debug)]
struct Rows(Vec<Vec<VertexId>>);

impl Rows {
    fn new(rows: &[&[u32]]) -> Rows {
        Rows(
            rows.iter()
                .map(|r| r.iter().copied().map(VertexId::new).collect())
                .collect(),
        )
    }
}

impl GraphStore for Rows {
    fn num_vertices(&self) -> usize {
        self.0.len()
    }
    fn num_edges(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
    fn is_weighted(&self) -> bool {
        false
    }
    fn out_degree(&self, u: VertexId) -> usize {
        self.out_neighbors(u).len()
    }
    fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.0.get(u.index()).map_or(&[], Vec::as_slice)
    }
    fn out_weights(&self, _: VertexId) -> Option<&[f32]> {
        None
    }
    fn backend_name(&self) -> &'static str {
        "rows"
    }
    fn storage_bytes(&self) -> u64 {
        0
    }
    /// Not called here: the writers read rows through the accessors.
    fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_edges(self.num_vertices(), &[])
    }
    fn clone_shared(&self) -> Arc<dyn GraphStore> {
        Arc::new(self.clone())
    }
}

/// `file` with the payload of each listed section replaced, the sections
/// laid out again and each one's CRC re-sealed with `codec::crc32`: a
/// CRC-valid file holding whatever bytes a foreign writer put there.
fn patched(file: &[u8], patches: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let header = v2::parse_header(file, file.len() as u64).unwrap();
    let mut out = file[..v2::HEADER2_LEN].to_vec();
    let mut payloads = Vec::new();
    let mut at = (v2::HEADER2_LEN + header.sections.len() * v2::SECTION_ENTRY_LEN) as u64;
    for sec in &header.sections {
        let payload = match patches.iter().find(|(kind, _)| *kind == sec.kind) {
            Some((_, bytes)) => bytes.clone(),
            None => file[sec.offset as usize..(sec.offset + sec.byte_len) as usize].to_vec(),
        };
        out.extend_from_slice(&sec.kind.to_le_bytes());
        out.extend_from_slice(&crc32(0, &payload).to_le_bytes());
        out.extend_from_slice(&at.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&sec.elem_count.to_le_bytes());
        at += payload.len() as u64;
        payloads.extend_from_slice(&payload);
    }
    out.extend_from_slice(&payloads);
    out
}

/// CRC-valid raw and varint `SNPLG2` files of 3 vertices whose only row,
/// vertex 0's, is unsorted (`[2, 1]`) or repeats an id (`[1, 1]`): valid
/// files of `0 -> 1, 0 -> 2` with the targets patched.
fn bad_files() -> [(&'static str, Vec<u8>, Vec<u8>); 2] {
    let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
    let mut raw = Vec::new();
    v2::write_v2(&g, &mut raw).unwrap();
    let mut varint = Vec::new();
    v2::write_v2_varint(&g, &mut varint).unwrap();
    let ids = |row: [u32; 2]| -> Vec<u8> { row.iter().flat_map(|id| id.to_le_bytes()).collect() };
    // The varint row is its first id, then LEB128 gaps: 1 - 2 wraps to
    // u32::MAX, five bytes. Three vertices make one block, whose byte
    // index is [0, stream length].
    let varint_with = |stream: Vec<u8>| -> Vec<u8> {
        let index: Vec<u8> = [0u64, stream.len() as u64]
            .iter()
            .flat_map(|at| at.to_le_bytes())
            .collect();
        patched(
            &varint,
            &[
                (v2::SEC_OUT_TARGETS_VARINT, stream),
                (v2::SEC_OUT_BLOCK_INDEX, index),
            ],
        )
    };
    [
        (
            "unsorted",
            patched(&raw, &[(v2::SEC_OUT_TARGETS, ids([2, 1]))]),
            varint_with(vec![0x02, 0xff, 0xff, 0xff, 0xff, 0x0f]),
        ),
        (
            "duplicated",
            patched(&raw, &[(v2::SEC_OUT_TARGETS, ids([1, 1]))]),
            varint_with(vec![0x01, 0x00]),
        ),
    ]
}

const BAD_ROW: &str = "out-adjacency row of vertex 0";

fn scratch_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "snaple-row-order-{name}-{}.snplg",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn assert_corrupt<T>(result: Result<T, GraphError>, expected: &str, what: &str) {
    match result {
        Err(GraphError::Corrupt(msg)) => assert!(msg.contains(expected), "{what}: {msg}"),
        Err(other) => panic!("{what}: expected Corrupt, got {other}"),
        Ok(_) => panic!("{what}: expected Corrupt, the file loaded"),
    }
}

/// A hand-crafted `SNPLG1` file: 3 unweighted vertices, vertex 0's
/// out-row is `row`.
fn v1_with_row(row: &[u32]) -> Vec<u8> {
    let mut bytes = b"SNPLG1".to_vec();
    bytes.push(0);
    let m = row.len() as u64;
    for word in [3, m, 0, m, m, m] {
        bytes.extend_from_slice(&u64::to_le_bytes(word));
    }
    for &t in row {
        bytes.extend_from_slice(&t.to_le_bytes());
    }
    bytes
}

#[test]
fn snplg1_rows_must_be_strictly_increasing() {
    for (name, row) in [("unsorted", [2u32, 1]), ("duplicated", [1, 1])] {
        let bytes = v1_with_row(&row);
        assert_corrupt(io::read_binary(&bytes[..]), BAD_ROW, name);
        let path = scratch_file(&format!("v1-{name}"), &bytes);
        assert_corrupt(io::open_store(&path), BAD_ROW, name);
        std::fs::remove_file(&path).ok();
    }
    // The same bytes with the row in order load.
    let sorted = io::read_binary(&v1_with_row(&[1, 2])[..]).unwrap();
    assert_eq!(sorted.num_edges(), 2);
}

#[test]
fn eager_snplg2_rows_must_be_strictly_increasing() {
    for (name, raw, varint) in bad_files() {
        for (flavor, bytes) in [("raw", raw), ("varint", varint)] {
            let what = format!("{name} {flavor}");
            assert_corrupt(v2::decode_v2(&bytes), BAD_ROW, &what);
            assert_corrupt(io::read_binary(&bytes[..]), BAD_ROW, &what);
        }
    }
}

#[test]
fn lazy_snplg2_rows_fault_when_touched() {
    for (name, bytes, _) in bad_files() {
        let path = scratch_file(name, &bytes);
        let file = FileCsr::open(&path).expect("open reads only the prelude");
        assert!(file.check_fault().is_ok(), "{name}");
        // Touching the bad section serves it empty and records the fault.
        for u in 0..3 {
            let _ = file.out_neighbors(VertexId::new(u));
        }
        assert_corrupt(file.check_fault(), BAD_ROW, name);
        assert_eq!(file.to_csr().num_edges(), 0, "{name}");
        // The same through the format-dispatching opener.
        let store = io::open_store(&path).unwrap();
        assert_eq!(store.backend_name(), "file-csr");
        assert_eq!(store.to_csr().num_edges(), 0, "{name}");
        assert_corrupt(store.check_fault(), BAD_ROW, name);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn writers_refuse_rows_a_reader_would_refuse() {
    for (name, rows, expected) in [
        (
            "unsorted",
            Rows::new(&[&[2, 1], &[], &[]]),
            "not strictly increasing",
        ),
        ("duplicated", Rows::new(&[&[], &[0, 0], &[]]), "vertex 1"),
        (
            "out of range",
            Rows::new(&[&[1], &[], &[0, 3]]),
            "out of range",
        ),
    ] {
        let mut raw = Vec::new();
        assert_corrupt(v2::write_v2(&rows, &mut raw), expected, name);
        // The rows are checked before the prelude is written.
        assert!(raw.is_empty(), "{name}: wrote {} bytes", raw.len());
        let mut varint = Vec::new();
        assert_corrupt(v2::write_v2_varint(&rows, &mut varint), expected, name);
        assert!(varint.is_empty(), "{name}: wrote {} bytes", varint.len());
    }
    // Sorted rows write and read back.
    let rows = Rows::new(&[&[1, 2], &[], &[0]]);
    let mut raw = Vec::new();
    v2::write_v2(&rows, &mut raw).unwrap();
    assert_eq!(v2::decode_v2(&raw).unwrap().num_edges(), 3);
}
