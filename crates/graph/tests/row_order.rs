//! The graph-file readers reject adjacency rows that are not strictly
//! increasing. Every intersection kernel and every binary-searching edge
//! lookup assumes sorted, duplicate-free rows, so a file that breaks
//! that must fail to load, naming the vertex, rather than load and
//! miscount: the `SNPLG1` reader, the eager `SNPLG2` decode (raw and
//! varint) and the lazy `FileCsr`, whose section loads record the fault
//! that `check_fault` returns.

use std::path::PathBuf;
use std::sync::Arc;

use snaple_graph::{io, v2, CsrGraph, FileCsr, GraphError, GraphStore, VertexId};

/// A graph store serving whatever rows it is given, sorted or not: the
/// rows a foreign or hand-edited writer could put in a CRC-valid file.
#[derive(Clone, Debug)]
struct Rows {
    out: Vec<Vec<VertexId>>,
    inn: Vec<Vec<VertexId>>,
}

impl Rows {
    fn new(out: &[&[u32]], inn: &[&[u32]]) -> Rows {
        let ids = |rows: &[&[u32]]| -> Vec<Vec<VertexId>> {
            rows.iter()
                .map(|r| r.iter().copied().map(VertexId::new).collect())
                .collect()
        };
        Rows {
            out: ids(out),
            inn: ids(inn),
        }
    }

    fn row(rows: &[Vec<VertexId>], u: VertexId) -> &[VertexId] {
        rows.get(u.index()).map_or(&[], Vec::as_slice)
    }
}

impl GraphStore for Rows {
    fn num_vertices(&self) -> usize {
        self.out.len()
    }
    fn num_edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
    fn is_weighted(&self) -> bool {
        false
    }
    fn out_degree(&self, u: VertexId) -> usize {
        self.out_neighbors(u).len()
    }
    fn in_degree(&self, u: VertexId) -> usize {
        self.in_neighbors(u).len()
    }
    fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        Rows::row(&self.out, u)
    }
    fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        Rows::row(&self.inn, u)
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

/// Three vertices with vertex 0's out-row unsorted or repeating an id,
/// and with vertex 2's in-row unsorted; each with the message its
/// readers must give.
fn bad_rows() -> [(&'static str, Rows, &'static str); 3] {
    let out0 = "out-adjacency row of vertex 0";
    [
        (
            "out-unsorted",
            Rows::new(&[&[2, 1], &[], &[]], &[&[], &[0], &[0]]),
            out0,
        ),
        (
            "out-duplicated",
            Rows::new(&[&[1, 1], &[], &[]], &[&[], &[0, 0], &[]]),
            out0,
        ),
        // 0 -> 2 and 1 -> 2, with vertex 2's in-row stored as [1, 0].
        (
            "in-unsorted",
            Rows::new(&[&[2], &[2], &[]], &[&[], &[], &[1, 0]]),
            "in-adjacency row of vertex 2",
        ),
    ]
}

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
        let expected = "out-adjacency row of vertex 0";
        assert_corrupt(io::read_binary(&bytes[..]), expected, name);
        let path = scratch_file(&format!("v1-{name}"), &bytes);
        assert_corrupt(io::open_store(&path), expected, name);
        std::fs::remove_file(&path).ok();
    }
    // The same bytes with the row in order load.
    let sorted = io::read_binary(&v1_with_row(&[1, 2])[..]).unwrap();
    assert_eq!(sorted.num_edges(), 2);
}

#[test]
fn eager_snplg2_rows_must_be_strictly_increasing() {
    for (name, rows, expected) in bad_rows() {
        let mut raw = Vec::new();
        v2::write_v2(&rows, &mut raw).unwrap();
        let mut varint = Vec::new();
        v2::write_v2_varint(&rows, &mut varint).unwrap();
        for (flavor, bytes) in [("raw", raw), ("varint", varint)] {
            let what = format!("{name} {flavor}");
            assert_corrupt(v2::decode_v2(&bytes), expected, &what);
            assert_corrupt(io::read_binary(&bytes[..]), expected, &what);
        }
    }
}

#[test]
fn lazy_snplg2_rows_fault_when_touched() {
    for (name, rows, expected) in bad_rows() {
        let mut bytes = Vec::new();
        v2::write_v2(&rows, &mut bytes).unwrap();
        let path = scratch_file(name, &bytes);
        let file = FileCsr::open(&path).expect("open reads only the prelude");
        assert!(file.check_fault().is_ok(), "{name}");
        // Touching the bad section serves it empty and records the fault.
        for u in 0..3 {
            let u = VertexId::new(u);
            let _ = (file.out_neighbors(u), file.in_neighbors(u));
        }
        assert_corrupt(file.check_fault(), expected, name);
        assert_eq!(file.to_csr().num_edges(), 0, "{name}");
        // The same through the format-dispatching opener.
        let store = io::open_store(&path).unwrap();
        assert_eq!(store.backend_name(), "file-csr");
        assert_eq!(store.to_csr().num_edges(), 0, "{name}");
        assert_corrupt(store.check_fault(), expected, name);
        std::fs::remove_file(&path).ok();
    }
}
