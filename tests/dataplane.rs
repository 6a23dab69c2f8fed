//! Property tests for the billion-edge data plane:
//!
//! 1. a `SNPLG2` round trip is **bit-identical** to the in-memory
//!    [`CsrGraph`] — including graphs that have been relabeled or
//!    delta-compacted first (the shapes serving actually writes);
//! 2. the out-of-core [`ExternalGraphBuilder`] produces exactly the
//!    graph the in-RAM [`GraphBuilder`] produces, on arbitrary edge
//!    lists and with chunk sizes small enough to force multi-run
//!    spills and k-way merges;
//! 3. SNAPLE prediction rows are bit-identical across the `csr` and
//!    `file-csr` storage backends and a varint file opened through
//!    `io::open_store`;
//! 4. forged or truncated `SNPLG2` bytes are rejected with typed
//!    errors on every open path — never a panic;
//! 5. a section that fails its checksum after open fails the run with
//!    a typed error instead of serving an empty graph.

use proptest::prelude::*;

use snaple::core::{
    ExecuteRequest, NamedScore, PredictRequest, Predictor, PrepareRequest, QuerySet, Snaple,
    SnapleConfig,
};
use snaple::gas::ClusterSpec;
use snaple::graph::relabel::Relabeling;
use snaple::graph::{
    io, store, v2, CsrGraph, ExternalGraphBuilder, FileCsr, GraphBuilder, GraphDelta, GraphStore,
};

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..48, 0u32..48), 0..260)
}

fn weighted_edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
    proptest::collection::vec((0u32..48, 0u32..48, 0.25f32..8.0), 0..260)
}

/// One prediction row: the source vertex and its ranked (target, score)
/// pairs.
type Row = (u32, Vec<(snaple::graph::VertexId, f32)>);

fn build(edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Full structural equality between two stores: vertex/edge counts,
/// out-adjacency, and out-weights.
fn assert_same_graph(a: &dyn GraphStore, b: &dyn GraphStore) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.is_weighted(), b.is_weighted());
    for u in store::vertices(a) {
        assert_eq!(a.out_neighbors(u), b.out_neighbors(u), "out row {u}");
        let wa: Option<Vec<f32>> = a.out_weights(u).map(|w| w.to_vec());
        let wb: Option<Vec<f32>> = b.out_weights(u).map(|w| w.to_vec());
        assert_eq!(wa, wb, "weights row {u}");
    }
}

/// Unique scratch path per test case (proptest runs cases in one
/// process, so the pid alone is not enough).
fn scratch(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snaple-dp-{tag}-{}-{case}", std::process::id()))
}

proptest! {
    /// SNPLG2 round trip == the in-memory graph, bit for bit, via both
    /// the eager reader and the zero-parse `FileCsr` backend.
    #[test]
    fn snplg2_round_trips_bit_identical(edges in edges_strategy(), case in 0u64..u64::MAX) {
        let g = build(&edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        prop_assert_eq!(&buf[..6], b"SNPLG2");

        let eager = io::read_binary(&buf[..]).unwrap();
        assert_same_graph(&g, &eager);

        let path = scratch("rt", case);
        std::fs::write(&path, &buf).unwrap();
        let lazy = FileCsr::open(&path).unwrap();
        assert_same_graph(&g, &lazy);
        // Hydrating the file backend reproduces the original CsrGraph.
        assert_same_graph(&g, &lazy.to_csr());
        std::fs::remove_file(&path).ok();
    }

    /// The round trip also holds for the graph shapes serving writes:
    /// degree-relabeled and delta-compacted graphs.
    #[test]
    fn relabeled_and_compacted_graphs_round_trip(
        edges in edges_strategy(),
        inserts in proptest::collection::vec((0u32..48, 0u32..48), 0..40),
        removes in proptest::collection::vec((0u32..48, 0u32..48), 0..20),
    ) {
        let base = build(&edges);

        let relabeled = Relabeling::degree_order(&base).apply(&base);
        let mut buf = Vec::new();
        io::write_binary(&relabeled, &mut buf).unwrap();
        assert_same_graph(&relabeled, &io::read_binary(&buf[..]).unwrap());

        let mut delta = GraphDelta::new();
        for &(u, v) in &inserts {
            delta.insert(u, v);
        }
        for &(u, v) in &removes {
            delta.remove(u, v);
        }
        let compacted = base.compact(&delta);
        let mut buf = Vec::new();
        io::write_binary(&compacted, &mut buf).unwrap();
        assert_same_graph(&compacted, &io::read_binary(&buf[..]).unwrap());
    }

    /// Weighted graphs keep exact (bit-level) weights through v2 and
    /// through the varint-compressed flavor.
    #[test]
    fn weighted_round_trip_all_flavors(wedges in weighted_edges_strategy()) {
        let mut b = GraphBuilder::new();
        for &(u, v, w) in &wedges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();

        let mut raw = Vec::new();
        io::write_binary(&g, &mut raw).unwrap();
        assert_same_graph(&g, &io::read_binary(&raw[..]).unwrap());

        let mut vz = Vec::new();
        v2::write_v2_varint(&g, &mut vz).unwrap();
        assert_same_graph(&g, &io::read_binary(&vz[..]).unwrap());
    }

    /// The chunk-spilling external builder builds exactly the graph the
    /// in-RAM builder builds — tiny chunks force real spill runs and a
    /// k-way merge.
    #[test]
    fn external_builder_matches_in_ram_builder(
        edges in edges_strategy(),
        chunk in 1usize..64,
        sym in 0u32..2,
        case in 0u64..u64::MAX,
    ) {
        let symmetrize = sym == 1;
        let mut in_ram = GraphBuilder::new();
        in_ram.symmetrize(symmetrize);
        let mut ext = ExternalGraphBuilder::with_chunk_edges(chunk);
        ext.symmetrize(symmetrize);
        for &(u, v) in &edges {
            in_ram.add_edge(u, v);
            ext.add_edge(u, v).unwrap();
        }
        let expected = in_ram.build();

        let path = scratch("ext", case);
        let stats = ext.build(&path).unwrap();
        let built = FileCsr::open(&path).unwrap();
        prop_assert_eq!(stats.edges, expected.num_edges());
        assert_same_graph(&expected, &built);
        std::fs::remove_file(&path).ok();
    }

    /// SNAPLE prediction rows are bit-identical whichever storage
    /// backend serves the adjacency.
    #[test]
    fn predictions_identical_across_backends(
        edges in proptest::collection::vec((0u32..32, 0u32..32), 10..120),
        case in 0u64..u64::MAX,
    ) {
        let g = build(&edges);
        let mut raw = Vec::new();
        io::write_binary(&g, &mut raw).unwrap();
        let path = scratch("pred", case);
        std::fs::write(&path, &raw).unwrap();
        let file_csr = FileCsr::open(&path).unwrap();
        let varint = {
            let mut vz = Vec::new();
            v2::write_v2_varint(&g, &mut vz).unwrap();
            let vz_path = scratch("predvz", case);
            std::fs::write(&vz_path, &vz).unwrap();
            let opened = io::open_store(&vz_path).unwrap();
            std::fs::remove_file(&vz_path).ok();
            opened
        };

        let cluster = ClusterSpec::type_i(2);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum).k(4).klocal(Some(8)).seed(7),
        );
        let backends: [&dyn GraphStore; 3] = [&g, &file_csr, varint.as_ref()];
        let mut reference: Option<Vec<Row>> = None;
        for backend in backends {
            let pred = snaple.predict(&PredictRequest::new(backend, &cluster)).unwrap();
            let rows: Vec<Row> = store::vertices(backend)
                .map(|v| (v.as_u32(), pred.for_vertex(v).to_vec()))
                .collect();
            match &reference {
                None => reference = Some(rows),
                Some(expected) => prop_assert_eq!(
                    expected,
                    &rows,
                    "rows diverged on backend {}",
                    backend.backend_name()
                ),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Truncations and bit flips of SNPLG2 bytes (both flavors) are
    /// rejected with typed errors on every open path — never a panic.
    #[test]
    fn forged_snplg2_never_panics(
        edges in edges_strategy(),
        cut in 0usize..4096,
        flip in 0usize..4096,
        case in 0u64..u64::MAX,
    ) {
        let g = build(&edges);
        let mut raw = Vec::new();
        io::write_binary(&g, &mut raw).unwrap();
        let mut vz = Vec::new();
        v2::write_v2_varint(&g, &mut vz).unwrap();

        let path = scratch("forge", case);
        for buf in [&raw, &vz] {
            // Truncation: error or valid graph, never a panic.
            let cut = cut.min(buf.len());
            let _ = io::read_binary(&buf[..cut]);
            std::fs::write(&path, &buf[..cut]).unwrap();
            let _ = FileCsr::open(&path);
            let _ = io::open_store(&path);
            // Bit flip: same.
            if !buf.is_empty() {
                let mut forged = (*buf).clone();
                let i = flip % forged.len();
                forged[i] ^= 0x5a;
                let _ = io::read_binary(&forged[..]);
                std::fs::write(&path, &forged).unwrap();
                let _ = FileCsr::open(&path);
                let _ = io::open_store(&path);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `FileCsr` refuses to open a varint-flavored file (the zero-parse
/// contract only holds for raw sections) with a typed error naming
/// `io::open_store`, which decodes it into the in-RAM `csr` backend.
#[test]
fn flavor_mismatch_is_a_typed_error() {
    let g = build(&[(0, 1), (1, 2), (2, 0)]);
    let dir = std::env::temp_dir();
    let raw_path = dir.join(format!("snaple-dp-flavor-raw-{}.snplg", std::process::id()));
    let vz_path = dir.join(format!("snaple-dp-flavor-vz-{}.snplg", std::process::id()));

    let mut raw = Vec::new();
    io::write_binary(&g, &mut raw).unwrap();
    std::fs::write(&raw_path, &raw).unwrap();
    let mut vz = Vec::new();
    v2::write_v2_varint(&g, &mut vz).unwrap();
    std::fs::write(&vz_path, &vz).unwrap();

    let refused = FileCsr::open(&vz_path).unwrap_err().to_string();
    assert!(refused.contains("io::open_store"), "{refused}");
    // open_store dispatches both correctly.
    assert_eq!(
        io::open_store(&raw_path).unwrap().backend_name(),
        "file-csr"
    );
    assert_eq!(io::open_store(&vz_path).unwrap().backend_name(), "csr");

    std::fs::remove_file(&raw_path).ok();
    std::fs::remove_file(&vz_path).ok();
}

/// Writes `g` as a raw SNPLG2 file with one payload byte of section
/// `kind` flipped, so the file opens cleanly and the section fails its
/// checksum when it is first loaded.
fn write_with_corrupt_section(g: &CsrGraph, kind: u32, tag: &str) -> std::path::PathBuf {
    let mut raw = Vec::new();
    io::write_binary(g, &mut raw).unwrap();
    let header = v2::parse_header(&raw, raw.len() as u64).unwrap();
    let at = header.section(kind).unwrap().offset as usize + 1;
    raw[at] ^= 0xff;
    let path = scratch(tag, 0);
    std::fs::write(&path, &raw).unwrap();
    path
}

/// A section that fails its checksum after open is an error from
/// prepare, from a one-shot predict (with and without queries), from
/// random-walk execute and from delta apply/fork — never rows computed
/// over an empty section. A corrupt section the run never reads (the
/// out-weights, which neither the partition build nor the plan's
/// gathers read) is not loaded, and the run's rows match the intact
/// graph's; the first delta, whose fold copies the weights, is refused.
#[test]
fn corrupt_section_is_a_typed_error_not_an_empty_graph() {
    let edges: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|u| [(u, (u + 1) % 40), (u, (u * 7 + 3) % 40)])
        .collect();
    let g = build(&edges);
    let cluster = ClusterSpec::type_i(2);
    let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).k(4).seed(7));
    let queries = QuerySet::from_indices([0, 5, 17]);
    let expect_fault = |err: String| assert!(err.contains("checksum mismatch"), "{err}");

    let out_path = write_with_corrupt_section(&g, v2::SEC_OUT_TARGETS, "corrupt-out");
    for q in [None, Some(&queries)] {
        let file = FileCsr::open(&out_path).unwrap();
        let mut req = PredictRequest::new(&file, &cluster);
        if let Some(q) = q {
            req = req.with_queries(q);
        }
        expect_fault(snaple.predict(&req).unwrap_err().to_string());
    }
    let file = FileCsr::open(&out_path).unwrap();
    let prepared = snaple.prepare(&PrepareRequest::new(&file, &cluster));
    expect_fault(prepared.err().unwrap().to_string());
    let walk = snaple::cassovary::RandomWalkPpr::new(
        snaple::cassovary::RandomWalkConfig::new().walks(4).depth(3),
    );
    let file = FileCsr::open(&out_path).unwrap();
    let walked = walk.predict(&PredictRequest::new(&file, &cluster).with_queries(&queries));
    expect_fault(walked.unwrap_err().to_string());
    std::fs::remove_file(&out_path).ok();

    let mut weighted = GraphBuilder::new();
    for &(u, v) in &edges {
        weighted.add_weighted_edge(u, v, 0.5 + (u % 3) as f32);
    }
    let gw = weighted.build();
    let weights_path = write_with_corrupt_section(&gw, v2::SEC_OUT_WEIGHTS, "corrupt-weights");
    let mut delta = GraphDelta::new();
    delta.insert(0, 20);
    let walk_file = FileCsr::open(&weights_path).unwrap();
    let walk_prepared = walk
        .prepare(&PrepareRequest::new(&walk_file, &cluster))
        .unwrap();
    expect_fault(
        walk_prepared
            .fork_with_delta(&delta)
            .err()
            .unwrap()
            .to_string(),
    );
    let file = FileCsr::open(&weights_path).unwrap();
    let mut prepared = snaple
        .prepare(&PrepareRequest::new(&file, &cluster))
        .unwrap();
    let served = prepared
        .execute(&ExecuteRequest::new().with_queries(&queries))
        .unwrap();
    let clean = snaple
        .predict(&PredictRequest::new(&gw, &cluster).with_queries(&queries))
        .unwrap();
    for q in queries.iter() {
        assert_eq!(served.for_vertex(q), clean.for_vertex(q));
    }
    expect_fault(prepared.fork_with_delta(&delta).err().unwrap().to_string());
    expect_fault(prepared.apply_delta(&delta).unwrap_err().to_string());
    std::fs::remove_file(&weights_path).ok();
}
