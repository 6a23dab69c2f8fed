//! [`LiveGraph`], the one holder of a serving epoch's graph: folding a
//! delta into each of its holders (a borrowed or owned in-RAM graph, a
//! borrowed or shared `SNPLG2` file) gives what `CsrGraph::compact`
//! gives, a file that fails to load leaves the holder as it was, and
//! detaching shares a file instead of copying it into RAM.

use snaple_graph::{
    io, store, v2, CsrGraph, FileCsr, GraphBuilder, GraphDelta, GraphStore, LiveGraph,
};

/// `g` written as a raw `SNPLG2` file and opened lazily, with one
/// payload byte of `corrupt` (a section id) flipped when given.
fn file_graph(g: &CsrGraph, name: &str, corrupt: Option<u32>) -> FileCsr {
    let mut bytes = Vec::new();
    io::write_binary(g, &mut bytes).unwrap();
    if let Some(section) = corrupt {
        let header = v2::parse_header(&bytes, bytes.len() as u64).unwrap();
        let at = header.section(section).unwrap().offset as usize + 1;
        bytes[at] ^= 0xff;
    }
    let path = std::env::temp_dir().join(format!(
        "snaple-live-graph-{name}-{}.snplg",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    let file = FileCsr::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    file
}

fn assert_same_graph(a: &dyn GraphStore, b: &CsrGraph) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    for u in b.vertices() {
        assert_eq!(a.out_neighbors(u), b.out_neighbors(u), "out-list of {u}");
        assert_eq!(a.out_weights(u), b.out_weights(u), "weights of {u}");
    }
}

#[test]
fn fold_matches_compact_in_every_holder() {
    let mut b = GraphBuilder::new();
    for (u, z, w) in [
        (0, 1, 0.5),
        (0, 3, 2.0),
        (1, 2, 1.5),
        (2, 0, 0.25),
        (3, 1, 4.0),
    ] {
        b.add_weighted_edge(u, z, w);
    }
    let g = b.build();
    let mut d = GraphDelta::new();
    d.remove(0, 3)
        .insert_weighted(0, 2, 0.75)
        .insert(5, 1)
        .remove(2, 0);
    let expected = g.compact(&d);
    let file = file_graph(&g, "fold", None);
    let holders = [
        LiveGraph::Borrowed(&g),
        LiveGraph::Owned(g.clone()),
        LiveGraph::Borrowed(&file),
        LiveGraph::Shared(file.clone_shared()),
    ];
    for mut live in holders {
        let overlay = d.resolve(live.store());
        live.fold(&overlay).unwrap();
        assert!(matches!(live, LiveGraph::Owned(_)));
        assert_same_graph(live.store(), &expected);
        // A second fold consumes the owned graph in place.
        let mut again = GraphDelta::new();
        again.insert(1, 0);
        let overlay = again.resolve(live.store());
        live.fold(&overlay).unwrap();
        assert_same_graph(live.store(), &expected.compact(&again));
    }
}

#[test]
fn fold_of_a_faulted_file_keeps_the_holder() {
    let mut b = GraphBuilder::new();
    for u in 0..6 {
        b.add_weighted_edge(u, (u + 1) % 6, 0.5 + u as f32);
    }
    let g = b.build();
    // Weights are the one section a fold reads that resolving does not.
    let file = file_graph(&g, "fault", Some(v2::SEC_OUT_WEIGHTS));
    let mut d = GraphDelta::new();
    d.insert(0, 3).remove(1, 2);
    for mut live in [
        LiveGraph::Borrowed(&file),
        LiveGraph::Shared(file.clone_shared()),
    ] {
        // Resolving reads the rows only, which still load.
        let overlay = d.resolve(live.store());
        let err = live.fold(&overlay).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_eq!(live.store().backend_name(), "file-csr");
        assert_eq!(live.store().num_edges(), g.num_edges());
        let edges: Vec<_> = store::edges(live.store()).collect();
        assert_eq!(edges, g.edges().collect::<Vec<_>>());
    }
}

#[test]
fn detach_shares_files_and_copies_ram_graphs() {
    let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
    let file = file_graph(&g, "detach", None);
    let shared = LiveGraph::Borrowed(&file).detach();
    assert!(matches!(shared, LiveGraph::Shared(_)));
    assert_eq!(shared.store().backend_name(), "file-csr");
    assert_same_graph(shared.store(), &g);
    let copied = LiveGraph::Borrowed(&g).detach();
    assert!(matches!(copied, LiveGraph::Owned(_)));
    assert_same_graph(copied.store(), &g);
    assert_eq!(shared.detach().store().backend_name(), "file-csr");
}
