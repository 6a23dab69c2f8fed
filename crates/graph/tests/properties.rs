//! Property tests for the graph substrate: builder normalization, CSR/IO
//! round trips, and statistics consistency.

use proptest::prelude::*;

use snaple_graph::{io, stats, GraphBuilder, VertexId};

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..60, 0u32..60), 0..300)
}

proptest! {
    #[test]
    fn builder_output_is_sorted_deduped_loop_free(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        for u in g.vertices() {
            let nbrs = g.out_neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted or dup at {u}");
            prop_assert!(!nbrs.contains(&u), "self loop at {u}");
        }
        // Every non-loop input edge must be present.
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge(VertexId::new(u), VertexId::new(v)));
            }
        }
    }

    #[test]
    fn symmetrize_produces_symmetric_graphs(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        b.symmetrize(true);
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(v, u), "({u}, {v}) lacks its reverse");
        }
        if g.num_edges() > 0 {
            prop_assert!((stats::reciprocity(&g) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn binary_io_round_trips_arbitrary_graphs(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let g2 = io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        for u in g.vertices() {
            prop_assert_eq!(g.out_neighbors(u), g2.out_neighbors(u));
        }
    }

    #[test]
    fn text_io_round_trips_arbitrary_graphs(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..], false).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
    }

    #[test]
    fn degree_cdf_is_a_distribution(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        b.reserve_vertices(1);
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        let cdf = stats::degree_cdf(&g);
        prop_assert!(!cdf.is_empty());
        prop_assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Coverage agrees with the CDF at each knot.
        for &(d, p) in &cdf {
            let c = stats::degree_coverage(&g, d);
            prop_assert!((c - p).abs() < 1e-9, "coverage({d}) = {c} vs cdf {p}");
        }
    }

    #[test]
    fn truncated_corrupt_binary_never_panics(
        edges in edges_strategy(),
        cut in 0usize..4096,
        flip in 0usize..4096,
    ) {
        let mut b = GraphBuilder::new();
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        // Truncation: must error or produce a valid graph, never panic.
        let cut = cut.min(buf.len());
        let _ = io::read_binary(&buf[..cut]);
        // Bit flip: same.
        if !buf.is_empty() {
            let mut corrupted = buf.clone();
            let i = flip % corrupted.len();
            corrupted[i] ^= 0x5a;
            let _ = io::read_binary(&corrupted[..]);
        }
    }
}
