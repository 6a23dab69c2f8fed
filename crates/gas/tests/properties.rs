//! Property tests for the GAS engine: partition coverage, execution
//! correctness against a sequential oracle, and accounting sanity.

use proptest::prelude::*;

use snaple_gas::{
    ClusterSpec, Deployment, Engine, EngineError, GasStep, GatherCtx, NodeId, PartitionStrategy,
    PartitionedGraph, WorkTally,
};
use snaple_graph::{CsrGraph, GraphBuilder, VertexId};

fn graph_from(edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(1);
    for (u, v) in edges {
        b.add_edge(*u, *v);
    }
    b.build()
}

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..40, 0u32..40), 1..250)
}

/// `new = Σ_{v ∈ Γ(u)} old(v) + 1` — order-insensitive integer program.
struct SumPlusOne;
impl GasStep for SumPlusOne {
    type Vertex = u64;
    type Gather = u64;
    fn name(&self) -> &str {
        "sum-plus-one"
    }
    fn gather(
        &self,
        _: &GatherCtx<'_>,
        _u: VertexId,
        _ud: &u64,
        _v: VertexId,
        vd: &u64,
        _w: &mut WorkTally,
    ) -> Option<u64> {
        Some(*vd)
    }
    fn sum(&self, a: u64, b: u64, _w: &mut WorkTally) -> u64 {
        a + b
    }
    fn apply(
        &self,
        _: &GatherCtx<'_>,
        _u: VertexId,
        d: &mut u64,
        acc: Option<u64>,
        _w: &mut WorkTally,
    ) {
        *d = acc.unwrap_or(0) + 1;
    }
}

fn oracle(graph: &CsrGraph, state: &[u64]) -> Vec<u64> {
    graph
        .vertices()
        .map(|u| {
            let neighbors = graph.out_neighbors(u);
            neighbors.iter().map(|v| state[v.index()]).sum::<u64>() + 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partitions_cover_every_edge_once(
        edges in edges_strategy(),
        nodes in 1usize..33,
        seed in 0u64..1_000,
    ) {
        let g = graph_from(&edges);
        for strategy in PartitionStrategy::all() {
            let p = PartitionedGraph::build(&g, nodes, strategy, seed).unwrap();
            prop_assert_eq!(p.total_edges(), g.num_edges());
            let mut seen: Vec<(u32, u32)> = (0..nodes)
                .flat_map(|n| {
                    p.node_edges(NodeId::new(n as u16))
                        .iter()
                        .map(|&(a, b)| (a.as_u32(), b.as_u32()))
                })
                .collect();
            seen.sort_unstable();
            let mut expected: Vec<(u32, u32)> =
                g.edges().map(|(a, b)| (a.as_u32(), b.as_u32())).collect();
            expected.sort_unstable();
            prop_assert_eq!(seen, expected, "{:?}", strategy);
            // Replication factor bounded by min(nodes, ...) per vertex.
            for v in g.vertices() {
                prop_assert!((1..=nodes as u32).contains(&p.replica_count(v)));
                prop_assert!(p.is_present(v, p.master(v)));
            }
        }
    }

    #[test]
    fn engine_matches_sequential_oracle(
        edges in edges_strategy(),
        nodes in 1usize..17,
        seed in 0u64..1_000,
        strategy_idx in 0usize..3,
    ) {
        let g = graph_from(&edges);
        let strategy = PartitionStrategy::all()[strategy_idx];
        let init: Vec<u64> = (0..g.num_vertices() as u64).map(|i| i % 13 + 1).collect();
        let dep = Deployment::new(&g, ClusterSpec::type_i(nodes), strategy, seed).unwrap();
        let expect = oracle(&g, &init);
        let mut state = init;
        let mut engine = Engine::on(&dep);
        engine.run_step(&SumPlusOne, &mut state).unwrap();
        prop_assert_eq!(state, expect, "{:?} on {} nodes", strategy, nodes);
    }

    #[test]
    fn accounting_is_internally_consistent(
        edges in edges_strategy(),
        nodes in 2usize..17,
        seed in 0u64..1_000,
    ) {
        let g = graph_from(&edges);
        let mut state: Vec<u64> = vec![1; g.num_vertices()];
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(nodes),
            PartitionStrategy::RandomVertexCut,
            seed,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let stats = engine.run_step(&SumPlusOne, &mut state).unwrap();
        // Engine-level invariants:
        prop_assert_eq!(stats.gather_calls, g.num_edges() as u64);
        prop_assert_eq!(stats.apply_calls, g.num_vertices() as u64);
        // Per-node net bytes sum to exactly twice the logical traffic
        // (each byte leaves one node and enters another).
        let node_net: u64 = stats.per_node.iter().map(|n| n.net_bytes).sum();
        prop_assert_eq!(node_net, 2 * stats.network_bytes());
        // Work includes at least one op per call.
        prop_assert!(stats.work_ops >= stats.gather_calls + stats.apply_calls);
        // Time is positive and includes the barrier latency.
        prop_assert!(stats.simulated_seconds >= 0.05);
    }

    #[test]
    fn single_node_runs_produce_no_traffic(edges in edges_strategy(), seed in 0u64..100) {
        let g = graph_from(&edges);
        let mut state: Vec<u64> = vec![1; g.num_vertices()];
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(1),
            PartitionStrategy::RandomVertexCut,
            seed,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let stats = engine.run_step(&SumPlusOne, &mut state).unwrap();
        prop_assert_eq!(stats.network_bytes(), 0);
        prop_assert!((engine.stats().replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_caps_bisect_cleanly(edges in edges_strategy(), seed in 0u64..100) {
        // With a generous cap the step succeeds; with a 1-byte cap it must
        // fail with ResourceExhausted (never panic or mis-report).
        let g = graph_from(&edges);
        let mut ok_state: Vec<u64> = vec![1; g.num_vertices()];
        let generous = ClusterSpec::type_i(4);
        let dep = Deployment::new(&g, generous, PartitionStrategy::RandomVertexCut, seed).unwrap();
        Engine::on(&dep)
            .run_step(&SumPlusOne, &mut ok_state)
            .unwrap();

        let starved = ClusterSpec {
            memory_per_node: 1,
            ..ClusterSpec::type_i(4)
        };
        let mut state: Vec<u64> = vec![1; g.num_vertices()];
        let dep = Deployment::new(&g, starved, PartitionStrategy::RandomVertexCut, seed).unwrap();
        let err = Engine::on(&dep)
            .run_step(&SumPlusOne, &mut state)
            .unwrap_err();
        let is_oom = matches!(err, EngineError::ResourceExhausted { .. });
        prop_assert!(is_oom);
    }
}
