//! The streaming-update contract, across every backend.
//!
//! The contract of [`PreparedPredictor::apply_delta`]:
//!
//! 1. **Equivalence** — after any sequence of applied deltas, `execute`
//!    returns rows bit-identical to a cold `prepare` on the mutated
//!    graph (for every backend, including the supervised panel);
//! 2. **Composition** — `CsrGraph::compact` agrees with a ground-truth
//!    rebuild of the mutated edge list, so graph, partition, and
//!    prediction all see the same topology;
//! 3. **Serving** — `Server::apply_update` interleaves with prediction
//!    batches without breaking batch demultiplexing.

use proptest::prelude::*;

use snaple::baseline::{Baseline, BaselineConfig};
use snaple::cassovary::{RandomWalkConfig, RandomWalkPpr};
use snaple::core::serve::Server;
use snaple::core::{
    ExecuteRequest, NamedScore, Predictor, PrepareRequest, QuerySet, ScorePlan, Snaple,
    SnapleConfig,
};
use snaple::gas::ClusterSpec;
use snaple::graph::gen::datasets;
use snaple::graph::{CsrGraph, GraphBuilder, GraphDelta};

fn graph_from(edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(1);
    for (u, v) in edges {
        b.add_edge(*u, *v);
    }
    b.build()
}

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..30, 0u32..30), 1..200)
}

/// Random insert/remove batches, possibly referencing vertices beyond
/// the base range (growth) and edges that do not exist (no-ops). The
/// third field selects the operation (0 = insert, 1 = remove).
fn delta_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..34, 0u32..34, 0u32..2), 1..40)
}

fn build_delta(ops: &[(u32, u32, u32)]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for &(u, v, op) in ops {
        if op == 0 {
            delta.insert(u, v);
        } else {
            delta.remove(u, v);
        }
    }
    delta
}

/// All three stateless backends with a fixed seed, behind the trait.
fn backends() -> Vec<(&'static str, Box<dyn Predictor>)> {
    vec![
        (
            "snaple",
            Box::new(Snaple::new(
                SnapleConfig::new(NamedScore::LinearSum)
                    .k(5)
                    .klocal(Some(8))
                    .seed(42),
            )),
        ),
        (
            "baseline",
            Box::new(Baseline::new(BaselineConfig::new().k(5).seed(42))),
        ),
        (
            "random-walk-ppr",
            Box::new(RandomWalkPpr::new(
                RandomWalkConfig::new().walks(15).depth(3).seed(42),
            )),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// apply_delta + execute is bit-identical to a cold prepare on the
    /// mutated graph, for random graphs and random delta batches, across
    /// all backends.
    #[test]
    fn incremental_updates_match_cold_prepares(
        edges in edges_strategy(),
        ops in delta_strategy(),
        query_seed in 0u64..1_000,
    ) {
        let graph = graph_from(&edges);
        let cluster = ClusterSpec::type_ii(2);
        let delta = build_delta(&ops);
        let mutated = graph.compact(&delta);
        let queries = QuerySet::sample(mutated.num_vertices(), 12, query_seed);
        for (label, predictor) in backends() {
            let mut prepared = predictor
                .prepare(&PrepareRequest::new(&graph, &cluster))
                .unwrap();
            prepared.apply_delta(&delta).unwrap();
            let incremental = prepared
                .execute(&ExecuteRequest::new().with_queries(&queries))
                .unwrap();
            let cold_prepared = predictor
                .prepare(&PrepareRequest::new(&mutated, &cluster))
                .unwrap();
            let cold = cold_prepared
                .execute(&ExecuteRequest::new().with_queries(&queries))
                .unwrap();
            prop_assert_eq!(incremental.num_vertices(), cold.num_vertices(), "{}", label);
            for (u, preds) in incremental.iter() {
                prop_assert_eq!(
                    preds,
                    cold.for_vertex(u),
                    "{}: row {} diverged after delta",
                    label,
                    u
                );
            }
        }
    }

    /// A *sequence* of deltas composes: the deployment tracks the graph
    /// through several updates and still matches a cold prepare on the
    /// final state.
    #[test]
    fn delta_sequences_compose(
        edges in edges_strategy(),
        ops_a in delta_strategy(),
        ops_b in delta_strategy(),
    ) {
        let graph = graph_from(&edges);
        let cluster = ClusterSpec::type_ii(2);
        let (delta_a, delta_b) = (build_delta(&ops_a), build_delta(&ops_b));
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::Counter).k(4).klocal(Some(6)).seed(7),
        );
        let mut prepared = snaple
            .prepare(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        prepared.apply_delta(&delta_a).unwrap();
        prepared.apply_delta(&delta_b).unwrap();
        let incremental = prepared.execute(&ExecuteRequest::new()).unwrap();

        let final_graph = graph.compact(&delta_a).compact(&delta_b);
        let cold = snaple
            .prepare(&PrepareRequest::new(&final_graph, &cluster))
            .unwrap()
            .execute(&ExecuteRequest::new())
            .unwrap();
        prop_assert_eq!(incremental.num_vertices(), cold.num_vertices());
        for (u, preds) in incremental.iter() {
            prop_assert_eq!(preds, cold.for_vertex(u), "row {}", u);
        }
    }
}

/// The GOWALLA-style acceptance check: random churn batches on an
/// emulated dataset, bit-identical rows against a cold rebuild, for all
/// four backends plus a fused score plan (the supervised panel refreshes
/// its one shared deployment). Each backend is mutated both in place and
/// through an epoch fork, and the fork leaves its parent's rows as they
/// were before the delta.
#[test]
fn gowalla_churn_matches_cold_rebuild_across_all_four_backends() {
    use snaple::supervised::{SupervisedConfig, SupervisedSnaple};

    let graph = datasets::GOWALLA.emulate(0.004, 17);
    let cluster = ClusterSpec::type_ii(4);

    // ~1% churn: retract the first edges, add fresh non-edges.
    let mut delta = GraphDelta::new();
    for (u, v) in graph.edges().take(graph.num_edges() / 200) {
        delta.remove(u.as_u32(), v.as_u32());
    }
    let n = graph.num_vertices() as u32;
    let mut added = 0;
    'outer: for u in 0..n {
        for v in (n / 2)..n {
            let (uu, vv) = (
                snaple::graph::VertexId::new(u),
                snaple::graph::VertexId::new(v),
            );
            if u != v && !graph.has_edge(uu, vv) {
                delta.insert(u, v);
                added += 1;
                if added == graph.num_edges() / 200 {
                    break 'outer;
                }
            }
        }
    }
    let mutated = graph.compact(&delta);
    let queries = QuerySet::sample(graph.num_vertices(), 40, 3);

    let model = SupervisedSnaple::new(SupervisedConfig::new().k(3).seed(3))
        .train(&graph, &cluster)
        .unwrap();
    let plan = ScorePlan::parse("linearSum, counter@k3").unwrap();
    let mut all: Vec<(&str, Box<dyn Predictor>)> = backends();
    all.push(("supervised", Box::new(model)));
    all.push(("score-plan", Box::new(plan)));

    let exec = ExecuteRequest::new().with_queries(&queries);
    let mut changed_rows = 0;
    for (label, predictor) in all {
        let mut prepared = predictor
            .prepare(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let (fork, forked) = prepared.fork_with_delta(&delta).unwrap();
        let parent = prepared.execute(&exec).unwrap();
        let applied = prepared.apply_delta(&delta).unwrap();
        assert!(
            applied.inserted_edges > 0 && applied.removed_edges > 0,
            "{label}"
        );
        assert_eq!(
            (forked.inserted_edges, forked.removed_edges),
            (applied.inserted_edges, applied.removed_edges),
            "{label}"
        );
        let incremental = prepared.execute(&exec).unwrap();
        let forked_rows = fork.execute(&exec).unwrap();
        let cold_on = |g: &CsrGraph| {
            predictor
                .prepare(&PrepareRequest::new(g, &cluster))
                .unwrap()
                .execute(&exec)
                .unwrap()
        };
        let (cold, pre_delta) = (cold_on(&mutated), cold_on(&graph));
        changed_rows += queries
            .iter()
            .filter(|&q| cold.for_vertex(q) != pre_delta.for_vertex(q))
            .count();
        for q in queries.iter() {
            assert_eq!(
                incremental.for_vertex(q),
                cold.for_vertex(q),
                "{label}: row {q} diverged after churn"
            );
            assert_eq!(
                forked_rows.for_vertex(q),
                cold.for_vertex(q),
                "{label}: forked row {q} diverged after churn"
            );
            assert_eq!(
                parent.for_vertex(q),
                pre_delta.for_vertex(q),
                "{label}: forking changed the parent's row {q}"
            );
        }
    }
    // The parent checks only bite on rows the churn changes.
    assert!(changed_rows > 0, "the churn changed no queried row");
}

/// Server streams interleave updates with batches; the demultiplexed
/// rows always reflect the latest applied graph.
#[test]
fn served_streams_stay_exact_across_updates() {
    let graph = datasets::GOWALLA.emulate(0.004, 5);
    let cluster = ClusterSpec::type_ii(4);
    let snaple = Snaple::new(
        SnapleConfig::new(NamedScore::LinearSum)
            .k(5)
            .klocal(Some(10)),
    );
    let requests: Vec<QuerySet> = (0..4)
        .map(|i| QuerySet::sample(graph.num_vertices(), 25, i))
        .collect();

    let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
    server.serve_batch(&requests).unwrap();

    let mut delta = GraphDelta::new();
    for (u, v) in graph.edges().take(20) {
        delta.remove(u.as_u32(), v.as_u32());
    }
    delta.insert(0, graph.num_vertices() as u32); // grows the graph
    server.apply_update(&delta).unwrap();

    let mutated = graph.compact(&delta);
    let mut cold = Server::new(&snaple, &mutated, &cluster).unwrap();
    let updated = server.serve_batch(&requests).unwrap();
    let expected = cold.serve_batch(&requests).unwrap();
    for ((request, got), want) in requests.iter().zip(&updated).zip(&expected) {
        for q in request.iter() {
            assert_eq!(got.for_vertex(q), want.for_vertex(q), "row {q}");
        }
    }
    let stats = server.stats();
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.batches, 2);
    assert!(stats.delta_apply_seconds > 0.0);
}
