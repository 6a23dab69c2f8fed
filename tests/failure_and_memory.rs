//! Failure injection and memory-exhaustion behavior across the stack.

use snaple::baseline::{Baseline, BaselineConfig};
use snaple::core::{NamedScore, PredictRequest, Predictor, Snaple, SnapleConfig, SnapleError};
use snaple::gas::{ClusterSpec, Deployment, Engine, EngineError, NodeId, PartitionStrategy};
use snaple::graph::gen::datasets;

#[test]
fn node_failures_surface_through_the_predictor_stack() {
    // Drive the SNAPLE steps manually so we can inject a failure mid-run.
    use snaple::core::config::SelectionPolicy;
    use snaple::core::state::SnapleVertex;
    use snaple::core::steps::{NeighborhoodStep, SimilarityStep};

    let graph = datasets::GOWALLA.emulate(0.002, 5);
    let dep = Deployment::new(
        &graph,
        ClusterSpec::type_i(4),
        PartitionStrategy::RandomVertexCut,
        1,
    )
    .unwrap();
    let mut engine = Engine::on(&dep);
    engine.inject_failure(NodeId::new(2), 1);
    let mut state = vec![SnapleVertex::default(); graph.num_vertices()];

    engine
        .run_step(
            &NeighborhoodStep {
                thr_gamma: Some(200),
            },
            &mut state,
        )
        .expect("step 1 precedes the failure");

    let components = NamedScore::LinearSum.resolve(0.9);
    let err = engine
        .run_step(
            &SimilarityStep {
                components: &components,
                klocal: Some(10),
                selection: SelectionPolicy::Max,
            },
            &mut state,
        )
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::NodeFailure {
            node: NodeId::new(2),
            step: "snaple-2-similarity".into()
        }
    );
}

#[test]
fn baseline_oom_crossover_follows_graph_size() {
    // At matched (scaled) memory budgets, BASELINE survives the small
    // dataset and dies on the denser one — the paper's Table 5 crossover.
    let cluster_for = |scale: f64| ClusterSpec::type_ii(4).with_memory_scale(scale);

    let small = datasets::GOWALLA.emulate(0.01, 3);
    let small_cluster = cluster_for(0.01);
    let ok = Predictor::predict(
        &Baseline::new(BaselineConfig::new()),
        &PredictRequest::new(&small, &small_cluster),
    )
    .map(|p| p.total_predictions());
    assert!(ok.is_ok(), "gowalla-scale baseline should fit: {ok:?}");

    let dense = datasets::ORKUT.emulate(0.001, 3);
    let dense_cluster = cluster_for(0.001);
    let err = Predictor::predict(
        &Baseline::new(BaselineConfig::new()),
        &PredictRequest::new(&dense, &dense_cluster),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SnapleError::Engine(EngineError::ResourceExhausted { .. })
        ),
        "orkut-scale baseline should exhaust memory, got {err}"
    );
}

#[test]
fn snaple_survives_where_baseline_dies() {
    let dense = datasets::ORKUT.emulate(0.001, 3);
    let cluster = ClusterSpec::type_ii(4).with_memory_scale(0.001);
    let snaple = Predictor::predict(
        &Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20))),
        &PredictRequest::new(&dense, &cluster),
    );
    assert!(
        snaple.is_ok(),
        "snaple should fit in the same budget: {:?}",
        snaple.err()
    );
}

#[test]
fn memory_errors_carry_actionable_detail() {
    let graph = datasets::GOWALLA.emulate(0.005, 3);
    let starved = ClusterSpec {
        memory_per_node: 50_000,
        ..ClusterSpec::type_i(2)
    };
    let err = Predictor::predict(
        &Baseline::new(BaselineConfig::new()),
        &PredictRequest::new(&graph, &starved),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exhausted memory"), "{msg}");
    assert!(msg.contains("capacity"), "{msg}");
}
