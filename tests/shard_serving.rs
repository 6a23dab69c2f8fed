//! The shard-serving contract.
//!
//! What the scatter-gather [`ShardRouter`] guarantees, and what this
//! suite proves:
//!
//! 1. **Bit-identity** — for every shard count (1..=4) and both
//!    transports (threads, `snaple-shardd` processes), the rows served
//!    through the router are byte-identical to a single-process
//!    [`ConcurrentServer`] and to a directly-prepared predictor, for
//!    SNAPLE configs and multi-spec plans alike.
//! 2. **Deltas mid-stream** — a [`GraphDelta`] broadcast through
//!    [`RouterHandle::apply_update`] swaps every shard to the post-delta
//!    epoch; rows served afterwards equal a cold rebuild on the mutated
//!    graph, bit for bit, on both transports.
//! 3. **Fault containment** — a hard-killed shard process surfaces as
//!    [`SnapleError::ShardFailed`] on the requests routed to it (never a
//!    hang and never a router crash), the surviving shards keep serving,
//!    and [`RouterHandle::drain`] still completes.

use snaple::core::concurrent::{ConcurrentOptions, ConcurrentServer};
use snaple::core::shard::{ShardOptions, ShardRouter, ShardSpec, ShardTransport};
use snaple::core::{
    ExecuteRequest, NamedScore, PlanConfig, Prediction, Predictor, PrepareRequest, QuerySet,
    ScorePlan, ScoreSpec, Server, Snaple, SnapleConfig, SnapleError,
};
use snaple::gas::ClusterSpec;
use snaple::graph::gen::datasets;
use snaple::graph::{CsrGraph, GraphDelta};

/// The `snaple-shardd` binary Cargo built alongside this test.
const SHARDD: &str = env!("CARGO_BIN_EXE_snaple-shardd");

fn config() -> SnapleConfig {
    SnapleConfig::new(NamedScore::LinearSum)
        .k(5)
        .klocal(Some(10))
}

/// The one-column plan a `Snaple` of [`config`] prepares, as it crosses
/// the shard wire.
fn spec() -> ShardSpec {
    ShardSpec::Plan {
        specs: vec!["linearSum".into()],
        config: PlanConfig::new().k(5).klocal(Some(10)),
    }
}

fn setup() -> (CsrGraph, ClusterSpec) {
    (datasets::GOWALLA.emulate(0.004, 3), ClusterSpec::type_ii(8))
}

fn options(shards: usize, transport: ShardTransport) -> ShardOptions {
    ShardOptions::new()
        .shards(shards)
        .transport(transport)
        .shardd_binary(SHARDD)
}

fn churn(graph: &CsrGraph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for (u, v) in graph.edges().take(4) {
        delta.remove(u.as_u32(), v.as_u32());
    }
    let n = graph.num_vertices() as u32;
    delta.insert(2, n - 1).insert(n - 3, 5).insert(7, n - 4);
    delta
}

fn rows_equal(request: &QuerySet, a: &Prediction, b: &Prediction) -> bool {
    request.iter().all(|q| a.for_vertex(q) == b.for_vertex(q))
}

const TRANSPORTS: [ShardTransport; 2] = [ShardTransport::Threads, ShardTransport::Processes];

#[test]
fn sharded_rows_are_bit_identical_for_every_shard_count_and_transport() {
    // The tentpole acceptance property: scatter-gather across 1..=4
    // shards, on both transports, serves exactly the rows the
    // single-process oracle serves.
    let (graph, cluster) = setup();
    let snaple = Snaple::new(config());
    let requests: Vec<QuerySet> = (0..6)
        .map(|seed| QuerySet::sample(graph.num_vertices(), 25 + seed as usize, seed))
        .collect();

    let prepared = snaple
        .prepare(&PrepareRequest::new(&graph, &cluster))
        .unwrap();
    let expected: Vec<Prediction> = requests
        .iter()
        .map(|q| {
            prepared
                .execute(&ExecuteRequest::new().with_queries(q))
                .unwrap()
        })
        .collect();

    let spec = spec();
    for transport in TRANSPORTS {
        for shards in 1..=4 {
            let outcome = ShardRouter::run(
                &spec,
                &graph,
                &cluster,
                options(shards, transport),
                |handle| {
                    requests
                        .iter()
                        .map(|q| handle.serve(q).unwrap())
                        .collect::<Vec<_>>()
                },
            )
            .unwrap();
            for (request, (got, want)) in requests.iter().zip(outcome.value.iter().zip(&expected)) {
                assert!(
                    rows_equal(request, got, want),
                    "rows diverged: {shards} shards, {transport:?}"
                );
            }
            assert_eq!(outcome.stats.requests, requests.len());
            assert_eq!(outcome.stats.workers, shards);
            // One shard-side latency sample per (request, involved
            // shard) pair — at least one per request.
            assert!(outcome.stats.latency.count() as usize >= requests.len());
        }
    }
}

#[test]
fn sharded_rows_match_the_concurrent_server() {
    // Cross-runtime equivalence: the shard router and the worker-pool
    // server answer the same requests identically.
    let (graph, cluster) = setup();
    let snaple = Snaple::new(config());
    let requests: Vec<QuerySet> = (0..4)
        .map(|seed| QuerySet::sample(graph.num_vertices(), 30, 10 + seed))
        .collect();

    let concurrent = ConcurrentServer::run(
        &snaple,
        &graph,
        &cluster,
        ConcurrentOptions::default().workers(2),
        |handle| {
            requests
                .iter()
                .map(|q| handle.serve(q).unwrap())
                .collect::<Vec<_>>()
        },
    )
    .unwrap();

    let outcome = ShardRouter::run(
        &spec(),
        &graph,
        &cluster,
        options(3, ShardTransport::Threads),
        |handle| {
            requests
                .iter()
                .map(|q| handle.serve(q).unwrap())
                .collect::<Vec<_>>()
        },
    )
    .unwrap();

    for (request, (a, b)) in requests
        .iter()
        .zip(outcome.value.iter().zip(&concurrent.value))
    {
        assert!(rows_equal(request, a, b), "shard router vs worker pool");
    }
}

#[test]
fn plan_specs_serve_identically_through_shards() {
    // The multi-score path: a ShardSpec::Plan serves the same rows as
    // the locally-compiled ScorePlan.
    let (graph, cluster) = setup();
    let specs = ["linearSum", "counter"];
    let plan = ScorePlan::with_config(
        specs.iter().map(|s| ScoreSpec::parse(s).unwrap()).collect(),
        PlanConfig::default(),
    )
    .unwrap();
    let request = QuerySet::sample(graph.num_vertices(), 40, 5);
    let prepared = plan
        .prepare(&PrepareRequest::new(&graph, &cluster))
        .unwrap();
    let expected = prepared
        .execute(&ExecuteRequest::new().with_queries(&request))
        .unwrap();

    let spec = ShardSpec::Plan {
        specs: specs.iter().map(|s| s.to_string()).collect(),
        config: PlanConfig::default(),
    };
    for transport in TRANSPORTS {
        let outcome = ShardRouter::run(&spec, &graph, &cluster, options(2, transport), |handle| {
            handle.serve(&request).unwrap()
        })
        .unwrap();
        assert!(
            rows_equal(&request, &outcome.value, &expected),
            "plan rows diverged over {transport:?}"
        );
    }
}

#[test]
fn deltas_broadcast_to_every_shard_and_match_a_cold_rebuild() {
    // Requests interleaved with a delta: pre-delta rows equal the
    // pre-delta oracle, post-delta rows equal a cold rebuild on the
    // mutated graph — per shard count and transport.
    let (graph, cluster) = setup();
    let snaple = Snaple::new(config());
    let delta = churn(&graph);
    let request = QuerySet::sample(graph.num_vertices(), 35, 11);

    let prepared = snaple
        .prepare(&PrepareRequest::new(&graph, &cluster))
        .unwrap();
    let before = prepared
        .execute(&ExecuteRequest::new().with_queries(&request))
        .unwrap();
    let (forked, _) = prepared.fork_with_delta(&delta).unwrap();
    let after = forked
        .execute(&ExecuteRequest::new().with_queries(&request))
        .unwrap();

    let spec = spec();
    for transport in TRANSPORTS {
        for shards in [1, 3] {
            let outcome = ShardRouter::run(
                &spec,
                &graph,
                &cluster,
                options(shards, transport),
                |handle| {
                    let pre = handle.serve(&request).unwrap();
                    assert_eq!(handle.epoch(), 0);
                    let stats = handle.apply_update(&delta).unwrap();
                    assert_eq!(handle.epoch(), 1);
                    assert!(stats.inserted_edges > 0 && stats.removed_edges > 0);
                    let post = handle.serve(&request).unwrap();
                    (pre, post)
                },
            )
            .unwrap();
            let (pre, post) = outcome.value;
            assert!(
                rows_equal(&request, &pre, &before),
                "pre-delta rows diverged: {shards} shards, {transport:?}"
            );
            assert!(
                rows_equal(&request, &post, &after),
                "post-delta rows diverged: {shards} shards, {transport:?}"
            );
            assert_eq!(outcome.stats.updates, 1);
        }
    }
}

#[test]
fn router_update_stats_match_a_sequential_server() {
    // Every shard applies every broadcast delta, so the fleet's update
    // statistics must equal one sequential server fed the same deltas —
    // including the cumulative count of touched partitions.
    let (graph, cluster) = setup();
    let snaple = Snaple::new(config());
    let first = churn(&graph);
    let mut second = GraphDelta::new();
    for (u, v) in graph.edges().skip(20).take(3) {
        second.remove(u.as_u32(), v.as_u32());
    }
    let n = graph.num_vertices() as u32;
    second.insert(11, n - 7).insert(n - 9, 13);

    let mut sequential = Server::new(&snaple, &graph, &cluster).unwrap();
    sequential.apply_update(&first).unwrap();
    sequential.apply_update(&second).unwrap();
    let expected = sequential.stats();
    assert!(expected.delta_touched_partitions > 0);

    let outcome = ShardRouter::run(
        &spec(),
        &graph,
        &cluster,
        options(2, ShardTransport::Threads),
        |handle| {
            handle.apply_update(&first).unwrap();
            handle.apply_update(&second).unwrap();
        },
    )
    .unwrap();
    let routed = &outcome.stats;
    assert_eq!(routed.updates, expected.updates);
    assert_eq!(routed.edges_inserted, expected.edges_inserted);
    assert_eq!(routed.edges_removed, expected.edges_removed);
    assert_eq!(
        routed.delta_touched_partitions,
        expected.delta_touched_partitions
    );
}

#[test]
fn seed_override_is_honored_by_every_shard() {
    // The router-level seed pin reaches each shard's execute path.
    let (graph, cluster) = setup();
    let snaple = Snaple::new(config());
    let request = QuerySet::sample(graph.num_vertices(), 30, 2);
    let prepared = snaple
        .prepare(&PrepareRequest::new(&graph, &cluster))
        .unwrap();
    let expected = prepared
        .execute(&ExecuteRequest::new().with_queries(&request).with_seed(99))
        .unwrap();

    let outcome = ShardRouter::run(
        &spec(),
        &graph,
        &cluster,
        options(2, ShardTransport::Threads).seed(99),
        |handle| handle.serve(&request).unwrap(),
    )
    .unwrap();
    assert!(rows_equal(&request, &outcome.value, &expected));
}

#[test]
fn unusable_shard_counts_are_rejected_up_front() {
    let (graph, cluster) = setup();
    let spec = spec();
    for shards in [0, cluster.nodes + 1] {
        let err = ShardRouter::run(
            &spec,
            &graph,
            &cluster,
            options(shards, ShardTransport::Threads),
            |_| (),
        )
        .unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("shard count"),
            "unhelpful rejection for shards={shards}: {message}"
        );
    }
}

#[test]
fn killed_shard_process_becomes_a_typed_error_not_a_hang() {
    // The fault-containment acceptance test: SIGKILL one shard daemon
    // mid-session. The router must *detect* the death (broken pipe /
    // EOF), type it as ShardFailed on affected requests, keep serving
    // the other shards, and still drain.
    let (graph, cluster) = setup();
    let spec = spec();
    let outcome = ShardRouter::run(
        &spec,
        &graph,
        &cluster,
        options(3, ShardTransport::Processes),
        |handle| {
            // Sanity: the full fleet serves.
            let warm = QuerySet::sample(graph.num_vertices(), 20, 1);
            handle.serve(&warm).unwrap();

            // Partition some vertices by owner so requests can be aimed.
            let victim = 0usize;
            let mut on_victim = Vec::new();
            let mut on_survivors = Vec::new();
            for v in 0..graph.num_vertices() as u32 {
                if handle.shard_of(v) == victim {
                    on_victim.push(v);
                } else {
                    on_survivors.push(v);
                }
                if on_victim.len() >= 5 && on_survivors.len() >= 5 {
                    break;
                }
            }
            assert!(on_victim.len() >= 5 && on_survivors.len() >= 5);

            handle.kill_shard(victim);

            // Requests routed to the dead shard fail with the typed
            // error — whether they fail fast at submit or at wait is a
            // timing detail; hanging or panicking is the bug.
            let err = handle
                .serve(&QuerySet::from_indices(on_victim.iter().copied().take(5)))
                .unwrap_err();
            match err {
                SnapleError::ShardFailed { shard, .. } => assert_eq!(shard, victim),
                other => panic!("expected ShardFailed, got {other}"),
            }

            // An update now also reports the dead shard.
            let err = handle.apply_update(&churn(&graph)).unwrap_err();
            assert!(matches!(err, SnapleError::ShardFailed { .. }), "{err}");

            // Survivors keep serving.
            let alive = QuerySet::from_indices(on_survivors.iter().copied().take(5));
            handle.serve(&alive).unwrap();

            // And the router still drains instead of waiting on a ghost.
            handle.drain();
        },
    )
    .unwrap();
    // The dead shard contributed no final stats; the run still reports.
    assert_eq!(outcome.stats.workers, 3);
}

#[test]
fn killed_thread_shard_fails_future_requests_with_a_typed_error() {
    // Thread-transport flavor of fault containment: closing the command
    // stream retires the shard; requests aimed at it get ShardFailed,
    // the rest of the fleet keeps working, drain completes.
    let (graph, cluster) = setup();
    let spec = spec();
    ShardRouter::run(
        &spec,
        &graph,
        &cluster,
        options(2, ShardTransport::Threads),
        |handle| {
            let victim = 1usize;
            let v_dead = (0..graph.num_vertices() as u32)
                .find(|&v| handle.shard_of(v) == victim)
                .unwrap();
            let v_alive = (0..graph.num_vertices() as u32)
                .find(|&v| handle.shard_of(v) != victim)
                .unwrap();

            handle.kill_shard(victim);
            let err = handle.serve(&QuerySet::from_indices([v_dead])).unwrap_err();
            assert!(matches!(err, SnapleError::ShardFailed { shard, .. } if shard == victim));
            handle.serve(&QuerySet::from_indices([v_alive])).unwrap();
            handle.drain();
        },
    )
    .unwrap();
}

#[test]
fn empty_query_sets_answer_without_touching_any_shard() {
    let (graph, cluster) = setup();
    let outcome = ShardRouter::run(
        &spec(),
        &graph,
        &cluster,
        options(2, ShardTransport::Threads),
        |handle| handle.serve(&QuerySet::from_indices([])).unwrap(),
    )
    .unwrap();
    assert_eq!(outcome.value.num_vertices(), graph.num_vertices());
    assert!((0..graph.num_vertices() as u32).all(|v| outcome
        .value
        .for_vertex(snaple::graph::VertexId::new(v))
        .is_empty()));
}
