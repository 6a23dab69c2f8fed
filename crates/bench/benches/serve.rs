//! Serve-stream throughput: repeated one-shot `predict` vs the batching
//! [`Server`] on a stream of small query-set requests.
//!
//! This is the benchmark behind the prepare-once/execute-many claim: a
//! stream of N requests, each asking for ~1% of the vertices of an
//! emulated GOWALLA subset, runs through
//!
//! 1. the **one-shot** path — a fresh `Predictor::predict` per request,
//!    which rebuilds the O(edges) vertex-cut partition every time, and
//! 2. the **server** path — one `prepare`, then batches of requests
//!    coalesced into shared masked supersteps.
//!
//! Both paths are verified to produce bit-identical rows for every
//! request before any number is reported. Results are printed and, when
//! the `BENCH_JSON` environment variable names a file, appended as JSON
//! lines (totals, per-request latency, and the end-to-end speedup).
//!
//! Environment knobs (for CI smoke runs): `SERVE_BENCH_REQUESTS`
//! (default 100), `SERVE_BENCH_BATCH` (default 16).

use std::time::Instant;

use snaple_bench::{append_bench_json, server_stats_json};
use snaple_core::serve::Server;
use snaple_core::{NamedScore, PredictRequest, Predictor, QuerySet, Snaple, SnapleConfig};
use snaple_gas::ClusterSpec;
use snaple_graph::gen::datasets;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let num_requests = env_usize("SERVE_BENCH_REQUESTS", 100);
    let batch = env_usize("SERVE_BENCH_BATCH", 16).max(1);

    let graph = datasets::GOWALLA.emulate(0.01, 7);
    let cluster = ClusterSpec::type_ii(4);
    let snaple = Snaple::new(
        SnapleConfig::new(NamedScore::LinearSum)
            .k(5)
            .klocal(Some(20)),
    );
    let per_request = (graph.num_vertices() / 100).max(1);
    let requests: Vec<QuerySet> = (0..num_requests)
        .map(|i| QuerySet::sample(graph.num_vertices(), per_request, 1_000 + i as u64))
        .collect();
    println!(
        "serve-throughput: {} requests x {} queries (1%) on gowalla@1% \
         ({} vertices, {} edges), batch {batch}",
        requests.len(),
        per_request,
        graph.num_vertices(),
        graph.num_edges(),
    );

    // --- Path 1: one-shot predict per request. ---------------------------
    let started = Instant::now();
    let one_shot: Vec<_> = requests
        .iter()
        .map(|q| {
            Predictor::predict(
                &snaple,
                &PredictRequest::new(&graph, &cluster).with_queries(q),
            )
            .expect("one-shot predict")
        })
        .collect();
    let one_shot_seconds = started.elapsed().as_secs_f64();

    // --- Path 2: prepare once, serve coalesced batches. ------------------
    let started = Instant::now();
    let mut server = Server::new(&snaple, &graph, &cluster).expect("prepare");
    let mut served: Vec<_> = Vec::with_capacity(requests.len());
    for chunk in requests.chunks(batch) {
        served.extend(server.serve_batch(chunk).expect("serve batch"));
    }
    let server_seconds = started.elapsed().as_secs_f64();

    // --- Verify: every served row is bit-identical to its one-shot twin. -
    for ((request, a), b) in requests.iter().zip(&one_shot).zip(&served) {
        for q in request.iter() {
            assert_eq!(a.for_vertex(q), b.for_vertex(q), "row {q} diverged");
        }
    }

    let n = requests.len().max(1) as f64;
    let speedup = one_shot_seconds / server_seconds.max(1e-12);
    println!(
        "one-shot: {one_shot_seconds:.3} s total, {:.2} ms/request",
        one_shot_seconds / n * 1e3
    );
    println!(
        "server:   {server_seconds:.3} s total, {:.2} ms/request ({})",
        server_seconds / n * 1e3,
        server.stats().summary()
    );
    println!("speedup:  {speedup:.1}x end-to-end (rows verified bit-identical)");

    append_bench_json(&format!(
        "{{\"name\":\"serve-throughput/one-shot-{num_requests}x{per_request}\",\
         \"total_seconds\":{one_shot_seconds:.6},\"per_request_ms\":{:.4}}}",
        one_shot_seconds / n * 1e3
    ));
    append_bench_json(&format!(
        "{{\"name\":\"serve-throughput/server-{num_requests}x{per_request}-batch{batch}\",\
         \"total_seconds\":{server_seconds:.6},\"per_request_ms\":{:.4}}}",
        server_seconds / n * 1e3
    ));
    append_bench_json(&format!(
        "{{\"name\":\"serve-throughput/speedup\",\"value\":{speedup:.3},\
         \"requests\":{num_requests},\"batch\":{batch}}}"
    ));
    append_bench_json(&server_stats_json(
        "serve-throughput/server-stats",
        server.stats(),
    ));
}
