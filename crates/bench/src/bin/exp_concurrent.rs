//! The reproduction's concurrent-serving experiment (no paper
//! counterpart): throughput of the [`ConcurrentServer`] worker pool
//! versus the sequential [`Server`] on the same request stream, plus
//! read latency while an update stream applies.
//!
//! Three measurements on an emulated GOWALLA subset:
//!
//! 1. **Sequential baseline** — the one-at-a-time `Server::serve` loop.
//! 2. **Throughput vs workers** — the same stream through worker pools
//!    of 1/2/4/`--workers` threads (workers coalesce up to 8 queued
//!    requests per run), with every response verified bit-identical to
//!    the sequential baseline.
//! 3. **Reads during updates** — a 4-worker pool serving the stream
//!    while a churn delta epoch-swaps mid-stream; reports the
//!    p50/p95/p99 submission-to-response latency and verifies post-swap
//!    responses equal a cold rebuild.
//!
//! Exit-code enforced: the pooled throughput at `--workers` must be at
//! least the sequential server's, and (full runs) >= 2x at 4 workers.

use std::process::exit;
use std::time::Instant;

use snaple_bench::{append_bench_json, churn_delta, server_stats_json};
use snaple_core::concurrent::{ConcurrentOptions, ConcurrentServer, PendingPrediction};
use snaple_core::serve::Server;
use snaple_core::{NamedScore, Prediction, QuerySet, Snaple, SnapleConfig};
use snaple_eval::TextTable;
use snaple_gas::ClusterSpec;
use snaple_graph::gen::datasets;

struct Args {
    scale: f64,
    seed: u64,
    quick: bool,
    workers: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: 42,
        quick: false,
        workers: 8,
    };
    let mut it = std::env::args().skip(1);
    let usage = |error: &str| -> ! {
        if !error.is_empty() {
            eprintln!("error: {error}\n");
        }
        eprintln!("exp-concurrent — worker-pool serving throughput vs the sequential server");
        eprintln!();
        eprintln!("usage: exp-concurrent [--scale F] [--seed N] [--workers N] [--quick]");
        eprintln!("  --scale F    multiply the dataset scale by F (default 1.0)");
        eprintln!("  --seed N     base random seed (default 42)");
        eprintln!("  --workers N  largest pool size to measure (default 8)");
        eprintln!("  --quick      reduced stream for smoke runs");
        exit(if error.is_empty() { 0 } else { 2 })
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                args.scale = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage("invalid --scale"))
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("invalid --seed"))
            }
            "--workers" => {
                args.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("invalid --workers"))
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.workers == 0 || args.scale <= 0.0 {
        usage("--workers and --scale must be positive");
    }
    args
}

fn verify_rows(requests: &[QuerySet], got: &[Prediction], want: &[Prediction], label: &str) {
    for (request, (g, w)) in requests.iter().zip(got.iter().zip(want)) {
        for q in request.iter() {
            if g.for_vertex(q) != w.for_vertex(q) {
                eprintln!("FAIL: {label}: row {q} diverged from the sequential server");
                exit(1);
            }
        }
    }
}

fn main() {
    let args = parse_args();
    println!("=== exp-concurrent — concurrent serving runtime (ROADMAP north star) ===");
    println!(
        "scale multiplier {:.3}, seed {}, quick={}, max workers {}",
        args.scale, args.seed, args.quick, args.workers
    );
    println!();

    let base_scale = if args.quick { 0.004 } else { 0.01 };
    let graph = datasets::GOWALLA.emulate(base_scale * args.scale, args.seed);
    let cluster = ClusterSpec::type_ii(4);
    let num_requests = if args.quick { 30 } else { 100 };
    let per_request = (graph.num_vertices() / 100).max(1);
    let requests: Vec<QuerySet> = (0..num_requests)
        .map(|i| QuerySet::sample(graph.num_vertices(), per_request, args.seed + i as u64))
        .collect();
    let snaple = Snaple::new(
        SnapleConfig::new(NamedScore::LinearSum)
            .klocal(Some(20))
            .seed(args.seed),
    );
    println!(
        "gowalla emulation: {} vertices, {} edges; {} requests of {} queries",
        graph.num_vertices(),
        graph.num_edges(),
        num_requests,
        per_request
    );

    // --- 1. Sequential baseline: one request at a time. ------------------
    let mut sequential = Server::new(&snaple, &graph, &cluster).expect("prepare");
    let started = Instant::now();
    let expected: Vec<Prediction> = requests
        .iter()
        .map(|q| sequential.serve(q).expect("serve"))
        .collect();
    let sequential_wall = started.elapsed().as_secs_f64();
    let sequential_rps = num_requests as f64 / sequential_wall;
    append_bench_json(&server_stats_json(
        "exp-concurrent-sequential",
        sequential.stats(),
    ));

    let mut table = TextTable::new(vec![
        "configuration",
        "req/s",
        "speedup",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
    ]);
    table.row(vec![
        "sequential Server".into(),
        format!("{sequential_rps:.1}"),
        "1.00x".into(),
        format!("{:.2}", sequential.stats().latency.p50() * 1e3),
        format!("{:.2}", sequential.stats().latency.p95() * 1e3),
        format!("{:.2}", sequential.stats().latency.p99() * 1e3),
    ]);

    // --- 2. Throughput vs workers. ---------------------------------------
    let mut pool_sizes = vec![1, 2, 4];
    if !pool_sizes.contains(&args.workers) {
        pool_sizes.push(args.workers);
    }
    let mut speedup_at = |workers: usize| -> f64 {
        let outcome = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(workers).batch(8),
            |handle| {
                let pending: Vec<PendingPrediction> = requests
                    .iter()
                    .map(|q| handle.submit(q).expect("submit"))
                    .collect();
                pending
                    .into_iter()
                    .map(|p| p.wait().expect("response"))
                    .collect::<Vec<Prediction>>()
            },
        )
        .expect("concurrent run");
        verify_rows(
            &requests,
            &outcome.value,
            &expected,
            &format!("{workers} workers"),
        );
        let stats = &outcome.stats;
        let speedup = stats.throughput_rps() / sequential_rps;
        table.row(vec![
            format!("ConcurrentServer x{workers} (batch 8)"),
            format!("{:.1}", stats.throughput_rps()),
            format!("{speedup:.2}x"),
            format!("{:.2}", stats.latency.p50() * 1e3),
            format!("{:.2}", stats.latency.p95() * 1e3),
            format!("{:.2}", stats.latency.p99() * 1e3),
        ]);
        append_bench_json(&server_stats_json(
            &format!("exp-concurrent-w{workers}"),
            stats,
        ));
        speedup
    };
    let mut speedup_4 = 0.0;
    let mut speedup_max = 0.0;
    for &workers in &pool_sizes {
        let speedup = speedup_at(workers);
        if workers == 4 {
            speedup_4 = speedup;
        }
        if workers == args.workers {
            speedup_max = speedup;
        }
    }
    println!("{}", table.render());

    // --- 3. Reads during an epoch-swapped update. ------------------------
    let delta = churn_delta(&graph, 0.01, args.seed ^ 0xc0c);
    let mutated = graph.compact(&delta);
    let mut cold = Server::new(&snaple, &mutated, &cluster).expect("cold prepare");
    let post_request = QuerySet::sample(graph.num_vertices(), per_request, args.seed ^ 0x9e);
    let outcome = ConcurrentServer::run(
        &snaple,
        &graph,
        &cluster,
        ConcurrentOptions::default().workers(4).batch(8),
        |handle| {
            let half = requests.len() / 2;
            let mut pending: Vec<PendingPrediction> = requests[..half]
                .iter()
                .map(|q| handle.submit(q).expect("submit"))
                .collect();
            // The epoch swap lands while the first half is in flight;
            // reads keep completing on whichever epoch they pinned.
            handle.apply_update(&delta).expect("update");
            pending.extend(
                requests[half..]
                    .iter()
                    .map(|q| handle.submit(q).expect("submit")),
            );
            for p in pending {
                p.wait().expect("response");
            }
            // Every read after the swap serves the mutated graph.
            handle.serve(&post_request).expect("post-swap read")
        },
    )
    .expect("update run");
    let expected_post = cold.serve(&post_request).expect("cold serve");
    for q in post_request.iter() {
        if outcome.value.for_vertex(q) != expected_post.for_vertex(q) {
            eprintln!("FAIL: post-swap row {q} diverged from a cold rebuild");
            exit(1);
        }
    }
    let stats = &outcome.stats;
    println!(
        "reads during update: {} requests around 1 epoch swap (+{} -{} edges): \
         {:.1} req/s, p50/p95/p99 {:.2}/{:.2}/{:.2} ms, delta fork+apply {:.1} ms",
        stats.requests,
        stats.edges_inserted,
        stats.edges_removed,
        stats.throughput_rps(),
        stats.latency.p50() * 1e3,
        stats.latency.p95() * 1e3,
        stats.latency.p99() * 1e3,
        stats.delta_apply_seconds * 1e3,
    );
    append_bench_json(&server_stats_json(
        "exp-concurrent-reads-during-update",
        stats,
    ));
    append_bench_json(&format!(
        "{{\"name\":\"exp-concurrent-summary\",\"sequential_rps\":{sequential_rps:.2},\
         \"speedup_w4\":{speedup_4:.3},\"speedup_max\":{speedup_max:.3},\
         \"max_workers\":{}}}",
        args.workers
    ));

    // --- Enforcement. ----------------------------------------------------
    println!();
    if speedup_max < 1.0 {
        eprintln!(
            "FAIL: {} workers reach only {speedup_max:.2}x of the sequential \
             server's throughput (must be >= 1x)",
            args.workers
        );
        exit(1);
    }
    if !args.quick && speedup_4 < 2.0 {
        eprintln!(
            "FAIL: 4 workers reach only {speedup_4:.2}x of the sequential \
             server's throughput (acceptance bar: >= 2x on the full stream)"
        );
        exit(1);
    }
    println!(
        "PASS: bit-identical to the sequential server; {speedup_4:.2}x at 4 workers, \
         {speedup_max:.2}x at {} workers{}",
        args.workers,
        if args.quick {
            " (quick mode: >=1x enforced)"
        } else {
            " (>=2x at 4 workers enforced)"
        }
    );
}
