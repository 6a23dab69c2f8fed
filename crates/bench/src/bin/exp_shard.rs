//! The reproduction's shard-scaling experiment (no paper counterpart):
//! scatter-gather throughput of the [`ShardRouter`] versus the
//! sequential [`Server`] on the same request stream, across shard
//! counts and both transports.
//!
//! Four measurements on an emulated GOWALLA subset:
//!
//! 1. **Sequential baseline** — the one-at-a-time `Server::serve` loop.
//! 2. **Throughput vs shards** — the same stream scattered across
//!    1/2/4/`--shards` thread-transport shards, every response verified
//!    bit-identical to the sequential baseline.
//! 3. **Process transport** — the same stream through `snaple-shardd`
//!    child processes (frames over pipes), verified bit-identical; its
//!    cost over the thread transport is the serialization + pipe tax.
//! 4. **Broadcast update** — a churn delta broadcast mid-stream; rows
//!    served afterwards verified against a cold rebuild on the mutated
//!    graph.
//!
//! Exit-code enforced (when the host has at least as many cores as
//! shards — parallel speedup is physically impossible below that, so
//! smaller hosts enforce a degradation floor instead): the largest
//! thread-shard deployment must reach at least the single-shard
//! router's throughput, and (full runs) >= 1.5x over it at 4 shards.

use std::process::exit;
use std::time::Instant;

use snaple_bench::{append_bench_json, churn_delta, server_stats_json};
use snaple_core::serve::Server;
use snaple_core::shard::{PendingRows, ShardOptions, ShardRouter, ShardSpec, ShardTransport};
use snaple_core::{NamedScore, Prediction, QuerySet, Snaple, SnapleConfig};
use snaple_eval::TextTable;
use snaple_gas::ClusterSpec;
use snaple_graph::gen::datasets;

struct Args {
    scale: f64,
    seed: u64,
    quick: bool,
    shards: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: 42,
        quick: false,
        shards: 4,
    };
    let mut it = std::env::args().skip(1);
    let usage = |error: &str| -> ! {
        if !error.is_empty() {
            eprintln!("error: {error}\n");
        }
        eprintln!("exp-shard — scatter-gather shard serving vs the sequential server");
        eprintln!();
        eprintln!("usage: exp-shard [--scale F] [--seed N] [--shards N] [--quick]");
        eprintln!("  --scale F   multiply the dataset scale by F (default 1.0)");
        eprintln!("  --seed N    base random seed (default 42)");
        eprintln!("  --shards N  largest shard count to measure (default 4)");
        eprintln!("  --quick     reduced stream for smoke runs");
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
            "--shards" => {
                args.shards = value("--shards")
                    .parse()
                    .unwrap_or_else(|_| usage("invalid --shards"))
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.shards == 0 || args.scale <= 0.0 {
        usage("--shards and --scale must be positive");
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
    println!("=== exp-shard — shard-per-process distributed serving ===");
    println!(
        "scale multiplier {:.3}, seed {}, quick={}, max shards {}",
        args.scale, args.seed, args.quick, args.shards
    );
    println!();

    let base_scale = if args.quick { 0.004 } else { 0.01 };
    let graph = datasets::GOWALLA.emulate(base_scale * args.scale, args.seed);
    let cluster = ClusterSpec::type_ii(args.shards.max(8));
    let num_requests = if args.quick { 24 } else { 80 };
    let per_request = (graph.num_vertices() / 100).max(1);
    let requests: Vec<QuerySet> = (0..num_requests)
        .map(|i| QuerySet::sample(graph.num_vertices(), per_request, args.seed + i as u64))
        .collect();
    let config = SnapleConfig::new(NamedScore::LinearSum)
        .klocal(Some(20))
        .seed(args.seed);
    let snaple = Snaple::new(config.clone());
    let spec = ShardSpec::Single(config);
    println!(
        "gowalla emulation: {} vertices, {} edges; {} requests of {} queries; \
         {} cluster partitions",
        graph.num_vertices(),
        graph.num_edges(),
        num_requests,
        per_request,
        cluster.nodes,
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
        "exp-shard-sequential",
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

    // --- 2 & 3. Throughput vs shards, on both transports. ----------------
    let mut run_sharded = |shards: usize, transport: ShardTransport, label: &str| -> f64 {
        let outcome = ShardRouter::run(
            &spec,
            &graph,
            &cluster,
            ShardOptions::new().shards(shards).transport(transport),
            |handle| {
                let pending: Vec<PendingRows> = requests
                    .iter()
                    .map(|q| handle.submit(q).expect("submit"))
                    .collect();
                pending
                    .into_iter()
                    .map(|p| p.wait().expect("response"))
                    .collect::<Vec<Prediction>>()
            },
        )
        .expect("sharded run");
        verify_rows(&requests, &outcome.value, &expected, label);
        let stats = &outcome.stats;
        let rps = num_requests as f64 / stats.serve_wall_seconds.max(1e-9);
        let speedup = rps / sequential_rps;
        table.row(vec![
            label.to_string(),
            format!("{rps:.1}"),
            format!("{speedup:.2}x"),
            format!("{:.2}", stats.latency.p50() * 1e3),
            format!("{:.2}", stats.latency.p95() * 1e3),
            format!("{:.2}", stats.latency.p99() * 1e3),
        ]);
        let name = format!(
            "exp-shard-{}{shards}",
            match transport {
                ShardTransport::Threads => "t",
                ShardTransport::Processes => "p",
            }
        );
        append_bench_json(&server_stats_json(&name, stats));
        speedup
    };

    let mut shard_counts = vec![1, 2, 4];
    shard_counts.retain(|&s| s <= cluster.nodes);
    if !shard_counts.contains(&args.shards) {
        shard_counts.push(args.shards);
    }
    let mut speedup_1 = f64::NAN;
    let mut speedup_4 = 0.0;
    let mut speedup_max = 0.0;
    for &shards in &shard_counts {
        let speedup = run_sharded(
            shards,
            ShardTransport::Threads,
            &format!("ShardRouter x{shards} (threads)"),
        );
        if shards == 1 {
            speedup_1 = speedup;
        }
        if shards == 4 {
            speedup_4 = speedup;
        }
        if shards == args.shards {
            speedup_max = speedup;
        }
    }
    // One process-transport point: same frames over pipes, plus the
    // fork/exec + serialization tax.
    let proc_shards = args.shards.min(if args.quick { 2 } else { 4 });
    let speedup_procs = run_sharded(
        proc_shards,
        ShardTransport::Processes,
        &format!("ShardRouter x{proc_shards} (snaple-shardd processes)"),
    );
    println!("{}", table.render());

    // --- 4. Broadcast update mid-stream. ---------------------------------
    let delta = churn_delta(&graph, 0.01, args.seed ^ 0xc0c);
    let mutated = graph.compact(&delta);
    let mut cold = Server::new(&snaple, &mutated, &cluster).expect("cold prepare");
    let post_request = QuerySet::sample(graph.num_vertices(), per_request, args.seed ^ 0x9e);
    let outcome = ShardRouter::run(
        &spec,
        &graph,
        &cluster,
        ShardOptions::new()
            .shards(shard_counts.last().copied().unwrap_or(1))
            .transport(ShardTransport::Threads),
        |handle| {
            let half = requests.len() / 2;
            for q in &requests[..half] {
                handle.serve(q).expect("pre-delta serve");
            }
            let applied = handle.apply_update(&delta).expect("broadcast update");
            println!(
                "broadcast update: +{} -{} edges, {} partitions touched per shard, \
                 {:.1} ms (slowest shard)",
                applied.inserted_edges,
                applied.removed_edges,
                applied.touched_partitions,
                applied.apply_wall_seconds * 1e3,
            );
            handle.serve(&post_request).expect("post-delta serve")
        },
    )
    .expect("update run");
    let expected_post = cold.serve(&post_request).expect("cold serve");
    for q in post_request.iter() {
        if outcome.value.for_vertex(q) != expected_post.for_vertex(q) {
            eprintln!("FAIL: post-broadcast row {q} diverged from a cold rebuild");
            exit(1);
        }
    }
    append_bench_json(&server_stats_json(
        "exp-shard-broadcast-update",
        &outcome.stats,
    ));
    // Scaling is judged against the single-shard router (same codepath,
    // no scatter width), so the bar isolates the multi-shard win from
    // the router's own constant costs.
    let vs_single_4 = speedup_4 / speedup_1;
    let vs_single_max = speedup_max / speedup_1;
    append_bench_json(&format!(
        "{{\"name\":\"exp-shard-summary\",\"sequential_rps\":{sequential_rps:.2},\
         \"speedup_t4\":{speedup_4:.3},\"speedup_max\":{speedup_max:.3},\
         \"vs_single_t4\":{vs_single_4:.3},\"vs_single_max\":{vs_single_max:.3},\
         \"speedup_procs\":{speedup_procs:.3},\"max_shards\":{}}}",
        args.shards
    ));

    // --- Enforcement. ----------------------------------------------------
    // Shard speedup is parallel speedup: with fewer hardware cores than
    // shards it is physically unreachable, so the throughput bars apply
    // only when the host can express them. Bit-identity (checked above,
    // unconditionally) and a degradation floor are enforced everywhere.
    println!();
    let cores = snaple_gas::host_parallelism();
    if cores >= args.shards.min(4) {
        if vs_single_max < 1.0 {
            eprintln!(
                "FAIL: {} thread shards reach only {vs_single_max:.2}x of the \
                 single-shard router's throughput on {cores} cores (must be >= 1x)",
                args.shards
            );
            exit(1);
        }
        if !args.quick && vs_single_4 < 1.5 {
            eprintln!(
                "FAIL: 4 thread shards reach only {vs_single_4:.2}x of the \
                 single-shard router's throughput on {cores} cores (acceptance \
                 bar: >= 1.5x on the full stream)"
            );
            exit(1);
        }
    } else {
        println!(
            "note: only {cores} hardware core(s) — the parallel throughput bars \
             (>= 1x quick, >= 1.5x at 4 shards full, vs the single-shard router) \
             need at least {} cores and are not enforced; enforcing the \
             degradation floor instead",
            args.shards.min(4)
        );
        let best = vs_single_max.max(vs_single_4);
        if best < 0.2 {
            eprintln!(
                "FAIL: multi-shard serving reaches only {best:.2}x of the \
                 single-shard router even at its best deployment — overhead \
                 beyond the scatter-gather tax (floor: 0.2x)"
            );
            exit(1);
        }
    }
    println!(
        "PASS: bit-identical on both transports; {speedup_4:.2}x at 4 thread shards, \
         {speedup_max:.2}x at {}, {speedup_procs:.2}x over {proc_shards} shard processes \
         ({cores} core(s){})",
        args.shards,
        if args.quick {
            ", quick mode"
        } else {
            ", full bars"
        }
    );
}
