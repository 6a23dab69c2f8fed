//! The reproduction's own serving experiment (no paper counterpart):
//! what a request stream costs through one-shot `predict` versus the
//! prepare-once [`Server`], on an emulated GOWALLA subset.
//!
//! Every one-shot run rebuilds the O(edges) vertex-cut partition; a
//! served stream builds it once and coalesces batches into shared masked
//! supersteps. The table surfaces exactly the columns
//! [`snaple_eval::Measurement`] records for this — partition-build
//! milliseconds and replication factor — so the amortization win is
//! visible next to the usual recall/time numbers.

use snaple_bench::{append_bench_json, banner, dataset, emit, server_stats_json, ExpArgs};
use snaple_core::serve::Server;
use snaple_core::{NamedScore, QuerySet, Snaple, SnapleConfig};
use snaple_eval::table::{fmt_millis, fmt_recall, fmt_seconds};
use snaple_eval::{Runner, TextTable};
use snaple_gas::ClusterSpec;

fn main() {
    let args = ExpArgs::parse(
        "exp-serve",
        "Serving: prepare-once amortization over a request stream",
    );
    banner(
        "exp-serve",
        "the serving extension (§2.2 motivation)",
        &args,
    );

    let ds = dataset(&args, "gowalla");
    let (_graph, holdout) = ds.load_with_holdout(args.seed, 1);
    let runner = Runner::new(&holdout);
    let cluster = ClusterSpec::type_ii(4);
    let graph = runner.train_graph();
    let num_requests = if args.quick { 10 } else { 100 };
    let per_request = (graph.num_vertices() / 100).max(1);
    let requests: Vec<QuerySet> = (0..num_requests)
        .map(|i| QuerySet::sample(graph.num_vertices(), per_request, args.seed + i as u64))
        .collect();
    let snaple = Snaple::new(
        SnapleConfig::new(NamedScore::LinearSum)
            .klocal(Some(20))
            .seed(args.seed),
    );

    let mut table = TextTable::new(vec![
        "run",
        "recall",
        "sim time (s)",
        "partition (ms)",
        "repl",
    ]);

    // Reference: one all-vertices batch refresh, measured by the Runner.
    let batch = runner.run("all-vertices", &snaple, &runner.request(&cluster));
    table.row(vec![
        "all-vertices one-shot".into(),
        fmt_recall(batch.recall),
        fmt_seconds(batch.simulated_seconds),
        fmt_millis(batch.partition_seconds),
        format!("{:.2}", batch.replication_factor),
    ]);

    // The stream through one-shot predicts: every request re-partitions.
    let mut one_shot_sim = 0.0;
    let mut one_shot_partition = 0.0;
    for (i, q) in requests.iter().enumerate() {
        let m = runner.run(
            &format!("one-shot #{i}"),
            &snaple,
            &runner.request(&cluster).with_queries(q),
        );
        one_shot_sim += m.simulated_seconds;
        one_shot_partition += m.partition_seconds;
    }
    table.row(vec![
        format!("{num_requests} one-shot 1% requests"),
        "-".into(),
        fmt_seconds(one_shot_sim),
        fmt_millis(one_shot_partition),
        format!("{:.2}", batch.replication_factor),
    ]);

    // The same stream through the serve layer: one partition build.
    let mut server = Server::new(&snaple, graph, &cluster).expect("prepare");
    let batch_size = if args.quick { 5 } else { 10 };
    for chunk in requests.chunks(batch_size) {
        server.serve_batch(chunk).expect("serve batch");
    }
    let stats = server.stats();
    table.row(vec![
        format!("served stream (batches of {batch_size})"),
        "-".into(),
        fmt_seconds(stats.simulated_seconds),
        fmt_millis(stats.partition_build_seconds),
        format!("{:.2}", stats.replication_factor),
    ]);

    emit(&args, "serve-amortization", &table);
    println!(
        "partition builds: {num_requests} one-shots paid {} ms, the served \
         stream paid {} ms once ({:.0} requests/s, coalescing {:.2}x)",
        fmt_millis(one_shot_partition),
        fmt_millis(stats.partition_build_seconds),
        stats.throughput_rps(),
        stats.coalescing_factor(),
    );
    append_bench_json(&server_stats_json("exp-serve/served-stream", stats));
}
