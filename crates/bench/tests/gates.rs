//! Wall-clock gates on the reproduction's own extensions: the worker
//! pool, the shard router, the striped gather kernels and the zero-parse
//! `SNPLG2` data plane. Each gate asserts a throughput or timing ratio,
//! which only means something in an optimized build, so every gate is
//! ignored under `debug_assertions`. CI runs them with
//!
//! ```text
//! cargo test --release -p snaple-bench --test gates -- --nocapture
//! ```
//!
//! The bit-identity contracts of the same runtimes live in the root
//! integration suites (`concurrent_serving`, `shard_serving`,
//! `dataplane`); a gate here only checks rows where it computes them
//! anyway (the gather checksums).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use snaple_core::concurrent::{ConcurrentOptions, ConcurrentServer, PendingPrediction};
use snaple_core::serve::Server;
use snaple_core::shard::{PendingRows, ShardOptions, ShardRouter, ShardSpec, ShardTransport};
use snaple_core::similarity::{
    intersection_size_scalar, CommonNeighbors, Jaccard, NeighborhoodView, Similarity,
};
use snaple_core::{NamedScore, PlanConfig, QuerySet, Snaple, SnapleConfig};
use snaple_gas::ClusterSpec;
use snaple_graph::gen::datasets;
use snaple_graph::gen::rmat::RmatConfig;
use snaple_graph::{io, CsrGraph, ExternalGraphBuilder, FileCsr, GraphStore, Relabeling};

const SEED: u64 = 42;

/// Gates time themselves, so they run one at a time even under the
/// parallel test harness: a gate never shares the cores with another.
/// The lock guards no data, so a failed gate's poison is ignored.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` `reps` times and returns the fastest wall time in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            let value = f();
            let seconds = started.elapsed().as_secs_f64();
            drop(value);
            seconds
        })
        .fold(f64::MAX, f64::min)
}

/// `count` requests of 1 % of the vertices each, seeded `SEED + i`.
fn requests(graph: &CsrGraph, count: u64) -> Vec<QuerySet> {
    let per_request = (graph.num_vertices() / 100).max(1);
    (0..count)
        .map(|i| QuerySet::sample(graph.num_vertices(), per_request, SEED + i))
        .collect()
}

fn linear_sum() -> SnapleConfig {
    SnapleConfig::new(NamedScore::LinearSum)
        .klocal(Some(20))
        .seed(SEED)
}

/// The one-column plan a `Snaple` of [`linear_sum`] prepares, as it
/// crosses the shard wire.
fn linear_sum_spec() -> ShardSpec {
    ShardSpec::Plan {
        specs: vec!["linearSum".into()],
        config: PlanConfig::new().klocal(Some(20)).seed(SEED),
    }
}

/// An 8-worker [`ConcurrentServer`] (coalescing up to 8 requests per
/// run) serves a 30-request stream on gowalla@0.004 at least as fast as
/// the sequential [`Server`].
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: CI runs it in release")]
fn eight_workers_keep_up_with_the_sequential_server() {
    let _serial = serial();
    let graph = datasets::GOWALLA.emulate(0.004, SEED);
    let cluster = ClusterSpec::type_ii(4);
    let requests = requests(&graph, 30);
    let snaple = Snaple::new(linear_sum());

    let mut sequential = Server::new(&snaple, &graph, &cluster).expect("prepare");
    let started = Instant::now();
    for q in &requests {
        sequential.serve(q).expect("serve");
    }
    let sequential_rps = requests.len() as f64 / started.elapsed().as_secs_f64();

    let outcome = ConcurrentServer::run(
        &snaple,
        &graph,
        &cluster,
        ConcurrentOptions::default().workers(8).batch(8),
        |handle| {
            let pending: Vec<PendingPrediction> = requests
                .iter()
                .map(|q| handle.submit(q).expect("submit"))
                .collect();
            for p in pending {
                p.wait().expect("response");
            }
        },
    )
    .expect("concurrent run");
    let speedup = outcome.stats.throughput_rps() / sequential_rps;
    println!(
        "concurrent: 8 workers at {speedup:.2}x the sequential server on {} core(s)",
        snaple_gas::host_parallelism()
    );
    assert!(
        speedup >= 1.0,
        "8 workers reach only {speedup:.2}x of the sequential server's throughput (must be >= 1x)"
    );
}

/// Four thread-transport shards serve a 24-request stream on
/// gowalla@0.004 (8 cluster partitions) at least as fast as the
/// single-shard router. Shard speedup is parallel speedup, so a host
/// with fewer than 4 cores enforces a degradation floor instead: 4
/// shards keep at least 0.2x of the single shard's throughput.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: CI runs it in release")]
fn four_shards_keep_up_with_one() {
    let _serial = serial();
    let graph = datasets::GOWALLA.emulate(0.004, SEED);
    let cluster = ClusterSpec::type_ii(8);
    let requests = requests(&graph, 24);
    let spec = linear_sum_spec();
    let rps = |shards: usize| -> f64 {
        let outcome = ShardRouter::run(
            &spec,
            &graph,
            &cluster,
            ShardOptions::new()
                .shards(shards)
                .transport(ShardTransport::Threads),
            |handle| {
                let pending: Vec<PendingRows> = requests
                    .iter()
                    .map(|q| handle.submit(q).expect("submit"))
                    .collect();
                for p in pending {
                    p.wait().expect("response");
                }
            },
        )
        .expect("sharded run");
        requests.len() as f64 / outcome.stats.serve_wall_seconds.max(1e-9)
    };
    let single = rps(1);
    let vs_single = rps(4) / single;
    let cores = snaple_gas::host_parallelism();
    println!("shard: 4 thread shards at {vs_single:.2}x one shard on {cores} core(s)");
    let floor = if cores >= 4 { 1.0 } else { 0.2 };
    assert!(
        vs_single >= floor,
        "4 thread shards reach only {vs_single:.2}x of the single-shard router's \
         throughput on {cores} core(s) (must be >= {floor}x)"
    );
}

/// Mirrors [`Jaccard::score`]'s f32 expression over a given intersection
/// size, so the scalar and striped checksums compare bitwise.
fn jaccard_from(inter: usize, du: usize, dv: usize) -> f32 {
    let union = du + dv - inter;
    if union == 0 {
        0.0
    } else {
        inter as f32 / union as f32
    }
}

/// Mirrors [`CommonNeighbors::score`].
fn common_from(inter: usize, _du: usize, _dv: usize) -> f32 {
    inter as f32
}

/// Order-insensitive checksum of every edge's score, computed pair by
/// pair over the linear-merge [`intersection_size_scalar`].
fn scalar_checksum(graph: &CsrGraph, formula: fn(usize, usize, usize) -> f32) -> u64 {
    let mut checksum = 0u64;
    for u in graph.vertices() {
        let gu = graph.out_neighbors(u);
        for &v in gu {
            let gv = graph.out_neighbors(v);
            let score = formula(intersection_size_scalar(gu, gv), gu.len(), gv.len());
            checksum = checksum.wrapping_add(score.to_bits() as u64);
        }
    }
    checksum
}

/// The same checksum over whole neighbor runs through
/// [`Similarity::score_stripe`], the shape the fused sweep hands to the
/// kernels.
fn striped_checksum(graph: &CsrGraph, kernel: &dyn Similarity) -> u64 {
    let mut checksum = 0u64;
    let mut views: Vec<NeighborhoodView<'_>> = Vec::new();
    let mut out: Vec<f32> = Vec::new();
    for u in graph.vertices() {
        let gu = graph.out_neighbors(u);
        if gu.is_empty() {
            continue;
        }
        views.clear();
        views.extend(
            gu.iter()
                .map(|&v| NeighborhoodView::new(graph.out_neighbors(v), graph.out_degree(v))),
        );
        out.clear();
        out.resize(views.len(), 0.0);
        kernel.score_stripe(NeighborhoodView::new(gu, gu.len()), &views, &mut out);
        for &s in &out {
            checksum = checksum.wrapping_add(s.to_bits() as u64);
        }
    }
    checksum
}

/// On orkut@0.001, the striped kernels over a hub-first
/// [`Relabeling::degree_order`] graph produce the scalar baseline's
/// checksums bit for bit (Jaccard and common-neighbor counts are
/// isomorphism invariants), and run at least 1.3x faster: the dispatch
/// takes the block-compare path where the baseline runs the merge.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: CI runs it in release")]
fn striped_gather_matches_scalar_and_beats_it() {
    let _serial = serial();
    let graph = datasets::ORKUT.emulate(0.001, SEED);
    let relabeled = Relabeling::degree_order(&graph).apply(&graph);
    type ScalarFormula = fn(usize, usize, usize) -> f32;
    let kernels: [(&str, &dyn Similarity, ScalarFormula); 2] = [
        ("jaccard", &Jaccard, jaccard_from),
        ("common-neighbors", &CommonNeighbors, common_from),
    ];
    for (name, kernel, formula) in kernels {
        let mut scalar = 0;
        let mut striped = 0;
        let scalar_seconds = best_of(2, || scalar = scalar_checksum(&graph, formula));
        let striped_seconds = best_of(2, || striped = striped_checksum(&relabeled, kernel));
        assert_eq!(
            scalar, striped,
            "{name}: scalar checksum {scalar:#x} != striped {striped:#x}"
        );
        let speedup = scalar_seconds / striped_seconds.max(1e-12);
        println!("gather: {name} striped at {speedup:.2}x scalar");
        assert!(
            speedup >= 1.3,
            "{name}: striped speedup {speedup:.2}x < required 1.3x"
        );
    }
}

/// Builds an RMAT graph of `drawn` edges (16 per vertex) straight to an
/// `SNPLG2` file through the out-of-core builder.
fn build_rmat(dir: &Path, drawn: u64) -> PathBuf {
    let scale = (64 - (drawn / 16).leading_zeros() - 1).max(4);
    let config = RmatConfig {
        scale,
        edges: drawn,
        seed: SEED,
        ..RmatConfig::default()
    };
    let path = dir.join(format!("rmat-{drawn}.snplg"));
    let mut builder = ExternalGraphBuilder::new();
    builder.scratch_dir(dir);
    config.generate_with(builder, &path).expect("generate");
    path
}

/// Seconds to decode the graph at `v2_path` from its `SNPLG1` encoding,
/// best of `reps`.
fn v1_parse_seconds(v2_path: &Path, reps: usize) -> f64 {
    let v1_path = v2_path.with_extension("v1.snplg");
    let csr = FileCsr::open(v2_path)
        .expect("open for v1 re-encode")
        .to_csr();
    let out = std::fs::File::create(&v1_path).expect("create v1 file");
    io::write_binary_v1(&csr, std::io::BufWriter::new(out)).expect("write v1");
    drop(csr);
    let seconds = best_of(reps, || {
        let f = std::fs::File::open(&v1_path).expect("open v1 file");
        io::read_binary(std::io::BufReader::new(f)).expect("parse v1")
    });
    std::fs::remove_file(&v1_path).ok();
    seconds
}

/// Over a ladder of `(drawn edges, measure v1)` rungs: `SNPLG2` open at
/// the largest rung stays within max(25x the smallest rung's open,
/// 50 ms); `SNPLG1` parse grows >= 3x from its smallest to its largest
/// measured rung; and at that largest rung v2 open is >= 5x faster than
/// v1 parse.
fn assert_dataplane_ladder(tag: &str, rungs: &[(u64, bool)], reps: usize) {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("snaple-gates-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut opens: Vec<(u64, f64)> = Vec::new();
    let mut parses: Vec<(u64, f64, f64)> = Vec::new();
    for &(drawn, measure_v1) in rungs {
        let path = build_rmat(&dir, drawn);
        let open = best_of(reps, || FileCsr::open(&path).expect("open SNPLG2"));
        opens.push((drawn, open));
        if measure_v1 {
            parses.push((drawn, v1_parse_seconds(&path, reps), open));
        }
        std::fs::remove_file(&path).ok();
        println!(
            "dataplane: {drawn} drawn edges, v2 open {:.3} ms",
            open * 1e3
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    let (small_e, small_open) = opens[0];
    let (big_e, big_open) = opens[opens.len() - 1];
    let budget = (small_open * 25.0).max(0.050);
    assert!(
        big_open <= budget,
        "v2 open grew with graph size: {small_open:.6}s at {small_e} edges but \
         {big_open:.6}s at {big_e} edges (budget {budget:.6}s)"
    );
    let (v1_small_e, v1_small, _) = parses[0];
    let (v1_big_e, v1_big, v2_open) = parses[parses.len() - 1];
    println!(
        "dataplane: v1 parse {v1_small:.4}s -> {v1_big:.4}s, {:.0}x slower than v2 open",
        v1_big / v2_open.max(1e-9)
    );
    assert!(
        v1_big >= v1_small * 3.0,
        "v1 parse did not grow with graph size: {v1_small:.6}s at {v1_small_e} edges vs \
         {v1_big:.6}s at {v1_big_e} edges (expected >= 3x)"
    );
    assert!(
        v1_big >= v2_open * 5.0,
        "v2 open ({v2_open:.6}s) is not >= 5x faster than v1 parse ({v1_big:.6}s) at \
         {v1_big_e} edges"
    );
}

/// The quick ladder: 100k -> 400k -> 1.6M drawn edges, v1 on every rung.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: CI runs it in release")]
fn v2_open_stays_flat_while_v1_parse_grows() {
    assert_dataplane_ladder(
        "quick",
        &[(100_000, true), (400_000, true), (1_600_000, true)],
        3,
    );
}

/// The full ladder: 1M -> 10M -> 100M drawn edges. The 100M rung streams
/// through the generator and the out-of-core builder and is never
/// resident in RAM, so v1 (which must materialize) is skipped there.
#[test]
#[ignore = "full 1M -> 100M ladder, disk- and time-heavy: run with --release -- --ignored"]
fn v2_open_stays_flat_up_to_100m_edges() {
    assert_dataplane_ladder(
        "full",
        &[(1_000_000, true), (10_000_000, true), (100_000_000, false)],
        5,
    );
}
