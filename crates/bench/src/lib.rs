#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Shared plumbing for the experiment binaries that regenerate the
//! paper's tables and figures: `exp_table4` … `exp_table6` and
//! `exp_fig5` … `exp_fig11` are named for the table or figure they
//! reproduce, and `exp_ablation` sweeps two parameters beyond them.
//!
//! Every binary follows the same shape:
//!
//! 1. parse the common CLI flags ([`ExpArgs`]): `--scale` (multiplies each
//!    dataset's default scale), `--seed`, `--out <dir>` (writes TSV next to
//!    the console rendering), `--quick` (smaller parameter grids for smoke
//!    runs);
//! 2. generate datasets and hold-outs through [`snaple_eval::EvalDataset`];
//! 3. run predictors through [`snaple_eval::Runner`];
//! 4. print a [`snaple_eval::TextTable`] mirroring the paper's rows and
//!    optionally persist it.
//!
//! The reproduction's own extensions are checked elsewhere: their
//! bit-identity contracts in the root integration suites, their
//! wall-clock ratios in this crate's release-only `tests/gates.rs`, and
//! their end-to-end costs in `perfbench`.

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use snaple_core::ServerStats;
use snaple_eval::{EvalDataset, TextTable};
use snaple_gas::ClusterSpec;
use snaple_graph::hash::hash2;
use snaple_graph::{CsrGraph, GraphDelta, VertexId};

/// Common command-line arguments of every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Multiplier applied to each dataset's default scale.
    pub scale: f64,
    /// Base random seed.
    pub seed: u64,
    /// Directory for TSV output (created on demand).
    pub out: Option<PathBuf>,
    /// Run a reduced grid for quick smoke tests.
    pub quick: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 1.0,
            seed: 42,
            out: None,
            quick: false,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with usage help on errors or
    /// `--help`.
    pub fn parse(experiment: &str, description: &str) -> ExpArgs {
        let mut args = ExpArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => args.scale = expect_value(&mut it, "--scale"),
                "--seed" => args.seed = expect_value(&mut it, "--seed"),
                "--out" => {
                    args.out = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                        usage_and_exit(experiment, description, "--out needs a directory")
                    })))
                }
                "--quick" => args.quick = true,
                "--help" | "-h" => usage_and_exit(experiment, description, ""),
                other => {
                    usage_and_exit(experiment, description, &format!("unknown flag {other:?}"))
                }
            }
        }
        if !args.scale.is_finite() || args.scale <= 0.0 {
            usage_and_exit(
                experiment,
                description,
                "--scale must be positive and finite",
            );
        }
        args
    }

    /// Writes a table as TSV into the `--out` directory (if given).
    pub fn persist(&self, name: &str, table: &TextTable) {
        let Some(dir) = &self.out else { return };
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.tsv"));
        if let Err(e) = fs::write(&path, table.to_tsv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
}

fn expect_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        exit(2)
    })
}

fn usage_and_exit(experiment: &str, description: &str, error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!("{experiment} — {description}");
    eprintln!();
    eprintln!("usage: {experiment} [--scale F] [--seed N] [--out DIR] [--quick]");
    eprintln!("  --scale F   multiply every dataset's default scale by F (default 1.0)");
    eprintln!("  --seed N    base random seed (default 42)");
    eprintln!("  --out DIR   also write results as TSV into DIR");
    eprintln!("  --quick     reduced parameter grid for smoke runs");
    exit(if error.is_empty() { 0 } else { 2 })
}

/// Appends one pre-rendered JSON line to the file named by the
/// `BENCH_JSON` environment variable, if set — the convention the
/// criterion stand-in also follows, shared here so bench binaries emit
/// custom lines (totals, speedups, [`server_stats_json`]) without
/// re-implementing the plumbing.
pub fn append_bench_json(line: &str) {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    use std::io::Write;
    match fs::OpenOptions::new().create(true).append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{line}") {
                eprintln!("warning: cannot append to {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: cannot open {path}: {e}"),
    }
}

/// Renders a served stream's [`ServerStats`] as one JSON line for
/// [`append_bench_json`]. Every ratio is taken from the stats' guarded
/// accessors, so an empty or update-only stream renders finite numbers.
pub fn server_stats_json(name: &str, stats: &ServerStats) -> String {
    format!(
        "{{\"name\":\"{name}\",\"requests\":{},\"batches\":{},\"workers\":{},\
         \"serve_wall_seconds\":{:.6},\"setup_wall_seconds\":{:.6},\
         \"partition_build_seconds\":{:.6},\"throughput_rps\":{:.2},\
         \"mean_latency_ms\":{:.4},\"latency_p50_ms\":{:.4},\
         \"latency_p95_ms\":{:.4},\"latency_p99_ms\":{:.4},\
         \"coalescing\":{:.3},\
         \"simulated_seconds\":{:.4},\"replication_factor\":{:.3},\
         \"updates\":{},\"edges_inserted\":{},\"edges_removed\":{},\
         \"delta_apply_seconds\":{:.6},\"delta_touched_partitions\":{}}}",
        stats.requests,
        stats.batches,
        stats.workers,
        stats.serve_wall_seconds,
        stats.setup_wall_seconds,
        stats.partition_build_seconds,
        stats.throughput_rps(),
        stats.mean_latency_seconds() * 1e3,
        stats.latency.p50() * 1e3,
        stats.latency.p95() * 1e3,
        stats.latency.p99() * 1e3,
        stats.coalescing_factor(),
        stats.simulated_seconds,
        stats.replication_factor,
        stats.updates,
        stats.edges_inserted,
        stats.edges_removed,
        stats.delta_apply_seconds,
        stats.delta_touched_partitions,
    )
}

/// Prints the standard experiment header.
pub fn banner(experiment: &str, paper_ref: &str, args: &ExpArgs) {
    println!("=== {experiment} — reproduces {paper_ref} ===");
    println!(
        "scale multiplier {:.3}, seed {}, quick={}",
        args.scale, args.seed, args.quick
    );
    println!();
}

/// Resolves a dataset by paper name at its suggested scale times the
/// experiment's `--scale` multiplier.
///
/// # Panics
///
/// Panics if the name is not one of the paper's five datasets.
pub fn dataset(args: &ExpArgs, name: &str) -> EvalDataset {
    EvalDataset::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name:?}"))
        .scaled_by(args.scale)
}

/// Applies the dataset's memory-capacity scaling to a cluster: per-node
/// memory shrinks with dataset scale so that out-of-memory crossovers
/// land on the same datasets as in the paper.
pub fn scaled_cluster(base: ClusterSpec, ds: &EvalDataset) -> ClusterSpec {
    base.with_memory_scale(ds.memory_scale())
}

/// Renders, prints and optionally persists an experiment table.
pub fn emit(args: &ExpArgs, name: &str, table: &TextTable) {
    println!("{}", table.render());
    args.persist(name, table);
}

/// Deterministic churn batch for the streaming experiments: removes
/// `churn/2 · |E|` hash-ranked existing edges and inserts the same
/// number of hash-probed non-edges. The criterion streaming bench
/// measures every churn level on this workload.
pub fn churn_delta(graph: &CsrGraph, churn: f64, seed: u64) -> GraphDelta {
    let half = ((graph.num_edges() as f64 * churn / 2.0).round() as usize).max(1);
    let n = graph.num_vertices() as u64;
    let mut delta = GraphDelta::new();
    // Remove: hash-rank all edges, retract the lowest-ranked `half`.
    let mut ranked: Vec<(u64, u32, u32)> = graph
        .edges()
        .map(|(u, v)| {
            (
                hash2(seed, u.as_u32() as u64, v.as_u32() as u64),
                u.as_u32(),
                v.as_u32(),
            )
        })
        .collect();
    ranked.sort_unstable();
    for &(_, u, v) in ranked.iter().take(half) {
        delta.remove(u, v);
    }
    // Insert: probe hash-generated pairs until `half` non-edges found.
    let mut inserted = 0usize;
    let mut probe = 0u64;
    while inserted < half {
        let u = (hash2(seed ^ 0xadd, probe, 1) % n) as u32;
        let v = (hash2(seed ^ 0xadd, probe, 2) % n) as u32;
        probe += 1;
        if u == v || graph.has_edge(VertexId::new(u), VertexId::new(v)) {
            continue;
        }
        delta.insert(u, v);
        inserted += 1;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_core::{NamedScore, QuerySet, Server, Snaple, SnapleConfig};
    use snaple_graph::gen::datasets;

    fn assert_finite(json: &str) {
        assert!(!json.contains("NaN") && !json.contains("nan"), "{json}");
        assert!(!json.contains("inf"), "{json}");
    }

    #[test]
    fn server_stats_json_is_finite_for_every_stream_shape() {
        // Zero-denominator shapes: never served, zero wall seconds.
        let empty = ServerStats::default();
        assert_finite(&server_stats_json("empty-stream", &empty));
        let zero_wall = ServerStats {
            requests: 5,
            batches: 1,
            queries_received: 50,
            ..ServerStats::default()
        };
        let json = server_stats_json("zero-wall", &zero_wall);
        assert_finite(&json);
        assert!(json.contains("\"throughput_rps\":0.00"), "{json}");

        let graph = datasets::GOWALLA.emulate(0.005, 3);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
        );
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        assert_finite(&server_stats_json("prepared-only", server.stats()));

        // An update-only stream, then an all-empty batch.
        let n = graph.num_vertices() as u32;
        let mut delta = GraphDelta::new();
        delta.insert(0, n - 1);
        server.apply_update(&delta).unwrap();
        let json = server_stats_json("update-only", server.stats());
        assert_finite(&json);
        assert!(json.contains("\"updates\":1"), "{json}");
        let empties = [QuerySet::from_indices([]), QuerySet::from_indices([])];
        server.serve_batch(&empties).unwrap();
        assert_finite(&server_stats_json("empty-union", server.stats()));

        // A served stream carries its counters and latency percentiles.
        server
            .serve(&QuerySet::sample(graph.num_vertices(), 20, 1))
            .unwrap();
        let json = server_stats_json("unit", server.stats());
        assert!(json.starts_with("{\"name\":\"unit\""), "{json}");
        assert!(json.contains("\"requests\":3"), "{json}");
        assert!(json.contains("\"latency_p50_ms\":"), "{json}");
        assert!(json.contains("\"latency_p99_ms\":"), "{json}");
        assert!(json.contains("\"workers\":0"), "{json}");
    }
}
