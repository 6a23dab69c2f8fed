//! The metric registry: every workload, end-to-end metric and per-layer
//! metric the benchmark may print, in one table.
//!
//! `BENCHMARK.json` at the repository root is generated from this table
//! (`perfbench --print-benchmark-json`), and the result line refuses any
//! metric that is not registered here, so the three cannot drift apart.

/// How one benchmark run is launched.
pub const COMMAND: &[&str] = &["python3", "perfbench/run.py"];
/// Directories holding the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];
/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// A seeded workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-all",
        why: "the paper's all-vertices pass on an opened SNPLG2 file: dense engine, kernels and top-k do all the work",
    },
    Workload {
        name: "serve-point",
        why: "read-only 1-4 vertex requests through a 2-shard router, degree-weighted: per-request floor and shard stand-up",
    },
    Workload {
        name: "serve-churn",
        why: "durable 2-worker server, fsync always, every 4th op a 256-edge update: epoch fork, commitlog and recovery",
    },
];

/// Direction in which a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over the run's quietest third of set-ups by host steal: ingest start to the warm-up response",
    },
    EndToEnd {
        name: "predict_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median latency, over the window's quietest third by host steal: one all-vertices pass, or submit to rows of one request",
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "query-vertex rows returned per second, over the window's quietest third by host steal",
    },
    EndToEnd {
        name: "update_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median time for one 256-edge update until it returns, applied and visible",
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over the quietest third of restarts by host steal: reopen to the first response after replay",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "median over set-up rounds of VmHWM across the round, heap trimmed and mark reset before each; inputs generated earlier",
    },
    EndToEnd {
        name: "recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.1,
        what: "hold-out recall of the combined column over all vertices, from the rows the oracle checked",
    },
];

/// Which end-to-end metric a layer metric should move, and on which
/// workload; `None` marks a metric that moves nothing, with the reason.
pub enum Moves {
    To(&'static [(&'static str, &'static str)]),
    Nothing(&'static str),
}

impl Moves {
    pub fn describe(&self) -> String {
        match self {
            Moves::To(pairs) => pairs
                .iter()
                .map(|(metric, workload)| format!("{metric}@{workload}"))
                .collect::<Vec<_>>()
                .join(", "),
            Moves::Nothing(why) => format!("nothing: {why}"),
        }
    }
}

/// A metric of one layer, read from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: Moves,
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves: Moves::To(moves),
        what,
    }
}

use Better::{Higher, Lower};

const ALL: &str = "all";
const BATCH: &str = "batch-all";
const POINT: &str = "serve-point";
const CHURN: &str = "serve-churn";

pub const PER_LAYER: &[PerLayer] = &[
    // graph
    layer(
        "graph.ingest_s",
        "s",
        Lower,
        &[("setup_s", ALL)],
        "ExternalGraphBuilder add_edge through build",
    ),
    layer(
        "graph.ingest_runs",
        "count",
        Lower,
        &[("setup_s", ALL)],
        "BuildStats.runs",
    ),
    layer(
        "graph.file_mb",
        "MB",
        Lower,
        &[("setup_s", POINT)],
        "BuildStats.output_bytes",
    ),
    layer(
        "graph.open_ms",
        "ms",
        Lower,
        &[("setup_s", ALL)],
        "io::open_store",
    ),
    layer(
        "graph.first_touch_ms",
        "ms",
        Lower,
        &[("setup_s", BATCH)],
        "first out_neighbors call after open",
    ),
    layer(
        "graph.to_csr_ms",
        "ms",
        Lower,
        &[("setup_s", CHURN)],
        "GraphStore::to_csr",
    ),
    layer(
        "graph.compact_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "CsrGraph::compact of one update",
    ),
    // gas
    layer(
        "gas.deploy_ms",
        "ms",
        Lower,
        &[("setup_s", ALL)],
        "Deployment::new",
    ),
    layer(
        "gas.replication_factor",
        "ratio",
        Lower,
        &[("rows_per_s", BATCH)],
        "Deployment::replication_factor",
    ),
    layer(
        "gas.detach_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "Deployment::detach",
    ),
    layer(
        "gas.apply_delta_first_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "first Deployment::apply_delta",
    ),
    layer(
        "gas.apply_delta_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "steady-state Deployment::apply_delta",
    ),
    layer(
        "gas.delta_touched_partitions",
        "count",
        Lower,
        &[("update_p50_ms", CHURN)],
        "DeltaStats.touched_partitions per update",
    ),
    layer(
        "gas.work_ops_per_row",
        "ops/row",
        Lower,
        &[("rows_per_s", BATCH), ("predict_p50_ms", POINT)],
        "Prediction.stats work ops per returned row",
    ),
    layer(
        "gas.network_bytes_per_row",
        "B/row",
        Lower,
        &[("rows_per_s", BATCH), ("predict_p50_ms", POINT)],
        "Prediction.stats network bytes per returned row",
    ),
    PerLayer {
        name: "gas.sim_over_wall",
        unit: "ratio",
        better: Lower,
        moves: Moves::Nothing("error bar on the cost model: simulated seconds over measured wall"),
        what: "RunStats::simulated_seconds over measured wall time",
    },
    // core
    layer(
        "core.prepare_ms",
        "ms",
        Lower,
        &[("setup_s", ALL)],
        "Predictor::prepare",
    ),
    layer(
        "core.execute_all_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", BATCH), ("rows_per_s", BATCH)],
        "PreparedPlan::execute_matrix, all vertices",
    ),
    layer(
        "core.combined_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", BATCH)],
        "ScoreMatrix::combined",
    ),
    layer(
        "core.execute_point_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", POINT), ("predict_p50_ms", CHURN)],
        "execute for one query vertex",
    ),
    layer(
        "core.execute_floor_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", POINT)],
        "execute for an empty QuerySet",
    ),
    layer(
        "core.floor_share_of_execute",
        "ratio",
        Lower,
        &[("predict_p50_ms", POINT)],
        "floor over one-vertex execute",
    ),
    layer(
        "core.fork_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "PreparedPredictor::fork_with_delta",
    ),
    layer(
        "core.server_overhead_share",
        "ratio",
        Lower,
        &[("predict_p50_ms", POINT)],
        "Server::serve over bare execute of the same query sets, minus 1",
    ),
    // concurrent
    layer(
        "concurrent.submit_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", CHURN)],
        "ServeHandle::submit",
    ),
    layer(
        "concurrent.wait_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", CHURN)],
        "PendingPrediction::wait",
    ),
    layer(
        "concurrent.update_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "ServeHandle::apply_update",
    ),
    layer(
        "concurrent.coalescing_factor",
        "ratio",
        Higher,
        &[("rows_per_s", CHURN)],
        "ServerStats::coalescing_factor",
    ),
    layer(
        "concurrent.predict_p95_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", CHURN)],
        "p95 of submit to rows",
    ),
    layer(
        "concurrent.predict_samples",
        "count",
        Higher,
        &[("predict_p50_ms", CHURN)],
        "samples behind concurrent.predict_p95_ms",
    ),
    layer(
        "concurrent.update_p95_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "p95 of ServeHandle::apply_update",
    ),
    layer(
        "concurrent.update_samples",
        "count",
        Higher,
        &[("update_p50_ms", CHURN)],
        "samples behind concurrent.update_p95_ms",
    ),
    // shard
    layer(
        "shard.standup_s",
        "s",
        Lower,
        &[("setup_s", POINT)],
        "ShardRouter::run call until its body starts",
    ),
    layer(
        "shard.blob_mb",
        "MB",
        Lower,
        &[("setup_s", POINT), ("peak_rss_mb", POINT)],
        "io::write_binary bytes shipped to each shard",
    ),
    layer(
        "shard.serve_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", POINT)],
        "RouterHandle::serve",
    ),
    layer(
        "shard.route_overhead_share",
        "ratio",
        Lower,
        &[("predict_p50_ms", POINT)],
        "RouterHandle::serve over in-process execute of the same QuerySet, minus 1",
    ),
    layer(
        "shard.predict_p95_ms",
        "ms",
        Lower,
        &[("predict_p50_ms", POINT)],
        "p95 of RouterHandle::serve",
    ),
    layer(
        "shard.predict_samples",
        "count",
        Higher,
        &[("predict_p50_ms", POINT)],
        "samples behind shard.predict_p95_ms",
    ),
    layer(
        "shard.wire_encode_us",
        "us",
        Lower,
        &[("predict_p50_ms", POINT)],
        "Request plus Reply encode",
    ),
    layer(
        "shard.wire_decode_us",
        "us",
        Lower,
        &[("predict_p50_ms", POINT)],
        "Request plus Reply decode",
    ),
    layer(
        "shard.reply_bytes",
        "bytes",
        Lower,
        &[("predict_p50_ms", POINT)],
        "encoded Rows reply of a representative request",
    ),
    // store
    layer(
        "store.seed_ms",
        "ms",
        Lower,
        &[("setup_s", CHURN)],
        "Durability::open on a fresh directory",
    ),
    layer(
        "store.record_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "Durability::record",
    ),
    layer(
        "store.fsyncs_per_update",
        "count",
        Lower,
        &[("update_p50_ms", CHURN)],
        "DurabilityStats.fsyncs per logged delta",
    ),
    layer(
        "store.log_bytes_per_update",
        "bytes",
        Lower,
        &[("update_p50_ms", CHURN)],
        "DurabilityStats.logged_bytes per logged delta",
    ),
    layer(
        "store.checkpoint_ms",
        "ms",
        Lower,
        &[("update_p50_ms", CHURN)],
        "snapshot_wall_seconds over snapshots_written",
    ),
    layer(
        "store.recover_open_ms",
        "ms",
        Lower,
        &[("recover_s", CHURN)],
        "Durability::open on an existing directory",
    ),
    layer(
        "store.replay_ms",
        "ms",
        Lower,
        &[("recover_s", CHURN)],
        "apply_delta of every replayed frame",
    ),
    layer(
        "store.frames_replayed",
        "count",
        Lower,
        &[("recover_s", CHURN)],
        "RecoveryReport.frames_replayed",
    ),
    // host and benchmark
    PerLayer {
        name: "host.steal_share",
        unit: "ratio",
        better: Lower,
        moves: Moves::Nothing("host condition: CPU stolen from this machine during the run"),
        what: "steal ticks over all ticks in /proc/stat across the run",
    },
    PerLayer {
        name: "bench.trace_overhead_share",
        unit: "ratio",
        better: Lower,
        moves: Moves::Nothing("cost of the tracing itself"),
        what: "traced over untraced wall time per window operation, minus 1",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn list(items: impl Iterator<Item = String>, indent: &str) -> String {
    let items: Vec<String> = items.map(|i| format!("{indent}  {i}")).collect();
    format!("[\n{}\n{indent}]", items.join(",\n"))
}

/// The `BENCHMARK.json` text this registry describes.
pub fn benchmark_json() -> String {
    let command = COMMAND
        .iter()
        .map(|s| quoted(s))
        .collect::<Vec<_>>()
        .join(", ");
    let paths = PATHS
        .iter()
        .map(|s| quoted(s))
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = list(
        WORKLOADS.iter().map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        }),
        "  ",
    );
    let e2e = list(
        END_TO_END.iter().map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        }),
        "  ",
    );
    let layers = list(
        PER_LAYER.iter().map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        }),
        "  ",
    );
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{paths}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {workloads},\n  \"end_to_end\": {e2e},\n  \"per_layer\": {layers}\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Whether `s` is a valid metric or workload name.
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn benchmark_json_is_generated_from_this_registry() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `perfbench --print-benchmark-json`"
        );
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name(""));
    }

    #[test]
    fn every_layer_metric_names_what_it_moves_and_where() {
        for m in PER_LAYER {
            match &m.moves {
                Moves::To(pairs) => {
                    assert!(
                        !pairs.is_empty(),
                        "{} moves nothing and says not why",
                        m.name
                    );
                    for (metric, on) in pairs.iter() {
                        assert!(
                            end_to_end(metric).is_some(),
                            "{}: unknown metric {metric}",
                            m.name
                        );
                        assert!(
                            *on == ALL || workload(on).is_some(),
                            "{}: unknown workload {on}",
                            m.name
                        );
                    }
                }
                Moves::Nothing(why) => assert!(!why.is_empty(), "{}", m.name),
            }
        }
    }
}
