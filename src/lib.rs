#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # SNAPLE — scalable link prediction for GAS engines
//!
//! Umbrella crate of the reproduction of *"Scaling Out Link Prediction with
//! SNAPLE: 1 Billion Edges and Beyond"* (Kermarrec, Taïani, Tirado; INRIA
//! RR-454 / MIDDLEWARE 2015). It re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `snaple-graph` | CSR graphs, I/O, statistics, generators |
//! | [`gas`] | `snaple-gas` | simulated distributed GAS engine |
//! | [`core`] | `snaple-core` | the SNAPLE scoring framework + predictor |
//! | [`baseline`] | `snaple-baseline` | the paper's direct GAS baseline |
//! | [`cassovary`] | `snaple-cassovary` | single-machine random-walk comparator |
//! | [`eval`] | `snaple-eval` | hold-out protocol, recall, experiment runner |
//! | [`store`] | `snaple-store` | durability: delta commitlog, snapshots, crash recovery |
//! | [`supervised`] | `snaple-supervised` | supervised re-ranking over SNAPLE scores (§7 future work) |
//!
//! # Quickstart
//!
//! Every backend answers one call: [`Predictor::predict`] over a
//! [`PredictRequest`] bundling the graph, the simulated cluster, optional
//! per-vertex attributes, and an optional query subset.
//!
//! [`Predictor::predict`]: core::Predictor::predict
//! [`PredictRequest`]: core::PredictRequest
//!
//! ```
//! use snaple::core::{PredictRequest, Predictor, NamedScore, Snaple, SnapleConfig};
//! use snaple::gas::ClusterSpec;
//! use snaple::graph::gen::datasets;
//!
//! // A scaled-down emulation of the paper's gowalla dataset...
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! // ...a 4-node cluster of the paper's type-II machines...
//! let cluster = ClusterSpec::type_ii(4);
//! // ...and the paper's best-recall configuration.
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//! let prediction = Predictor::predict(&snaple, &PredictRequest::new(&graph, &cluster))?;
//! println!(
//!     "predicted {} edges in {:.1} simulated seconds",
//!     prediction.total_predictions(),
//!     prediction.simulated_seconds()
//! );
//! # Ok::<(), snaple::core::SnapleError>(())
//! ```
//!
//! # Serving a query set
//!
//! Production link prediction serves *users*, not graphs: a request asks
//! for suggestions for the accounts that are active right now. Attach a
//! [`QuerySet`](core::QuerySet) and the run restricts itself to the part
//! of the graph that can influence those rows — same results for the
//! queried vertices, a fraction of the work:
//!
//! ```
//! use snaple::core::{PredictRequest, Predictor, QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple::gas::ClusterSpec;
//! use snaple::graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let active_users = QuerySet::sample(graph.num_vertices(), 200, 7);
//! let req = PredictRequest::new(&graph, &cluster).with_queries(&active_users);
//! let suggestions = Predictor::predict(&snaple, &req)?;
//! assert!(active_users.iter().all(|u| u.index() < suggestions.num_vertices()));
//! # Ok::<(), snaple::core::SnapleError>(())
//! ```
//!
//! The same request type drives the BASELINE and random-walk backends, the
//! supervised re-ranker, the [`eval`] runner, and the `snaple-cli predict
//! --queries`/`--query-sample` flags.
//!
//! # Many scores, one sweep
//!
//! SNAPLE is a scoring *framework*, and real workloads evaluate many
//! scoring configurations over the same graph — parameter sweeps,
//! feature panels, ensembles. A [`ScorePlan`](core::ScorePlan) declares
//! N score columns (parsed from compact [spec strings](core::spec) like
//! `"jaccard@k16"` or `"cosine*0.7+common"`) and compiles them into
//! **one fused superstep sweep**: neighborhoods are gathered once, every
//! kernel reads the same neighborhood views, every sampled 2-hop path is
//! walked once. Each column is bit-identical to running its spec alone,
//! at roughly one traversal's cost instead of N:
//!
//! ```
//! use snaple::core::{ExecuteRequest, PrepareRequest, ScorePlan};
//! use snaple::gas::ClusterSpec;
//! use snaple::graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//!
//! let plan = ScorePlan::parse("linearSum, counter, PPR, jaccard@agg=max")?;
//! let prepared = plan.prepare_plan(&PrepareRequest::new(&graph, &cluster))?;
//! let matrix = prepared.execute_matrix(&ExecuteRequest::new())?;
//! for (label, extra_ops) in matrix.column_attribution() {
//!     println!("{label}: {extra_ops} column-specific ops");
//! }
//! # Ok::<(), snaple::core::SnapleError>(())
//! ```
//!
//! [`Snaple`](core::Snaple) itself executes as the 1-spec special case,
//! the supervised feature panel extracts all of its columns from one
//! fused sweep, and the CLI exposes plans via `snaple-cli predict/serve
//! --scores` and the `snaple-cli sweep` config × metric table;
//! `tests/score_plan.rs` holds the fused sweep under 60 % of the
//! independent runs' gather calls, and perfbench's `batch-all` workload
//! runs a four-column plan (`core.execute_all_ms`).
//!
//! # Serving a request stream
//!
//! A stream of requests against the same graph should not rebuild the
//! O(edges) partition per call. [`Predictor::prepare`] splits the
//! lifecycle into *prepare once, execute many*, and
//! [`Server`](core::serve::Server) layers request coalescing on top:
//! concurrent query sets are unioned into one shared masked superstep
//! run and demultiplexed into bit-identical per-request rows.
//!
//! [`Predictor::prepare`]: core::Predictor::prepare
//!
//! ```
//! use snaple::core::serve::Server;
//! use snaple::core::{QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple::gas::ClusterSpec;
//! use snaple::graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let mut server = Server::new(&snaple, &graph, &cluster)?;
//! let wave: Vec<QuerySet> = (0..4)
//!     .map(|i| QuerySet::sample(graph.num_vertices(), 50, i))
//!     .collect();
//! let responses = server.serve_batch(&wave)?;
//! assert_eq!(responses.len(), 4);
//! println!("{}", server.stats().summary());
//! # Ok::<(), snaple::core::SnapleError>(())
//! ```
//!
//! The CLI exposes the same layer as `snaple-cli serve --graph g.snplg
//! --requests stream.txt --batch 8`. `tests/prepared_serving.rs` holds
//! served rows bit-identical to one-shot `predict`s, and perfbench
//! measures the split (`core.prepare_ms`, `core.execute_point_ms`,
//! `core.server_overhead_share`).
//!
//! # Concurrent serving
//!
//! The sequential `Server` runs everything on the caller's thread. For a
//! multi-threaded request load,
//! [`ConcurrentServer`](core::concurrent::ConcurrentServer) owns a pool
//! of workers executing against one `Arc`-shared prepared snapshot
//! (every [`PreparedPredictor::execute`](core::PreparedPredictor::execute)
//! is `&self` with truly per-call run state), applies backpressure
//! through a bounded submission queue, and swaps in post-delta **epochs**
//! so updates never stall reads. Responses stay bit-identical to the
//! sequential server for the same seed:
//!
//! ```
//! use snaple::core::concurrent::{ConcurrentOptions, ConcurrentServer};
//! use snaple::core::{QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple::gas::ClusterSpec;
//! use snaple::graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.005, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let outcome = ConcurrentServer::run(
//!     &snaple, &graph, &cluster,
//!     ConcurrentOptions::default().workers(4).batch(8),
//!     |handle| {
//!         let q = QuerySet::sample(graph.num_vertices(), 50, 7);
//!         handle.serve(&q) // round trip through the worker pool
//!     },
//! )?;
//! let _prediction = outcome.value?;
//! // p50/p95/p99 latency percentiles ride along in the stats.
//! println!("{}", outcome.stats.summary());
//! # Ok::<(), snaple::core::SnapleError>(())
//! ```
//!
//! `snaple-cli serve --workers N` serves any request/update stream
//! through the pool, and `crates/bench/tests/gates.rs` holds 8 workers
//! at >= the sequential server's throughput (a release-only test).
//!
//! # Streaming graph updates
//!
//! The served graph does not stay frozen: the full serving lifecycle is
//! *prepare → execute → apply_delta → execute*. Batch edge insertions
//! and removals into a [`GraphDelta`](graph::GraphDelta) and apply it to
//! a running server (or any prepared predictor) **in place** — the
//! deployment folds the delta in incrementally (linear
//! [`CsrGraph::compact`](graph::CsrGraph::compact) merge, only the
//! touched vertex-cut partitions re-routed) instead of paying a full
//! O(edges) re-prepare, and every later prediction is bit-identical to
//! a cold restart on the mutated graph:
//!
//! ```
//! use snaple::core::serve::Server;
//! use snaple::core::{GraphDelta, QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple::gas::ClusterSpec;
//! use snaple::graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let mut server = Server::new(&snaple, &graph, &cluster)?;
//! let active = QuerySet::sample(graph.num_vertices(), 50, 7);
//! let before = server.serve(&active)?;                     // execute
//!
//! let mut delta = GraphDelta::new();                       // new follow edges arrive
//! delta.insert(0, 1234).insert(17, 99).remove(4, 2);
//! let applied = server.apply_update(&delta)?;              // apply_delta, in place
//! assert!(applied.touched_partitions <= cluster.nodes);
//!
//! let after = server.serve(&active)?;                      // execute on the new graph
//! # let _ = (before, after);
//! # Ok::<(), snaple::core::SnapleError>(())
//! ```
//!
//! The CLI serves mixed streams via `snaple-cli serve --updates
//! mixed.txt` (`predict IDS` / `add U V` / `remove U V` lines), and
//! perfbench's `serve-churn` workload measures an update's phases
//! (`gas.apply_delta_first_ms`, `gas.apply_delta_ms`,
//! `graph.compact_ms`) against a cold `gas.deploy_ms`.
//!
//! Under the concurrent runtime the same deltas go through
//! [`ServeHandle::apply_update`](core::concurrent::ServeHandle::apply_update)
//! instead: the post-delta snapshot is forked off to the side
//! ([`PreparedPredictor::fork_with_delta`](core::PreparedPredictor::fork_with_delta))
//! and atomically published as a new epoch, so in-flight reads finish on
//! the old graph and no response ever mixes the two.
//!
//! # Restartable serving
//!
//! Streamed updates survive restarts through the [`store`] crate: a
//! [`store::Durability`] handle write-ahead-logs every delta into an
//! fsync'd, crc-checksummed commitlog and checkpoints compacted,
//! versioned snapshots every K updates. Attach it to either serve layer
//! ([`Server::attach_durability`](core::serve::Server::attach_durability),
//! [`ConcurrentServer::run_prepared_durable`](core::concurrent::ConcurrentServer::run_prepared_durable))
//! and a crashed or stopped server reopens **bit-identical** to one that
//! never went down: [`store::Durability::open`] loads the newest valid
//! snapshot (falling back past corrupt ones), truncates torn log tails,
//! and hands back the delta tail to replay. From the command line:
//!
//! ```bash
//! snaple-cli serve --graph g.snplg --updates mixed.txt --data-dir ./state
//! # ...crash or ctrl-C, then re-run: recovers snapshot + log tail
//! snaple-cli serve --graph g.snplg --requests stream.txt --data-dir ./state
//! ```
//!
//! See the [core serve docs](core::serve#restartable-serving) for the
//! recovery protocol, `tests/durable_serving.rs` for the
//! kill-at-any-byte crash-recovery properties, and perfbench's
//! `serve-churn` workload for the fsync and recovery-time costs.

pub use snaple_baseline as baseline;
pub use snaple_cassovary as cassovary;
pub use snaple_core as core;
pub use snaple_eval as eval;
pub use snaple_gas as gas;
pub use snaple_graph as graph;
pub use snaple_store as store;
pub use snaple_supervised as supervised;
