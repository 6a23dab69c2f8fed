#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! **SNAPLE** — scalable link prediction for gather-apply-scatter engines.
//!
//! This crate implements the contribution of *"Scaling Out Link Prediction
//! with SNAPLE: 1 Billion Edges and Beyond"* (Kermarrec, Taïani, Tirado;
//! INRIA RR-454): a scoring framework for the link-prediction problem that
//! fits the locality constraints of GAS engines.
//!
//! # The scoring framework
//!
//! A SNAPLE *scoring configuration* is the triple of
//!
//! 1. a raw [`similarity`] metric `sim(u, v)` computed from the (truncated)
//!    neighborhoods of adjacent vertices — Jaccard's coefficient by default;
//! 2. a [`combinator`] `⊗` that turns the two raw similarities along a
//!    2-hop path `u → v → z` into a *path similarity*
//!    `sim⋆_v(u, z) = sim(u, v) ⊗ sim(v, z)` (paper §3.1);
//! 3. an [`aggregator`] `⊕` that merges the path similarities of all paths
//!    reaching the same candidate `z` into the final `score(u, z)`
//!    (paper §3.2), decomposed into an incremental `⊕pre` and a
//!    normalization `⊕post`.
//!
//! The eleven named combinations of the paper's Table 3 are available as
//! [`NamedScore`] values; arbitrary user-supplied components can be used via
//! [`ScoreComponents`].
//!
//! # Declarative score plans
//!
//! The scoring surface is *declarative*: a [`ScoreSpec`] describes one
//! score column — similarity kernel(s), combinator, aggregator, `k`,
//! weight — and parses from compact strings (`"jaccard@k16"`,
//! `"cosine*0.7+common"`, any Table 3 name; the full grammar is in the
//! [`spec`] module docs). A [`ScorePlan`] holds N specs and **compiles
//! them to one fused sweep**: the neighborhood and similarity phases run
//! once, every kernel reads the same [`NeighborhoodView`], and each
//! sampled 2-hop path is walked a single time for all columns. Each
//! column of the resulting [`ScoreMatrix`] is bit-identical to running
//! that spec alone — at roughly one traversal's gather cost instead of N:
//!
//! ```
//! use snaple_core::{ExecuteRequest, PrepareRequest, ScorePlan};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//!
//! // Four scoring configurations, one graph traversal:
//! let plan = ScorePlan::parse("linearSum, counter, PPR, jaccard@agg=max")?;
//! let prepared = plan.prepare_plan(&PrepareRequest::new(&graph, &cluster))?;
//! let matrix = prepared.execute_matrix(&ExecuteRequest::new())?;
//! assert_eq!(matrix.num_columns(), 4);
//! println!("gathers for all 4 columns: {}", matrix.stats.steps[0].gather_calls);
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! [`Snaple`] is the 1-spec special case: its `execute` path compiles the
//! configuration into a single-column plan and runs the same fused
//! engine.
//!
//! # The GAS program
//!
//! [`Snaple`] runs the paper's Algorithm 2 as three GAS steps on a
//! [`snaple_gas::Engine`]:
//!
//! 1. [`steps::NeighborhoodStep`] — collect each vertex's neighbor ids,
//!    probabilistically truncated to `thrΓ` entries;
//! 2. [`steps::SimilarityStep`] — compute raw similarities along edges and
//!    keep each vertex's `klocal` most similar neighbors
//!    (`Γmax_klocal`, eq. 11 — or the min/random variants of §5.6);
//! 3. [`steps::ScoreStep`] — combine and aggregate path similarities over
//!    the sampled 2-hop paths and keep the top-`k` candidates.
//!
//! # The prediction API
//!
//! Every backend (SNAPLE here, plus the BASELINE and Cassovary comparator
//! crates) implements the [`Predictor`] trait: one `predict` entry point
//! taking a [`PredictRequest`] — the graph, the cluster, optional
//! per-vertex content attributes, and an optional [`QuerySet`] restricting
//! the run to a subset of source vertices.
//!
//! ```
//! use snaple_core::{PredictRequest, Predictor, NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let config = SnapleConfig::new(NamedScore::LinearSum)
//!     .k(5)
//!     .klocal(Some(20))
//!     .thr_gamma(Some(200));
//! let snaple = Snaple::new(config);
//! let prediction = Predictor::predict(&snaple, &PredictRequest::new(&graph, &cluster))?;
//! assert_eq!(prediction.num_vertices(), graph.num_vertices());
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! # Serving a query set
//!
//! A production "who to follow" deployment rarely refreshes every user at
//! once — it answers for the users who are active. Attach a [`QuerySet`]
//! to the request and the GAS steps run under shrinking active-vertex
//! masks, touching only the part of the graph that can influence the
//! queried rows — per-vertex state, edge walks and result rows all scale
//! with the queries' neighborhoods, not with the graph:
//!
//! ```
//! use snaple_core::{PredictRequest, Predictor, QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! // The 500 "currently active" users.
//! let active = QuerySet::sample(graph.num_vertices(), 500, 7);
//! let req = PredictRequest::new(&graph, &cluster).with_queries(&active);
//! let suggestions = Predictor::predict(&snaple, &req)?;
//! for user in active.iter() {
//!     // Same rows an all-vertices run would produce, at a fraction of
//!     // the work (see RunStats::total_work_ops).
//!     let _ranked = suggestions.for_vertex(user);
//! }
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! # Serving a request *stream*
//!
//! One-shot `predict` rebuilds the O(edges) vertex-cut partition per
//! call. For a stream of requests against the same graph, split the
//! lifecycle: [`Predictor::prepare`] builds the heavy state once and
//! returns a [`PreparedPredictor`] whose
//! [`execute`](PreparedPredictor::execute) answers each request — or let
//! a [`serve::Server`] do it for you, coalescing concurrent requests
//! into shared masked supersteps and demultiplexing bit-identical
//! per-request rows:
//!
//! ```
//! use snaple_core::serve::Server;
//! use snaple_core::{QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let mut server = Server::new(&snaple, &graph, &cluster)?;
//! let wave: Vec<QuerySet> = (0..4)
//!     .map(|i| QuerySet::sample(graph.num_vertices(), 50, i))
//!     .collect();
//! let responses = server.serve_batch(&wave)?; // one shared superstep run
//! assert_eq!(responses.len(), 4);
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! # Serving concurrently
//!
//! For a multi-threaded request load, the [`concurrent`] module runs the
//! same serve loop as a worker pool over one `Arc`-shared snapshot:
//! bounded-queue backpressure ([`SnapleError::QueueFull`]), per-request
//! p50/p95/p99 latency tracking, and **epoch-swapped** updates
//! ([`PreparedPredictor::fork_with_delta`]) that never stall reads —
//! with every response bit-identical to the sequential [`serve::Server`]
//! for the same seed:
//!
//! ```
//! use snaple_core::concurrent::{ConcurrentOptions, ConcurrentServer};
//! use snaple_core::{QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.005, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! let outcome = ConcurrentServer::run(
//!     &snaple, &graph, &cluster,
//!     ConcurrentOptions::default().workers(2),
//!     |handle| handle.serve(&QuerySet::sample(graph.num_vertices(), 50, 7)),
//! )?;
//! let _prediction = outcome.value?;
//! println!("{}", outcome.stats.summary()); // includes p50/p95/p99
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! # Restartable serving
//!
//! Both serve layers persist through the [`store`] crate
//! (re-exported here): open a [`store::Durability`] on a data dir and
//! attach it ([`serve::Server::attach_durability`] /
//! [`concurrent::ConcurrentServer::run_prepared_durable`]). Every
//! update then appends to an fsync'd, checksummed commitlog *before*
//! it applies, and every K updates the store checkpoints a compacted
//! snapshot. After a crash, [`store::Durability::open`] recovers the
//! newest valid snapshot plus the log tail — bit-identical to the
//! never-crashed server, with torn tail frames and corrupt snapshots
//! repaired (never a panic) and reported in a
//! [`store::RecoveryReport`]:
//!
//! ```
//! use snaple_core::serve::Server;
//! use snaple_core::store::{Durability, DurabilityOptions};
//! use snaple_core::{NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let dir = std::env::temp_dir().join(format!("snaple-doc-{}", std::process::id()));
//! let graph = datasets::GOWALLA.emulate(0.005, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! // Open (or recover) the data dir, prepare on the recovered graph,
//! // replay the unsnapshotted log tail, then attach.
//! let (durable, recovered, report) =
//!     Durability::open(&dir, &graph, b"", DurabilityOptions::default())?;
//! let (graph, replay) = match recovered {
//!     Some(state) => (state.graph, state.replay),
//!     None => (graph.clone(), Vec::new()),
//! };
//! let mut server = Server::new(&snaple, &graph, &cluster)?;
//! for delta in &replay {
//!     server.apply_update(delta)?; // before attach: not re-logged
//! }
//! server.attach_durability(durable);
//! assert!(!report.repaired());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `snaple-cli serve --data-dir DIR` flag wires this up end to end;
//! `--fsync always|batch`, `--snapshot-every K`, and `--retain N` tune
//! the store. See the [`serve` module docs](serve#restartable-serving)
//! for the full protocol.
//!
//! # Serving across shards
//!
//! One process eventually runs out of cores and memory headroom. The
//! [`shard`] module splits the serving runtime into `N` independent
//! shards — each an isolated runtime owning the vertices whose master
//! partition falls in its block — fronted by a [`ShardRouter`] that
//! scatters each request to the owning shards and gathers the disjoint
//! row sets back together. Shards are plain threads by default
//! ([`ShardTransport::Threads`]) or `snaple-shardd` child processes
//! ([`ShardTransport::Processes`]); both speak the same checksummed
//! binary wire protocol, and both serve rows **bit-identical** to a
//! single-process [`ConcurrentServer`] — including across
//! [`GraphDelta`] updates, which broadcast to every shard and apply in
//! place there. A shard that dies mid-flight surfaces as
//! [`SnapleError::ShardFailed`] on the affected requests; the router
//! keeps serving the surviving shards. See the [`shard`] module docs
//! for the topology, the wire framing, and the thread/process
//! trade-off:
//!
//! ```no_run
//! use snaple_core::shard::{ShardOptions, ShardRouter, ShardSpec, ShardTransport};
//! use snaple_core::{QuerySet, NamedScore, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.005, 42);
//! let spec = ShardSpec::Single(SnapleConfig::new(NamedScore::LinearSum));
//! let outcome = ShardRouter::run(
//!     &spec, &graph, &ClusterSpec::type_ii(8),
//!     ShardOptions::new().shards(4).transport(ShardTransport::Threads),
//!     |handle| handle.serve(&QuerySet::sample(graph.num_vertices(), 50, 7)),
//! )?;
//! let _prediction = outcome.value?;
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! # Performance notes
//!
//! The gather hot path — sorted-set intersection over adjacency lists —
//! is tiered, and every tier is **bit-identical** (the bit-identity
//! suites hold all of them to the same results):
//!
//! * [`similarity::intersection_size`] dispatches per pair: when one
//!   list is more than 16× longer than the other it gallops
//!   (`O(short · log long)`), when both lists have at least 16 entries
//!   *and* the crate is built with the **`simd` cargo feature** it takes
//!   a block-compare path (8-wide branch-free equality blocks that LLVM
//!   auto-vectorizes), and otherwise it falls back to the linear merge
//!   that [`similarity::intersection_size_scalar`] always runs.
//! * [`Similarity::score_stripe`] is the batched kernel entry point: the
//!   fused sweep hands each kernel a whole contiguous *stripe* of
//!   neighbor views (one virtual dispatch per gather run instead of per
//!   pair, `Γ̂(u)` hot in cache across the stripe). The default
//!   implementation loops [`Similarity::score`], so custom kernels keep
//!   working unchanged; overrides must stay bit-identical to the
//!   per-pair path.
//! * Custom [`snaple_gas::GasStep`]s can likewise override
//!   `gather_run` to consume whole neighbor runs; overrides must
//!   replicate the per-edge accounting protocol documented there or the
//!   byte-exact cluster statistics drift.
//! * Degree-ordered vertex relabeling (`snaple_graph::Relabeling`) is an
//!   opt-in preprocessing pass that packs hub rows first for cache
//!   locality; predictions map back through the inverse permutation
//!   (`tests/relabeling.rs` pins down which configurations round-trip
//!   bit-identically).
//!
//! The `exp-gather` bench binary races the scalar baseline against the
//! striped/vectorized path on an emulated Orkut graph and writes
//! `BENCH_gather.json` (one JSON line per kernel with
//! `scalar_seconds`, `striped_seconds`, and `speedup`); CI enforces the
//! speedup floor on every push. Criterion micros live in
//! `crates/bench/benches/micro.rs` (`intersection-skew`,
//! `kernel-stripe`, `relabel` groups).

pub mod aggregator;
pub mod combinator;
pub mod concurrent;
pub mod config;
pub mod error;
pub mod plan;
pub mod predictor;
pub mod predictor_api;
pub mod serve;
pub mod shard;
pub mod similarity;
pub mod spec;
pub mod state;
pub mod steps;
pub(crate) mod sync;
pub mod topk;

pub use aggregator::Aggregator;
pub use combinator::Combinator;
pub use concurrent::{
    ConcurrentOptions, ConcurrentOutcome, ConcurrentServer, PendingPrediction, ServeHandle,
};
pub use config::{NamedScore, PathLength, ScoreComponents, SelectionPolicy, SnapleConfig};
pub use error::SnapleError;
pub use plan::{PlanConfig, PreparedPlan, ScoreMatrix, ScorePlan};
pub use predictor::{Prediction, PreparedSnaple, Snaple};
pub use predictor_api::{
    ExecuteRequest, PredictRequest, Predictor, PrepareRequest, PreparedPredictor, QuerySet,
    SetupStats,
};
pub use serve::{LatencyHistogram, Server, ServerStats};
pub use shard::{
    RouterHandle, ShardOptions, ShardOutcome, ShardRouter, ShardSpec, ShardTransport, WireError,
};
pub use similarity::{NeighborhoodView, Similarity};
pub use snaple_gas::DeltaStats;
pub use snaple_graph::GraphDelta;
pub use snaple_store as store;
pub use spec::{Registry, ScoreSpec};
pub use state::SnapleVertex;
