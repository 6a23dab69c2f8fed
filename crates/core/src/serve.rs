//! The serving core: answer a *stream* of query-set requests against one
//! prepared predictor.
//!
//! This module is the one description of the serving model. Every runtime
//! runs the same three jobs through it — coalesced execute
//! ([`Server::serve_batch`]'s union → execute → demultiplex), stream
//! statistics ([`ServerStats`]) and write-ahead logging of updates — and
//! adds only what is truly its own:
//!
//! | runtime | what it adds | how an update lands |
//! |---|---|---|
//! | sequential [`Server`] | nothing: batches run on the caller's thread through `&mut self` | applied in place between batches |
//! | [`ConcurrentServer`](crate::concurrent::ConcurrentServer) | a bounded queue, N worker threads and an epoch cell over one `Arc`-shared snapshot | forked off to the side, then swapped in as the next epoch |
//! | [`ShardRouter`](crate::shard::ShardRouter) | a frame loop per shard, each shard a [`Server`] behind it, and a scatter-gather front end | broadcast to every shard, applied in place on each |
//!
//! All three return bit-identical rows for the same requests and seed.
//!
//! # Prepare once
//!
//! A runtime holds a [`PreparedPredictor`], so the O(edges) partition
//! build and all backend precomputation are paid a single time for the
//! whole stream (see [`Predictor::prepare`]).
//!
//! # Coalescing
//!
//! A batch of requests is answered by **one** masked superstep run: the
//! query sets are unioned into one active-vertex mask, executed once, and
//! the rows demultiplexed back per request. Masked runs are *exact* (each
//! queried row is bit-identical to an all-vertices run), so every
//! response is bit-identical to executing its request alone; the batch
//! only shares the fixed per-superstep costs. A batch of one returns the
//! run itself, whose non-queried rows are already empty.
//!
//! # Epochs
//!
//! The served graph does not stay frozen: an update folds edge
//! insertions and removals into the prepared deployment at a cost
//! proportional to the delta, not to the graph, and every later
//! prediction is bit-identical to a cold rebuild on the mutated graph.
//! Each applied update starts a new epoch, and every batch observes
//! exactly one epoch. The sequential server and each shard apply updates
//! in place, which serializes them against predictions. The concurrent
//! server builds the post-delta snapshot beside the current one
//! ([`PreparedPredictor::fork_with_delta`]) and swaps it in, so reads
//! never block on a write; in-flight batches finish on the epoch they
//! started with.
//!
//! # Statistics
//!
//! [`ServerStats`] tracks the stream: throughput, coalescing, per-request
//! latency percentiles from a fixed-bucket [`LatencyHistogram`] (no
//! per-request allocation), and cumulative update costs. Only a
//! successful run or update is recorded; a failing one leaves every
//! counter untouched.
//!
//! # Write-ahead and restart
//!
//! Attach a [`snaple_store::Durability`] store
//! ([`Server::attach_durability`], or
//! [`ConcurrentServer::run_prepared_durable`](crate::concurrent::ConcurrentServer::run_prepared_durable))
//! and serving becomes restartable. Every update is appended to an
//! fsync'd, checksummed commitlog *before* it becomes observable: the
//! sequential server logs and then applies; the concurrent server forks,
//! logs, and then swaps, so log order is epoch order. A logging failure
//! rejects the update with [`SnapleError::Durability`] and leaves the
//! serving state unchanged. Every K logged deltas the store checkpoints a
//! compacted snapshot of the graph. Shards never own a data dir.
//!
//! After a crash, restart in three steps:
//!
//! 1. `Durability::open(dir, base, config, opts)` recovers the newest
//!    valid snapshot (falling back to older ones past checksum failures)
//!    plus the commitlog tail, as a graph, replay deltas and a
//!    [`snaple_store::RecoveryReport`].
//! 2. Prepare the predictor on the *recovered* graph and apply the replay
//!    deltas — **before** attaching the store, so they are not re-logged.
//!    The result is bit-identical to the pre-crash graph.
//! 3. Attach the store; subsequent updates persist.
//!
//! With no store attached the durability path is a `None` check.
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
//! // Four concurrent user requests, answered in one shared superstep run:
//! let requests: Vec<QuerySet> = (0..4)
//!     .map(|i| QuerySet::sample(graph.num_vertices(), 25, i))
//!     .collect();
//! let responses = server.serve_batch(&requests)?;
//! assert_eq!(responses.len(), 4);
//! println!("{}", server.stats().summary());
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use std::time::Instant;

use snaple_gas::{ClusterSpec, DeltaStats};
use snaple_graph::{GraphDelta, GraphStore, VertexId};
use snaple_store::{Durability, DurabilityStats, StoreError};

use crate::error::SnapleError;
use crate::predictor::Prediction;
use crate::predictor_api::{
    ExecuteRequest, Predictor, PrepareRequest, PreparedPredictor, QuerySet, SetupStats,
};

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^{i+1})` microseconds, so 40 buckets span 1 µs to ~18 minutes.
const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket latency histogram: power-of-two microsecond buckets,
/// recorded with **no per-request allocation** (one array increment), so
/// the serving hot path can track per-request latency percentiles at any
/// request rate.
///
/// Percentiles are bucket-resolution approximations: the reported value
/// is the geometric midpoint of the bucket containing the requested
/// quantile (within ~±41% of the true value — plenty for p50/p95/p99
/// dashboards distinguishing microseconds from milliseconds from
/// seconds).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation (clamped into the bucket range; negative
    /// and sub-microsecond values land in the first bucket).
    pub fn record(&mut self, seconds: f64) {
        let micros = (seconds * 1e6).max(0.0) as u64;
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        // snaple-lint: allow(index) — idx is clamped to LATENCY_BUCKETS - 1 on the line above
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Folds another histogram into this one (used to aggregate per-worker
    /// and per-shard recordings).
    ///
    /// Buckets are positional and every histogram uses the same
    /// power-of-two-microsecond bucket boundaries, so merging is exact:
    /// `count()` adds up and every quantile of the merge equals the
    /// quantile of the pooled observations (at bucket resolution).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The raw per-bucket counts (bucket `i` covers `[2^i, 2^{i+1})`
    /// microseconds) — the serializable wire form of the histogram.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from serialized [`bucket_counts`]
    /// (extra trailing buckets are dropped, missing ones are zero), the
    /// inverse of [`bucket_counts`] used by the shard wire codec.
    ///
    /// [`bucket_counts`]: LatencyHistogram::bucket_counts
    pub fn from_bucket_counts(counts: &[u64]) -> Self {
        let mut h = LatencyHistogram::new();
        for (dst, &src) in h.counts.iter_mut().zip(counts) {
            *dst = src;
            h.total += src;
        }
        h
    }

    /// The latency in seconds at quantile `q` (`0.0..=1.0`); `0.0` while
    /// the histogram is empty — the accessor never divides by zero, so an
    /// update-only or unserved stream emits finite numbers.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        // `total` is the sum of the buckets, so some bucket always reaches
        // the rank; the top bucket is only a fallback.
        let bucket = self
            .counts
            .iter()
            .scan(0u64, |seen, &c| {
                *seen += c;
                Some(*seen)
            })
            .position(|seen| seen >= rank)
            .unwrap_or(LATENCY_BUCKETS - 1);
        // Geometric midpoint of [2^i, 2^{i+1}) µs, in seconds.
        2f64.powi(bucket as i32) * std::f64::consts::SQRT_2 / 1e6
    }

    /// Median request latency in seconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile request latency in seconds.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile request latency in seconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Aggregate statistics of a request stream served by any runtime of the
/// [serving core](self).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Requests answered.
    pub requests: usize,
    /// Shared superstep runs executed (one per served batch).
    pub batches: usize,
    /// Sum of per-request query counts, as received.
    pub queries_received: usize,
    /// Sum of the executed union-mask sizes — smaller than
    /// `queries_received` whenever coalescing deduplicated overlapping
    /// queries.
    pub union_queries: usize,
    /// Simulated cluster seconds across all shared runs.
    pub simulated_seconds: f64,
    /// Host wall-clock seconds spent serving (excludes setup).
    pub serve_wall_seconds: f64,
    /// Host wall-clock seconds the one-time `prepare` took.
    pub setup_wall_seconds: f64,
    /// Host wall-clock seconds of the one-time partition build within
    /// setup.
    pub partition_build_seconds: f64,
    /// Replication factor of the prepared partition.
    pub replication_factor: f64,
    /// Graph-update (delta) requests applied to the stream's deployment.
    pub updates: usize,
    /// Edge insertions applied across all updates.
    pub edges_inserted: usize,
    /// Edge removals applied across all updates.
    pub edges_removed: usize,
    /// Host wall-clock seconds spent applying deltas — the cost the
    /// incremental path pays *instead of* a full re-prepare per update.
    pub delta_apply_seconds: f64,
    /// Cumulative count of vertex-cut partitions the updates touched.
    pub delta_touched_partitions: usize,
    /// Per-request latency histogram (submission-to-response for the
    /// concurrent server, batch wall time for the sequential one).
    pub latency: LatencyHistogram,
    /// Worker threads that served the stream (`0` for the sequential
    /// in-thread [`Server`]).
    pub workers: usize,
    /// Durability counters and the recovery report, when the server
    /// persists into a data dir (`None` = ephemeral serving, zero
    /// overhead). Not carried over the shard wire — shards never own a
    /// data dir.
    pub durability: Option<DurabilityStats>,
}

impl ServerStats {
    /// Empty stream statistics carrying the setup costs of a prepared
    /// predictor.
    pub(crate) fn from_setup(setup: &SetupStats) -> Self {
        ServerStats {
            setup_wall_seconds: setup.prepare_wall_seconds,
            partition_build_seconds: setup.partition_build_seconds,
            replication_factor: setup.replication_factor,
            ..ServerStats::default()
        }
    }

    /// Folds one successful coalesced run into the stream: one batch, its
    /// requests, queries, simulated and wall seconds, plus one latency
    /// observation per request from `latencies`.
    pub(crate) fn record_batch(
        &mut self,
        run: &Coalesced,
        latencies: impl IntoIterator<Item = f64>,
    ) {
        self.requests += run.responses.len();
        self.batches += 1;
        self.queries_received += run.queries_received;
        self.union_queries += run.union_queries;
        self.simulated_seconds += run.simulated_seconds;
        self.serve_wall_seconds += run.wall_seconds;
        for seconds in latencies {
            self.latency.record(seconds);
        }
    }

    /// Folds one successfully applied update into the stream. Every
    /// counter, `delta_touched_partitions` included, is cumulative.
    pub(crate) fn record_update(&mut self, applied: &DeltaStats) {
        self.updates += 1;
        self.edges_inserted += applied.inserted_edges;
        self.edges_removed += applied.removed_edges;
        self.delta_apply_seconds += applied.apply_wall_seconds;
        self.delta_touched_partitions += applied.touched_partitions;
    }

    /// Requests answered per host wall-clock second of serving.
    pub fn throughput_rps(&self) -> f64 {
        if self.serve_wall_seconds > 0.0 {
            self.requests as f64 / self.serve_wall_seconds
        } else {
            0.0
        }
    }

    /// Mean host latency per request in seconds (batch cost split evenly
    /// across its requests).
    pub fn mean_latency_seconds(&self) -> f64 {
        if self.requests > 0 {
            self.serve_wall_seconds / self.requests as f64
        } else {
            0.0
        }
    }

    /// Folds the statistics of a runtime that ran **in parallel** with
    /// this one — a shard of a
    /// [`ShardRouter`](crate::shard::ShardRouter) deployment — into this
    /// aggregate.
    ///
    /// Throughput counters (requests, batches, queries, updates, edge
    /// counts, worker threads) add up; wall-clock and simulated durations
    /// take the **maximum** because concurrent runtimes overlap in time —
    /// summing them would double-count the wall. Deployment-shape gauges
    /// (replication factor, partitions touched by deltas) also take the
    /// maximum: each shard holds a full snapshot, so the per-shard values
    /// describe the same deployment. Latency histograms merge exactly
    /// ([`LatencyHistogram::merge`]).
    pub fn merge_parallel(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.queries_received += other.queries_received;
        self.union_queries += other.union_queries;
        self.simulated_seconds = self.simulated_seconds.max(other.simulated_seconds);
        self.serve_wall_seconds = self.serve_wall_seconds.max(other.serve_wall_seconds);
        self.setup_wall_seconds = self.setup_wall_seconds.max(other.setup_wall_seconds);
        self.partition_build_seconds = self
            .partition_build_seconds
            .max(other.partition_build_seconds);
        self.replication_factor = self.replication_factor.max(other.replication_factor);
        self.updates += other.updates;
        self.edges_inserted += other.edges_inserted;
        self.edges_removed += other.edges_removed;
        self.delta_apply_seconds = self.delta_apply_seconds.max(other.delta_apply_seconds);
        self.delta_touched_partitions = self
            .delta_touched_partitions
            .max(other.delta_touched_partitions);
        self.latency.merge(&other.latency);
        self.workers += other.workers;
        match (&mut self.durability, &other.durability) {
            (Some(mine), Some(theirs)) => {
                mine.logged_deltas += theirs.logged_deltas;
                mine.logged_bytes += theirs.logged_bytes;
                mine.fsyncs += theirs.fsyncs;
                mine.snapshots_written += theirs.snapshots_written;
                mine.log_wall_seconds = mine.log_wall_seconds.max(theirs.log_wall_seconds);
                mine.snapshot_wall_seconds =
                    mine.snapshot_wall_seconds.max(theirs.snapshot_wall_seconds);
                if mine.recovery.is_none() {
                    mine.recovery = theirs.recovery.clone();
                }
            }
            (None, Some(theirs)) => self.durability = Some(theirs.clone()),
            _ => {}
        }
    }

    /// How many received queries each executed union query stood for
    /// (1.0 = no overlap between coalesced requests).
    ///
    /// Guarded against the zero-denominator stream shapes an exported
    /// metric must never see as `NaN`/`inf`: update-only streams and
    /// all-empty batches execute zero union queries and report `1.0` (no
    /// coalescing), mirroring [`ServerStats::throughput_rps`] and
    /// [`ServerStats::mean_latency_seconds`] reporting `0.0` on their
    /// zero denominators.
    pub fn coalescing_factor(&self) -> f64 {
        if self.union_queries > 0 {
            self.queries_received as f64 / self.union_queries as f64
        } else {
            1.0
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let updates = if self.updates > 0 {
            format!(
                ", {} updates (+{} -{} edges, {:.1} ms delta apply, {} partitions touched)",
                self.updates,
                self.edges_inserted,
                self.edges_removed,
                self.delta_apply_seconds * 1e3,
                self.delta_touched_partitions,
            )
        } else {
            String::new()
        };
        let workers = if self.workers > 0 {
            format!(" on {} workers", self.workers)
        } else {
            String::new()
        };
        let durability = match &self.durability {
            Some(d) => format!(
                ", durable ({} logged deltas, {} fsyncs, {} snapshots)",
                d.logged_deltas, d.fsyncs, d.snapshots_written,
            ),
            None => String::new(),
        };
        format!(
            "{} requests in {} batches{workers}: {:.1} req/s, {:.2} ms mean latency \
             (p50/p95/p99 {:.2}/{:.2}/{:.2} ms), \
             coalescing {:.2}x, setup {:.1} ms ({:.1} ms partition build), \
             {:.2} simulated s{updates}{durability}",
            self.requests,
            self.batches,
            self.throughput_rps(),
            self.mean_latency_seconds() * 1e3,
            self.latency.p50() * 1e3,
            self.latency.p95() * 1e3,
            self.latency.p99() * 1e3,
            self.coalescing_factor(),
            self.setup_wall_seconds * 1e3,
            self.partition_build_seconds * 1e3,
            self.simulated_seconds,
        )
    }
}

/// One coalesced run: a response per request, plus the figures
/// [`ServerStats::record_batch`] folds into the stream.
pub(crate) struct Coalesced {
    /// One response per request, in request order.
    pub(crate) responses: Vec<Prediction>,
    queries_received: usize,
    union_queries: usize,
    simulated_seconds: f64,
    /// Host wall-clock seconds of the union, execute and demultiplex.
    pub(crate) wall_seconds: f64,
}

/// Unions the requests' query sets into one mask, executes it once
/// against `prepared`, and demultiplexes the rows back per request — the
/// coalesced execute of every runtime (see [Coalescing](self#coalescing)).
///
/// A batch of one returns the shared run itself: its non-queried rows
/// are already empty, so copying it into a new response would change
/// nothing but the cost.
pub(crate) fn execute_coalesced(
    prepared: &dyn PreparedPredictor,
    requests: &[QuerySet],
    attributes: Option<&[Vec<u32>]>,
    seed: Option<u64>,
) -> Result<Coalesced, SnapleError> {
    let started = Instant::now();
    let union_of_many: QuerySet;
    let union = match requests {
        // Query sets are sorted and deduplicated: one is its own union.
        [one] => one,
        _ => {
            union_of_many = requests.iter().flat_map(QuerySet::iter).collect();
            &union_of_many
        }
    };
    let mut exec = ExecuteRequest::new().with_queries(union);
    if let Some(attrs) = attributes {
        exec = exec.with_attributes(attrs);
    }
    if let Some(seed) = seed {
        exec = exec.with_seed(seed);
    }
    let shared = prepared.execute(&exec)?;
    let union_queries = union.len();
    let simulated_seconds = shared.simulated_seconds();
    let responses = if requests.len() == 1 {
        vec![shared]
    } else {
        demultiplex(&shared, requests)
    };
    Ok(Coalesced {
        responses,
        queries_received: requests.iter().map(QuerySet::len).sum(),
        union_queries,
        simulated_seconds,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Splits one shared run into per-request [`Prediction`]s: each response
/// carries exactly its request's rows (all other rows empty) plus a copy
/// of the shared run's statistics.
fn demultiplex(shared: &Prediction, requests: &[QuerySet]) -> Vec<Prediction> {
    let (n, stats) = (shared.num_vertices(), &shared.stats);
    let row = |q: VertexId| (q, shared.for_vertex(q).to_vec());
    let split = |r: &QuerySet| Prediction::from_rows(n, r.iter().map(row), stats.clone());
    requests.iter().map(split).collect()
}

/// Appends `delta` to the commitlog — the write-ahead step every durable
/// runtime takes before an update becomes observable. A failure rejects
/// the update as [`SnapleError::Durability`].
pub(crate) fn write_ahead(durable: &mut Durability, delta: &GraphDelta) -> Result<(), SnapleError> {
    durable.record(delta).map(drop).map_err(durability_error)
}

/// Maps a store failure to [`SnapleError::Durability`].
pub(crate) fn durability_error(e: StoreError) -> SnapleError {
    SnapleError::Durability {
        message: e.to_string(),
    }
}

/// Serves a stream of [`QuerySet`] requests against one prepared
/// predictor on the caller's thread — the sequential runtime of the
/// [serving core](self).
pub struct Server<'a> {
    prepared: Box<dyn PreparedPredictor + 'a>,
    attributes: Option<&'a [Vec<u32>]>,
    seed: Option<u64>,
    stats: ServerStats,
    durability: Option<Durability>,
}

impl<'a> Server<'a> {
    /// Prepares `predictor` for `graph`/`cluster` and wraps it in a
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from [`Predictor::prepare`].
    pub fn new(
        predictor: &'a dyn Predictor,
        graph: &'a dyn GraphStore,
        cluster: &'a ClusterSpec,
    ) -> Result<Self, SnapleError> {
        let started = Instant::now();
        let prepared = predictor.prepare(&PrepareRequest::new(graph, cluster))?;
        let setup_wall_seconds = started.elapsed().as_secs_f64();
        let mut server = Server::from_prepared(prepared);
        server.stats.setup_wall_seconds = setup_wall_seconds;
        Ok(server)
    }

    /// Wraps an already-prepared predictor (e.g. one shared with other
    /// consumers of the deployment).
    pub fn from_prepared(prepared: Box<dyn PreparedPredictor + 'a>) -> Self {
        Server {
            stats: ServerStats::from_setup(prepared.setup()),
            prepared,
            attributes: None,
            seed: None,
            durability: None,
        }
    }

    /// Attaches an opened [`Durability`] store: every subsequent
    /// [`Server::apply_update`] is persisted (commitlog append, then
    /// apply — write-ahead) and checkpointed at the store's cadence.
    ///
    /// Replay deltas recovered at open time must be applied *before*
    /// attaching, so they are not re-logged — see the
    /// [module docs](self#write-ahead-and-restart).
    pub fn attach_durability(&mut self, durability: Durability) {
        self.stats.durability = Some(durability.stats().clone());
        self.durability = Some(durability);
    }

    /// The attached durability store, if any.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Forces an fsync of the commitlog (a no-op when ephemeral or when
    /// the fsync policy is `always`).
    ///
    /// # Errors
    ///
    /// Surfaces the flush failure as [`SnapleError::Durability`].
    pub fn sync_durability(&mut self) -> Result<(), SnapleError> {
        if let Some(durable) = self.durability.as_mut() {
            durable.sync().map_err(durability_error)?;
            self.stats.durability = Some(durable.stats().clone());
        }
        Ok(())
    }

    /// Attaches per-vertex content attributes applied to every request.
    pub fn with_attributes(mut self, attributes: &'a [Vec<u32>]) -> Self {
        self.attributes = Some(attributes);
        self
    }

    /// Overrides the seed of every request's randomized parts.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Statistics of the stream served so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Applies a graph-update batch to the prepared deployment *in
    /// place*, between prediction batches.
    ///
    /// The underlying [`PreparedPredictor::apply_delta`] re-routes only
    /// the vertex-cut partitions the delta touches, so an update costs
    /// O(delta), not the O(edges) of a fresh prepare. Prediction batches
    /// served after the update return rows bit-identical to a cold
    /// rebuild on the mutated graph.
    ///
    /// When a [`Durability`] store is attached, the delta is appended to
    /// the commitlog *before* it is applied (write-ahead): a logging
    /// failure rejects the update with [`SnapleError::Durability`] and
    /// leaves the serving state unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying apply; on error the
    /// update is not counted.
    pub fn apply_update(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        if let Some(durable) = self.durability.as_mut() {
            write_ahead(durable, delta)?;
        }
        let applied = self.prepared.apply_delta(delta)?;
        self.stats.record_update(&applied);
        if let Some(durable) = &self.durability {
            self.stats.durability = Some(durable.stats().clone());
        }
        Ok(applied)
    }

    /// Answers one request (a batch of one).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying execute.
    pub fn serve(&mut self, queries: &QuerySet) -> Result<Prediction, SnapleError> {
        self.serve_batch(std::slice::from_ref(queries))?
            .pop()
            .ok_or_else(|| SnapleError::InvalidConfig("a batch of one produced no response".into()))
    }

    /// Answers a batch of concurrent requests through **one** shared
    /// masked superstep run (see [Coalescing](self#coalescing)).
    ///
    /// Each response is bit-identical to executing its request
    /// individually: queried rows match, non-queried rows are empty.
    /// Each response stores its own request's rows only, so a wide batch
    /// costs its queries, not one row table per request.
    /// Every response carries the statistics of the *shared* run (the
    /// batch's cost is not attributed to individual requests), and every
    /// request records the batch's wall time as its latency.
    ///
    /// An empty batch returns no responses and executes nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying execute; on error
    /// no request of the batch is counted as served.
    pub fn serve_batch(&mut self, requests: &[QuerySet]) -> Result<Vec<Prediction>, SnapleError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let run = execute_coalesced(self.prepared.as_ref(), requests, self.attributes, self.seed)?;
        self.stats
            .record_batch(&run, std::iter::repeat_n(run.wall_seconds, requests.len()));
        Ok(run.responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NamedScore, SnapleConfig};
    use crate::predictor::Snaple;
    use crate::predictor_api::PredictRequest;
    use snaple_graph::gen::datasets;
    use snaple_graph::CsrGraph;

    fn setup() -> (CsrGraph, ClusterSpec, Snaple) {
        let graph = datasets::GOWALLA.emulate(0.005, 3);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
        );
        (graph, cluster, snaple)
    }

    #[test]
    fn histogram_merge_aligns_buckets_positionally() {
        // Observations that land in three distinct power-of-two buckets:
        // 3 µs → bucket 1, 100 µs → bucket 6, 5 ms → bucket 12.
        let mut a = LatencyHistogram::new();
        a.record(3e-6);
        a.record(100e-6);
        let mut b = LatencyHistogram::new();
        b.record(3e-6);
        b.record(5e-3);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        // The merge is positional: bucket-by-bucket sums, identical to
        // recording the pooled observations directly.
        let mut pooled = LatencyHistogram::new();
        for s in [3e-6, 100e-6, 3e-6, 5e-3] {
            pooled.record(s);
        }
        assert_eq!(merged.bucket_counts(), pooled.bucket_counts());
        assert_eq!(merged, pooled);
    }

    #[test]
    fn histogram_quantiles_after_merge_match_pooled_recording() {
        // 90 fast observations in one histogram, 10 slow in another: the
        // merged p50 must sit in the fast bucket and p99 in the slow one,
        // exactly as if a single histogram had seen all 100.
        let mut fast = LatencyHistogram::new();
        for _ in 0..90 {
            fast.record(10e-6);
        }
        let mut slow = LatencyHistogram::new();
        for _ in 0..10 {
            slow.record(50e-3);
        }
        let mut merged = fast.clone();
        merged.merge(&slow);
        let mut pooled = LatencyHistogram::new();
        for _ in 0..90 {
            pooled.record(10e-6);
        }
        for _ in 0..10 {
            pooled.record(50e-3);
        }
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), pooled.quantile(q), "q={q}");
        }
        assert!(merged.p50() < 1e-3, "p50 must stay in the fast bucket");
        assert!(merged.p99() > 1e-2, "p99 must reach the slow bucket");
        // Merging an empty histogram is the identity.
        let before = merged.clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, before);
    }

    #[test]
    fn histogram_bucket_counts_round_trip() {
        let mut h = LatencyHistogram::new();
        for s in [1e-6, 3e-6, 1e-4, 2e-2, 7.0] {
            h.record(s);
        }
        let rebuilt = LatencyHistogram::from_bucket_counts(h.bucket_counts());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(LatencyHistogram::from_bucket_counts(&[]).count(), 0);
    }

    #[test]
    fn server_stats_parallel_merge_sums_counters_and_maxes_walls() {
        let mut a = ServerStats {
            requests: 10,
            batches: 4,
            queries_received: 100,
            union_queries: 90,
            simulated_seconds: 2.0,
            serve_wall_seconds: 1.0,
            setup_wall_seconds: 0.5,
            partition_build_seconds: 0.4,
            replication_factor: 1.5,
            updates: 2,
            edges_inserted: 20,
            edges_removed: 5,
            delta_apply_seconds: 0.1,
            delta_touched_partitions: 3,
            workers: 1,
            ..ServerStats::default()
        };
        a.latency.record(10e-6);
        let mut b = ServerStats {
            requests: 6,
            batches: 6,
            queries_received: 60,
            union_queries: 60,
            simulated_seconds: 3.0,
            serve_wall_seconds: 0.8,
            setup_wall_seconds: 0.7,
            partition_build_seconds: 0.2,
            replication_factor: 1.2,
            updates: 2,
            edges_inserted: 7,
            edges_removed: 1,
            delta_apply_seconds: 0.3,
            delta_touched_partitions: 8,
            workers: 1,
            ..ServerStats::default()
        };
        b.latency.record(50e-3);
        a.merge_parallel(&b);
        assert_eq!(a.requests, 16);
        assert_eq!(a.batches, 10);
        assert_eq!(a.queries_received, 160);
        assert_eq!(a.union_queries, 150);
        assert_eq!(a.simulated_seconds, 3.0); // parallel: critical path
        assert_eq!(a.serve_wall_seconds, 1.0);
        assert_eq!(a.setup_wall_seconds, 0.7);
        assert_eq!(a.partition_build_seconds, 0.4);
        assert_eq!(a.replication_factor, 1.5);
        assert_eq!(a.updates, 4);
        assert_eq!(a.edges_inserted, 27);
        assert_eq!(a.edges_removed, 6);
        assert_eq!(a.delta_apply_seconds, 0.3);
        assert_eq!(a.delta_touched_partitions, 8);
        assert_eq!(a.workers, 2);
        assert_eq!(a.latency.count(), 2);
    }

    #[test]
    fn batched_responses_are_bit_identical_to_individual_predicts() {
        let (graph, cluster, snaple) = setup();
        let requests: Vec<QuerySet> = (0..5)
            .map(|i| QuerySet::sample(graph.num_vertices(), 40, i))
            .collect();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let responses = server.serve_batch(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.iter().zip(&responses) {
            let individual = Predictor::predict(
                &snaple,
                &PredictRequest::new(&graph, &cluster).with_queries(request),
            )
            .unwrap();
            for (u, preds) in response.iter() {
                if request.contains(u) {
                    assert_eq!(preds, individual.for_vertex(u), "queried row {u}");
                } else {
                    assert!(preds.is_empty(), "non-queried row {u} must stay empty");
                }
            }
        }
    }

    #[test]
    fn serve_and_serve_batch_agree() {
        let (graph, cluster, snaple) = setup();
        let q = QuerySet::sample(graph.num_vertices(), 30, 9);
        let mut batched = Server::new(&snaple, &graph, &cluster).unwrap();
        let from_batch = batched.serve_batch(std::slice::from_ref(&q)).unwrap();
        let mut single = Server::new(&snaple, &graph, &cluster).unwrap();
        let from_serve = single.serve(&q).unwrap();
        for (u, preds) in from_serve.iter() {
            assert_eq!(preds, from_batch[0].for_vertex(u));
        }
    }

    #[test]
    fn stats_track_the_stream_and_coalescing() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        assert!(server.stats().setup_wall_seconds > 0.0);
        assert!(server.stats().partition_build_seconds > 0.0);
        assert!(server.stats().replication_factor >= 1.0);
        assert_eq!(server.stats().requests, 0);

        // Two identical requests coalesce perfectly: the union is half
        // the received query volume.
        let q = QuerySet::sample(graph.num_vertices(), 50, 1);
        server.serve_batch(&[q.clone(), q.clone()]).unwrap();
        server.serve(&q).unwrap();
        let stats = server.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries_received, 150);
        assert_eq!(stats.union_queries, 100);
        assert!((stats.coalescing_factor() - 1.5).abs() < 1e-12);
        assert!(stats.throughput_rps() > 0.0);
        assert!(stats.mean_latency_seconds() > 0.0);
        assert!(stats.simulated_seconds > 0.0);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn zero_request_streams_emit_finite_stats() {
        // A server that never served: every accessor must stay finite
        // (no 0/0 NaN).
        let stats = ServerStats::default();
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.mean_latency_seconds(), 0.0);
        assert_eq!(stats.coalescing_factor(), 1.0);
        assert!(!stats.summary().contains("NaN"), "{}", stats.summary());

        let (graph, cluster, snaple) = setup();
        let server = Server::new(&snaple, &graph, &cluster).unwrap();
        let prepared_only = server.stats();
        assert_eq!(prepared_only.throughput_rps(), 0.0);
        assert_eq!(prepared_only.coalescing_factor(), 1.0);
        assert!(!prepared_only.summary().contains("NaN"));
    }

    #[test]
    fn batches_with_empty_union_masks_are_served_cleanly() {
        // Every request in the batch is empty: the union mask has no
        // active vertex, nothing is predicted, and the stats stay
        // finite (coalescing_factor guards its 0/0 case).
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let empties = vec![QuerySet::from_indices([]), QuerySet::from_indices([])];
        let responses = server.serve_batch(&empties).unwrap();
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.total_predictions() == 0));
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.union_queries, 0);
        assert_eq!(stats.coalescing_factor(), 1.0, "0/0 must not be NaN");
        assert!(stats.throughput_rps().is_finite());
    }

    #[test]
    fn zero_wall_second_accessors_do_not_divide_by_zero() {
        let stats = ServerStats {
            requests: 5,
            batches: 1,
            queries_received: 50,
            union_queries: 0,
            serve_wall_seconds: 0.0,
            ..ServerStats::default()
        };
        assert_eq!(stats.throughput_rps(), 0.0, "0-second stream is 0 rps");
        assert_eq!(stats.mean_latency_seconds(), 0.0);
        assert_eq!(stats.coalescing_factor(), 1.0);
    }

    #[test]
    fn empty_batches_and_empty_query_sets_are_fine() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        assert!(server.serve_batch(&[]).unwrap().is_empty());
        assert_eq!(server.stats().batches, 0);
        let empty = QuerySet::from_indices([]);
        let response = server.serve(&empty).unwrap();
        assert_eq!(response.total_predictions(), 0);
    }

    #[test]
    fn updates_interleave_with_predictions_and_match_cold_rebuilds() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let q = QuerySet::sample(graph.num_vertices(), 40, 2);
        server.serve(&q).unwrap();

        // Update batch: retract the first few edges, add a few new ones.
        let mut delta = GraphDelta::new();
        for (u, v) in graph.edges().take(4) {
            delta.remove(u.as_u32(), v.as_u32());
        }
        let n = graph.num_vertices() as u32;
        delta.insert(0, n - 1).insert(1, n - 2).insert(n - 1, 0);
        let applied = server.apply_update(&delta).unwrap();
        assert_eq!(applied.removed_edges, 4);
        assert!(applied.inserted_edges >= 2, "{applied:?}");

        // Post-update predictions must be bit-identical to a cold
        // prepare on the mutated graph.
        let mutated = graph.compact(&delta);
        let mut cold = Server::new(&snaple, &mutated, &cluster).unwrap();
        let after = server.serve(&q).unwrap();
        let expected = cold.serve(&q).unwrap();
        for (u, preds) in after.iter() {
            assert_eq!(preds, expected.for_vertex(u), "row {u}");
        }

        let stats = server.stats();
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.edges_removed, 4);
        assert_eq!(stats.edges_inserted, applied.inserted_edges);
        assert!(stats.delta_apply_seconds > 0.0);
        assert!(stats.delta_touched_partitions >= 1);
        assert!(stats.summary().contains("1 updates"), "{}", stats.summary());
        // Per-run stats surface the deployment's cumulative delta costs.
        assert!(after.stats.delta_apply_seconds > 0.0);
        assert_eq!(expected.stats.delta_apply_seconds, 0.0);
    }

    #[test]
    fn streams_without_updates_report_zero_update_stats() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        server
            .serve(&QuerySet::sample(graph.num_vertices(), 10, 0))
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.updates, 0);
        assert_eq!(stats.delta_apply_seconds, 0.0);
        assert!(!stats.summary().contains("updates"), "{}", stats.summary());
    }

    #[test]
    fn out_of_range_requests_fail_without_counting() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let bad = QuerySet::from_indices([graph.num_vertices() as u32 + 10]);
        assert!(matches!(
            server.serve(&bad),
            Err(SnapleError::InvalidConfig(_))
        ));
        assert_eq!(server.stats().requests, 0);
    }

    #[test]
    fn failing_batches_leave_stats_entirely_untouched() {
        // Regression: stats must be recorded only after a successful run.
        // A mid-stream failing batch — after real traffic — must leave
        // every field (requests, batches, wall time, latency histogram)
        // exactly as it was, not count work that produced no responses.
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let good = QuerySet::sample(graph.num_vertices(), 30, 4);
        server.serve_batch(&[good.clone(), good.clone()]).unwrap();
        let before = server.stats().clone();
        assert_eq!(before.requests, 2);

        let bad = QuerySet::from_indices([graph.num_vertices() as u32 + 1]);
        // A batch mixing good and bad requests fails as a whole...
        assert!(server.serve_batch(&[good.clone(), bad]).is_err());
        // ...and no field moved — not even wall seconds or the histogram.
        assert_eq!(server.stats(), &before);

        // The stream keeps working afterwards.
        server.serve(&good).unwrap();
        assert_eq!(server.stats().requests, 3);
    }

    #[test]
    fn update_only_streams_emit_finite_stats() {
        // Regression for the zero-denominator class: a stream containing
        // only update requests executes zero queries and zero batches, so
        // coalescing_factor (received/union), throughput_rps and
        // mean_latency_seconds all sit on 0/0 holes. Exported metrics must
        // see finite numbers, not inf/NaN.
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        let n = graph.num_vertices() as u32;
        let mut delta = GraphDelta::new();
        delta.insert(0, n - 1);
        server.apply_update(&delta).unwrap();
        let mut delta = GraphDelta::new();
        delta.remove(0, n - 1);
        server.apply_update(&delta).unwrap();

        let stats = server.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.union_queries, 0);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.coalescing_factor(), 1.0, "0/0 must not be NaN");
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.mean_latency_seconds(), 0.0);
        assert_eq!(stats.latency.p50(), 0.0, "empty histogram percentiles");
        assert_eq!(stats.latency.p99(), 0.0);
        let summary = stats.summary();
        assert!(
            !summary.contains("NaN") && !summary.contains("inf"),
            "{summary}"
        );
        assert!(summary.contains("2 updates"), "{summary}");
    }

    #[test]
    fn latency_histogram_records_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..98 {
            h.record(1e-3); // ~1 ms
        }
        h.record(1.0); // one 1 s outlier
        h.record(2.0); // one 2 s outlier
        assert_eq!(h.count(), 100);
        // p50 stays in the millisecond bucket (within the 2x bucket
        // resolution), p99 reaches the outliers.
        assert!(h.p50() > 0.4e-3 && h.p50() < 2.1e-3, "{}", h.p50());
        assert!(h.p95() < 2.1e-3, "{}", h.p95());
        assert!(h.p99() > 0.5, "{}", h.p99());
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());

        // Extremes clamp instead of panicking.
        h.record(0.0);
        h.record(-1.0);
        h.record(1e9);
        assert_eq!(h.count(), 103);
        assert!(h.quantile(1.0).is_finite());

        // Merging accumulates counts bucket-by-bucket.
        let mut other = LatencyHistogram::new();
        other.record(1e-3);
        other.merge(&h);
        assert_eq!(other.count(), 104);
    }

    #[test]
    fn serving_records_latency_percentiles() {
        let (graph, cluster, snaple) = setup();
        let mut server = Server::new(&snaple, &graph, &cluster).unwrap();
        for seed in 0..5 {
            server
                .serve(&QuerySet::sample(graph.num_vertices(), 20, seed))
                .unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.latency.count(), 5, "one recording per request");
        assert!(stats.latency.p50() > 0.0);
        assert!(stats.latency.p50() <= stats.latency.p99());
        assert!(
            stats.summary().contains("p50/p95/p99"),
            "{}",
            stats.summary()
        );
    }
}
