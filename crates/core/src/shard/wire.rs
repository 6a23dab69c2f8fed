//! The shard wire protocol: the message layouts router and shards
//! exchange.
//!
//! Both shard transports (in-process channels and OS-process pipes)
//! exchange **identical serialized frames**, so one codec defines the
//! protocol and one serve loop ([`super::runtime`]) speaks it regardless
//! of what carries the bytes. Each message is one
//! [`snaple_graph::codec`] frame: the codec owns the framing, the
//! checksum, the payload primitives and the delta encoding, and maps
//! every malformed input to a typed [`WireError`]. This module holds
//! only the message layouts.
//!
//! # Messages
//!
//! Router → shard: [`Request::Prepare`], [`Request::Predict`],
//! [`Request::Delta`], [`Request::Shutdown`]. Shard → router:
//! [`Reply::Ready`], [`Reply::Rows`], [`Reply::DeltaOk`],
//! [`Reply::Err`], [`Reply::Stats`]. Scores travel as raw `f32` bits
//! (`to_bits`/`from_bits`), so a row that crosses the wire is
//! bit-identical to one that never left the process.

use snaple_gas::{ClusterSpec, DeltaStats, NodeStats, RunStats, StepStats};
use snaple_graph::codec::{
    decode_delta, encode_delta, encode_frame, get_bytes, get_count, get_f32, get_f64, get_opt_u64,
    get_str, get_u32, get_u64, get_u8, put_bytes, put_f32, put_f64, put_opt_u64, put_str, put_u32,
    put_u64, put_u8,
};
pub use snaple_graph::codec::{read_frame, WireError};
use snaple_graph::GraphDelta;

use crate::config::{PathLength, SelectionPolicy};
use crate::plan::PlanConfig;
use crate::serve::{LatencyHistogram, ServerStats};
use snaple_gas::PartitionStrategy;

// Request tags (router → shard).
const TAG_PREPARE: u8 = 1;
const TAG_PREDICT: u8 = 2;
const TAG_DELTA: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
// Reply tags (shard → router).
const TAG_ROWS_OK: u8 = 16;
const TAG_DELTA_OK: u8 = 17;
const TAG_ERR: u8 = 18;
const TAG_READY: u8 = 19;
const TAG_STATS_OK: u8 = 20;

// ---------------------------------------------------------------------------
// Predictor specification.
// ---------------------------------------------------------------------------

/// A serializable description of the predictor every shard must build —
/// the wire stand-in for the `&dyn Predictor` that an in-process server
/// borrows.
///
/// Only *nameable* predictors cross the wire: a score plan given as spec
/// strings, re-parsed by [`crate::spec::ScoreSpec::parse`] on the far
/// side. A single [`crate::Snaple`] configuration is the one-column plan
/// of its Table-3 name (`linearSum`, or `linearSum@alpha0.5` with a
/// non-default `α`). Predictors built from custom
/// [`crate::ScoreComponents`] closures have no serialized form and cannot
/// be served by an OS-process shard.
#[derive(Clone, Debug)]
pub enum ShardSpec {
    /// A fused score plan ([`crate::ScorePlan`]); rows are served from the
    /// plan's combined top-k column.
    Plan {
        /// One compact spec string per column (the [`crate::spec`]
        /// grammar).
        specs: Vec<String>,
        /// Plan-wide execution parameters.
        config: PlanConfig,
    },
}

impl ShardSpec {
    /// The seed that drives the spec's partition build — and therefore
    /// the master-placement hash the router's vertex→shard ownership map
    /// must agree with.
    pub fn seed(&self) -> u64 {
        let ShardSpec::Plan { config, .. } = self;
        config.seed
    }
}

fn put_selection(out: &mut Vec<u8>, s: SelectionPolicy) {
    put_u8(
        out,
        match s {
            SelectionPolicy::Max => 0,
            SelectionPolicy::Min => 1,
            SelectionPolicy::Random => 2,
        },
    );
}
fn get_selection(input: &mut &[u8]) -> Result<SelectionPolicy, WireError> {
    Ok(match get_u8(input, "selection policy")? {
        0 => SelectionPolicy::Max,
        1 => SelectionPolicy::Min,
        2 => SelectionPolicy::Random,
        _ => return Err(WireError::Malformed("selection policy")),
    })
}
fn put_partition(out: &mut Vec<u8>, p: PartitionStrategy) {
    put_u8(
        out,
        match p {
            PartitionStrategy::RandomVertexCut => 0,
            PartitionStrategy::SourceHash1D => 1,
            PartitionStrategy::GreedyVertexCut => 2,
        },
    );
}
fn get_partition(input: &mut &[u8]) -> Result<PartitionStrategy, WireError> {
    Ok(match get_u8(input, "partition strategy")? {
        0 => PartitionStrategy::RandomVertexCut,
        1 => PartitionStrategy::SourceHash1D,
        2 => PartitionStrategy::GreedyVertexCut,
        _ => return Err(WireError::Malformed("partition strategy")),
    })
}
fn put_path_length(out: &mut Vec<u8>, p: PathLength) {
    put_u8(out, if p == PathLength::Three { 3 } else { 2 });
}
fn get_path_length(input: &mut &[u8]) -> Result<PathLength, WireError> {
    Ok(match get_u8(input, "path length")? {
        2 => PathLength::Two,
        3 => PathLength::Three,
        _ => return Err(WireError::Malformed("path length")),
    })
}

fn put_spec(out: &mut Vec<u8>, spec: &ShardSpec) {
    let ShardSpec::Plan { specs, config } = spec;
    put_u32(out, specs.len() as u32);
    for s in specs {
        put_str(out, s);
    }
    put_u64(out, config.k as u64);
    put_opt_u64(out, config.klocal.map(|v| v as u64));
    put_opt_u64(out, config.thr_gamma.map(|v| v as u64));
    put_selection(out, config.selection);
    put_u64(out, config.seed);
    put_partition(out, config.partition);
    put_path_length(out, config.path_length);
}

fn get_spec(input: &mut &[u8]) -> Result<ShardSpec, WireError> {
    let n = get_count(input, 4, "plan spec count")?;
    let mut specs = Vec::with_capacity(n);
    for _ in 0..n {
        specs.push(get_str(input, "plan spec string")?);
    }
    let mut config = PlanConfig::new();
    config.k = get_u64(input, "plan k")? as usize;
    config.klocal = get_opt_u64(input, "plan klocal")?.map(|v| v as usize);
    config.thr_gamma = get_opt_u64(input, "plan thr_gamma")?.map(|v| v as usize);
    config.selection = get_selection(input)?;
    config.seed = get_u64(input, "plan seed")?;
    config.partition = get_partition(input)?;
    config.path_length = get_path_length(input)?;
    Ok(ShardSpec::Plan { specs, config })
}

// ---------------------------------------------------------------------------
// Stats (de)serialization.
// ---------------------------------------------------------------------------

fn put_run_stats(out: &mut Vec<u8>, s: &RunStats) {
    put_u32(out, s.steps.len() as u32);
    for step in &s.steps {
        put_str(out, &step.name);
        put_u64(out, step.gather_calls);
        put_u64(out, step.sum_calls);
        put_u64(out, step.apply_calls);
        put_u64(out, step.work_ops);
        put_u64(out, step.broadcast_bytes);
        put_u64(out, step.partial_bytes);
        put_f64(out, step.simulated_seconds);
        put_u32(out, step.per_node.len() as u32);
        for n in &step.per_node {
            put_u64(out, n.compute_ops);
            put_u64(out, n.net_bytes);
            put_u64(out, n.memory_peak);
        }
    }
    put_f64(out, s.replication_factor);
    put_f64(out, s.partition_build_seconds);
    put_f64(out, s.delta_apply_seconds);
    put_u64(out, s.delta_touched_partitions as u64);
}

fn get_run_stats(input: &mut &[u8]) -> Result<RunStats, WireError> {
    let nsteps = get_count(input, 8, "run stats step count")?;
    let mut steps = Vec::with_capacity(nsteps);
    for _ in 0..nsteps {
        let name = get_str(input, "step name")?;
        let gather_calls = get_u64(input, "step gathers")?;
        let sum_calls = get_u64(input, "step sums")?;
        let apply_calls = get_u64(input, "step applies")?;
        let work_ops = get_u64(input, "step work")?;
        let broadcast_bytes = get_u64(input, "step broadcast")?;
        let partial_bytes = get_u64(input, "step partials")?;
        let simulated_seconds = get_f64(input, "step simulated")?;
        let nnodes = get_count(input, 24, "step node count")?;
        let mut per_node = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            per_node.push(NodeStats {
                compute_ops: get_u64(input, "node compute")?,
                net_bytes: get_u64(input, "node net")?,
                memory_peak: get_u64(input, "node mem")?,
            });
        }
        steps.push(StepStats {
            name,
            gather_calls,
            sum_calls,
            apply_calls,
            work_ops,
            broadcast_bytes,
            partial_bytes,
            per_node,
            simulated_seconds,
        });
    }
    Ok(RunStats {
        steps,
        replication_factor: get_f64(input, "replication factor")?,
        partition_build_seconds: get_f64(input, "partition build")?,
        delta_apply_seconds: get_f64(input, "delta apply")?,
        delta_touched_partitions: get_u64(input, "delta touched")? as usize,
    })
}

fn put_server_stats(out: &mut Vec<u8>, s: &ServerStats) {
    put_u64(out, s.requests as u64);
    put_u64(out, s.batches as u64);
    put_u64(out, s.queries_received as u64);
    put_u64(out, s.union_queries as u64);
    put_f64(out, s.simulated_seconds);
    put_f64(out, s.serve_wall_seconds);
    put_f64(out, s.setup_wall_seconds);
    put_f64(out, s.partition_build_seconds);
    put_f64(out, s.replication_factor);
    put_u64(out, s.updates as u64);
    put_u64(out, s.edges_inserted as u64);
    put_u64(out, s.edges_removed as u64);
    put_f64(out, s.delta_apply_seconds);
    put_u64(out, s.delta_touched_partitions as u64);
    let buckets = s.latency.bucket_counts();
    put_u32(out, buckets.len() as u32);
    for &c in buckets {
        put_u64(out, c);
    }
    put_u64(out, s.workers as u64);
}

fn get_server_stats(input: &mut &[u8]) -> Result<ServerStats, WireError> {
    let mut s = ServerStats {
        requests: get_u64(input, "stats requests")? as usize,
        batches: get_u64(input, "stats batches")? as usize,
        queries_received: get_u64(input, "stats queries")? as usize,
        union_queries: get_u64(input, "stats union")? as usize,
        simulated_seconds: get_f64(input, "stats simulated")?,
        serve_wall_seconds: get_f64(input, "stats serve wall")?,
        setup_wall_seconds: get_f64(input, "stats setup wall")?,
        partition_build_seconds: get_f64(input, "stats partition build")?,
        replication_factor: get_f64(input, "stats replication")?,
        updates: get_u64(input, "stats updates")? as usize,
        edges_inserted: get_u64(input, "stats inserted")? as usize,
        edges_removed: get_u64(input, "stats removed")? as usize,
        delta_apply_seconds: get_f64(input, "stats delta apply")?,
        delta_touched_partitions: get_u64(input, "stats delta touched")? as usize,
        ..ServerStats::default()
    };
    let nbuckets = get_count(input, 8, "stats bucket count")?;
    let mut buckets = Vec::with_capacity(nbuckets);
    for _ in 0..nbuckets {
        buckets.push(get_u64(input, "stats bucket")?);
    }
    s.latency = LatencyHistogram::from_bucket_counts(&buckets);
    s.workers = get_u64(input, "stats workers")? as usize;
    Ok(s)
}

fn put_delta_stats(out: &mut Vec<u8>, s: &DeltaStats) {
    put_u64(out, s.inserted_edges as u64);
    put_u64(out, s.removed_edges as u64);
    put_u64(out, s.grown_vertices as u64);
    put_u64(out, s.touched_partitions as u64);
    put_f64(out, s.apply_wall_seconds);
}

fn get_delta_stats(input: &mut &[u8]) -> Result<DeltaStats, WireError> {
    Ok(DeltaStats {
        inserted_edges: get_u64(input, "delta inserted")? as usize,
        removed_edges: get_u64(input, "delta removed")? as usize,
        grown_vertices: get_u64(input, "delta grown")? as usize,
        touched_partitions: get_u64(input, "delta touched")? as usize,
        apply_wall_seconds: get_f64(input, "delta wall")?,
    })
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

/// Everything a shard must know to build its runtime: which shard it is,
/// the predictor to construct, the simulated cluster, the full graph (as
/// a [`snaple_graph::io`] binary blob), and an optional per-request seed
/// override mirroring
/// [`ConcurrentOptions::seed`](crate::concurrent::ConcurrentOptions::seed).
#[derive(Clone, Debug)]
pub struct PrepareShard {
    /// This shard's index in `0..num_shards`.
    pub shard: u32,
    /// Total number of shards in the deployment.
    pub num_shards: u32,
    /// Per-request seed override (`None` = use the spec's seed).
    pub seed_override: Option<u64>,
    /// The predictor to build.
    pub spec: ShardSpec,
    /// The simulated cluster every shard deploys onto.
    pub cluster: ClusterSpec,
    /// The graph, serialized with [`snaple_graph::io::write_binary`].
    pub graph_blob: Vec<u8>,
}

/// A router → shard message.
#[derive(Clone, Debug)]
pub enum Request {
    /// Build the shard runtime (must be the first message).
    Prepare(Box<PrepareShard>),
    /// Answer the sub-query set this shard owns.
    Predict {
        /// Correlates the reply with the submission.
        request_id: u64,
        /// The vertex ids to serve (already filtered to this shard).
        queries: Vec<u32>,
    },
    /// Apply a graph delta to the shard's snapshot.
    Delta {
        /// Correlates the reply with the submission.
        request_id: u64,
        /// The delta, in the codec's shared delta encoding on the wire.
        delta: GraphDelta,
    },
    /// Stop serving; the shard answers with [`Reply::Stats`] and exits.
    Shutdown,
}

impl Request {
    /// Serializes the request into a complete frame.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] if the encoded payload (practically:
    /// the graph blob) exceeds [`snaple_graph::codec::MAX_FRAME_LEN`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut payload = Vec::new();
        let tag = match self {
            Request::Prepare(p) => {
                put_u32(&mut payload, p.shard);
                put_u32(&mut payload, p.num_shards);
                put_opt_u64(&mut payload, p.seed_override);
                put_spec(&mut payload, &p.spec);
                put_str(&mut payload, &p.cluster.name);
                put_u64(&mut payload, p.cluster.nodes as u64);
                put_u64(&mut payload, p.cluster.cores_per_node as u64);
                put_u64(&mut payload, p.cluster.memory_per_node);
                put_f64(&mut payload, p.cluster.bandwidth);
                put_f64(&mut payload, p.cluster.step_latency);
                put_bytes(&mut payload, &p.graph_blob);
                TAG_PREPARE
            }
            Request::Predict {
                request_id,
                queries,
            } => {
                put_u64(&mut payload, *request_id);
                put_u32(&mut payload, queries.len() as u32);
                for &q in queries {
                    put_u32(&mut payload, q);
                }
                TAG_PREDICT
            }
            Request::Delta { request_id, delta } => {
                put_u64(&mut payload, *request_id);
                encode_delta(&mut payload, delta);
                TAG_DELTA
            }
            Request::Shutdown => TAG_SHUTDOWN,
        };
        encode_frame(tag, &payload)
    }

    /// Decodes a request from a received frame's tag and payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownTag`] for tags outside the request range
    /// (including reply tags); [`WireError::Malformed`] when the payload
    /// does not match the tag's layout exactly (trailing bytes included).
    pub fn decode(tag: u8, mut payload: &[u8]) -> Result<Request, WireError> {
        let input = &mut payload;
        let req = match tag {
            TAG_PREPARE => {
                let shard = get_u32(input, "prepare shard")?;
                let num_shards = get_u32(input, "prepare num_shards")?;
                let seed_override = get_opt_u64(input, "prepare seed")?;
                let spec = get_spec(input)?;
                let cluster = ClusterSpec {
                    name: get_str(input, "cluster name")?,
                    nodes: get_u64(input, "cluster nodes")? as usize,
                    cores_per_node: get_u64(input, "cluster cores")? as usize,
                    memory_per_node: get_u64(input, "cluster memory")?,
                    bandwidth: get_f64(input, "cluster bandwidth")?,
                    step_latency: get_f64(input, "cluster latency")?,
                };
                let graph_blob = get_bytes(input, "graph blob")?;
                Request::Prepare(Box::new(PrepareShard {
                    shard,
                    num_shards,
                    seed_override,
                    spec,
                    cluster,
                    graph_blob,
                }))
            }
            TAG_PREDICT => {
                let request_id = get_u64(input, "predict id")?;
                let n = get_count(input, 4, "predict query count")?;
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    queries.push(get_u32(input, "predict query")?);
                }
                Request::Predict {
                    request_id,
                    queries,
                }
            }
            TAG_DELTA => Request::Delta {
                request_id: get_u64(input, "delta id")?,
                delta: decode_delta(input)?,
            },
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownTag(other)),
        };
        if !input.is_empty() {
            return Err(WireError::Malformed("trailing request bytes"));
        }
        Ok(req)
    }
}

/// One served row: the queried vertex and its ranked `(candidate,
/// score)` predictions, scores bit-exact.
pub type WireRow = (u32, Vec<(u32, f32)>);

/// A shard → router message.
#[derive(Clone, Debug)]
pub enum Reply {
    /// The shard built its runtime and is serving.
    Ready {
        /// Vertices in the shard's prepared graph.
        num_vertices: u64,
    },
    /// The rows answering one [`Request::Predict`].
    Rows {
        /// Echoes the request id.
        request_id: u64,
        /// Vertices in the shard's current epoch (rows indexes below it).
        num_vertices: u64,
        /// Only the queried rows — the wire never carries empty rows.
        rows: Vec<WireRow>,
        /// The masked run's statistics, mergeable across shards with
        /// [`RunStats::merge_parallel`].
        stats: RunStats,
    },
    /// One [`Request::Delta`] was applied as a new epoch.
    DeltaOk {
        /// Echoes the request id.
        request_id: u64,
        /// Vertices after the delta (deltas can grow the graph).
        num_vertices: u64,
        /// The application's cost counters.
        stats: DeltaStats,
    },
    /// A request failed inside the shard (bad queries, engine failure);
    /// the shard keeps serving.
    Err {
        /// Echoes the failing request id (0 during prepare).
        request_id: u64,
        /// The error's `Display` rendering.
        message: String,
    },
    /// Final statistics, answering [`Request::Shutdown`].
    Stats {
        /// The shard's full serve-loop statistics.
        stats: Box<ServerStats>,
    },
}

impl Reply {
    /// Serializes the reply into a complete frame.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] if the encoded rows exceed
    /// [`snaple_graph::codec::MAX_FRAME_LEN`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut payload = Vec::new();
        let tag = match self {
            Reply::Ready { num_vertices } => {
                put_u64(&mut payload, *num_vertices);
                TAG_READY
            }
            Reply::Rows {
                request_id,
                num_vertices,
                rows,
                stats,
            } => {
                put_u64(&mut payload, *request_id);
                put_u64(&mut payload, *num_vertices);
                put_u32(&mut payload, rows.len() as u32);
                for (vertex, preds) in rows {
                    put_u32(&mut payload, *vertex);
                    put_u32(&mut payload, preds.len() as u32);
                    for &(v, score) in preds {
                        put_u32(&mut payload, v);
                        put_f32(&mut payload, score);
                    }
                }
                put_run_stats(&mut payload, stats);
                TAG_ROWS_OK
            }
            Reply::DeltaOk {
                request_id,
                num_vertices,
                stats,
            } => {
                put_u64(&mut payload, *request_id);
                put_u64(&mut payload, *num_vertices);
                put_delta_stats(&mut payload, stats);
                TAG_DELTA_OK
            }
            Reply::Err {
                request_id,
                message,
            } => {
                put_u64(&mut payload, *request_id);
                put_str(&mut payload, message);
                TAG_ERR
            }
            Reply::Stats { stats } => {
                put_server_stats(&mut payload, stats);
                TAG_STATS_OK
            }
        };
        encode_frame(tag, &payload)
    }

    /// Decodes a reply from a received frame's tag and payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownTag`] for tags outside the reply range;
    /// [`WireError::Malformed`] on layout mismatches (trailing bytes
    /// included).
    pub fn decode(tag: u8, mut payload: &[u8]) -> Result<Reply, WireError> {
        let input = &mut payload;
        let reply = match tag {
            TAG_READY => Reply::Ready {
                num_vertices: get_u64(input, "ready vertices")?,
            },
            TAG_ROWS_OK => {
                let request_id = get_u64(input, "rows id")?;
                let num_vertices = get_u64(input, "rows vertices")?;
                let n = get_count(input, 8, "row count")?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let vertex = get_u32(input, "row vertex")?;
                    let m = get_count(input, 8, "row prediction count")?;
                    let mut preds = Vec::with_capacity(m);
                    for _ in 0..m {
                        let v = get_u32(input, "row candidate")?;
                        let score = get_f32(input, "row score")?;
                        preds.push((v, score));
                    }
                    rows.push((vertex, preds));
                }
                let stats = get_run_stats(input)?;
                Reply::Rows {
                    request_id,
                    num_vertices,
                    rows,
                    stats,
                }
            }
            TAG_DELTA_OK => Reply::DeltaOk {
                request_id: get_u64(input, "delta-ok id")?,
                num_vertices: get_u64(input, "delta-ok vertices")?,
                stats: get_delta_stats(input)?,
            },
            TAG_ERR => Reply::Err {
                request_id: get_u64(input, "err id")?,
                message: get_str(input, "err message")?,
            },
            TAG_STATS_OK => Reply::Stats {
                stats: Box::new(get_server_stats(input)?),
            },
            other => return Err(WireError::UnknownTag(other)),
        };
        if !input.is_empty() {
            return Err(WireError::Malformed("trailing reply bytes"));
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) -> Request {
        let frame = req.encode().unwrap();
        let mut payload = Vec::new();
        let tag = read_frame(&mut frame.as_slice(), &mut payload).unwrap();
        Request::decode(tag, &payload).unwrap()
    }

    fn round_trip_reply(reply: &Reply) -> Reply {
        let frame = reply.encode().unwrap();
        let mut payload = Vec::new();
        let tag = read_frame(&mut frame.as_slice(), &mut payload).unwrap();
        Reply::decode(tag, &payload).unwrap()
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        // Decoders are total over the tag space: tags from the other
        // direction and unassigned tags both come back typed.
        assert!(matches!(
            Request::decode(99, &[]),
            Err(WireError::UnknownTag(99))
        ));
        assert!(matches!(
            Request::decode(TAG_ROWS_OK, &[]),
            Err(WireError::UnknownTag(TAG_ROWS_OK))
        ));
        assert!(matches!(
            Reply::decode(TAG_PREPARE, &[]),
            Err(WireError::UnknownTag(TAG_PREPARE))
        ));
    }

    #[test]
    fn predict_and_delta_requests_round_trip() {
        let req = Request::Predict {
            request_id: 77,
            queries: vec![0, 5, 1_000_000],
        };
        match round_trip_request(&req) {
            Request::Predict {
                request_id,
                queries,
            } => {
                assert_eq!(request_id, 77);
                assert_eq!(queries, vec![0, 5, 1_000_000]);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let mut delta = GraphDelta::new();
        delta.insert_weighted(1, 2, 1.5).remove(3, 4);
        let req = Request::Delta {
            request_id: 78,
            delta: delta.clone(),
        };
        match round_trip_request(&req) {
            Request::Delta {
                request_id,
                delta: got,
            } => {
                assert_eq!(request_id, 78);
                assert_eq!(
                    got.ops().collect::<Vec<_>>(),
                    delta.ops().collect::<Vec<_>>()
                );
            }
            other => panic!("wrong decode: {other:?}"),
        }
        assert!(matches!(
            round_trip_request(&Request::Shutdown),
            Request::Shutdown
        ));
    }

    #[test]
    fn delta_frame_golden_bytes() {
        // Pins the shard wire format byte-for-byte across the shared
        // delta-codec refactor: a `Request::Delta` frame must serialize
        // to exactly these bytes, forever. Any codec change that shifts
        // them is a protocol break.
        let mut delta = GraphDelta::new();
        delta.insert_weighted(1, 2, 1.5).remove(3, 4);
        let req = Request::Delta {
            request_id: 0x0102_0304_0506_0708,
            delta,
        };
        let frame = req.encode().unwrap();
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            b'S', b'L',                                     // magic
            3,                                              // TAG_DELTA
            38, 0, 0, 0,                                    // payload len
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // request_id LE
            2, 0, 0, 0,                                     // op count
            1, 0, 0, 0,   2, 0, 0, 0,                       // u, v
            0x00, 0x00, 0xC0, 0x3F,                         // 1.5f32.to_bits()
            1,                                              // insert
            3, 0, 0, 0,   4, 0, 0, 0,                       // u, v
            0, 0, 0, 0,                                     // 0.0
            0,                                              // remove
            0x21, 0x48, 0x04, 0xB3,                         // crc32 LE
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn prepare_round_trips_every_plan_field() {
        // Every PlanConfig field off its default, and a spec string
        // carrying `@alpha`: the one spec layout must keep them all.
        let config = PlanConfig::new()
            .k(7)
            .klocal(None)
            .thr_gamma(None)
            .selection(SelectionPolicy::Min)
            .seed(0xDEAD)
            .partition(PartitionStrategy::GreedyVertexCut)
            .path_length(PathLength::Three);
        let specs = vec!["linearSum@alpha0.25".to_owned(), "jaccard@k16".to_owned()];
        let req = Request::Prepare(Box::new(PrepareShard {
            shard: 2,
            num_shards: 4,
            seed_override: Some(5),
            spec: ShardSpec::Plan {
                specs: specs.clone(),
                config: config.clone(),
            },
            cluster: ClusterSpec::type_i(8),
            graph_blob: vec![1, 2, 3, 4, 5],
        }));
        match round_trip_request(&req) {
            Request::Prepare(p) => {
                assert_eq!(p.shard, 2);
                assert_eq!(p.num_shards, 4);
                assert_eq!(p.seed_override, Some(5));
                assert_eq!(p.cluster, ClusterSpec::type_i(8));
                assert_eq!(p.graph_blob, vec![1, 2, 3, 4, 5]);
                let ShardSpec::Plan {
                    specs: got,
                    config: c,
                } = &p.spec;
                assert_eq!(got, &specs);
                assert_eq!(c.k, config.k);
                assert_eq!(c.klocal, config.klocal);
                assert_eq!(c.thr_gamma, config.thr_gamma);
                assert_eq!(c.selection, config.selection);
                assert_eq!(c.seed, config.seed);
                assert_eq!(c.partition, config.partition);
                assert_eq!(c.path_length, config.path_length);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn rows_reply_round_trips_scores_bit_exactly() {
        // Scores chosen to stress f32 bit-exactness: subnormal, negative
        // zero, and values that don't survive a decimal round trip.
        let rows = vec![
            (3u32, vec![(7u32, 0.1f32), (9, f32::MIN_POSITIVE / 2.0)]),
            (5, vec![(1, -0.0f32)]),
            (8, vec![]),
        ];
        let stats = RunStats {
            steps: vec![StepStats {
                name: "score".into(),
                gather_calls: 10,
                sum_calls: 5,
                apply_calls: 3,
                work_ops: 100,
                broadcast_bytes: 64,
                partial_bytes: 32,
                per_node: vec![NodeStats {
                    compute_ops: 50,
                    net_bytes: 96,
                    memory_peak: 1024,
                }],
                simulated_seconds: 0.25,
            }],
            replication_factor: 1.5,
            ..RunStats::default()
        };
        let reply = Reply::Rows {
            request_id: 11,
            num_vertices: 100,
            rows: rows.clone(),
            stats: stats.clone(),
        };
        match round_trip_reply(&reply) {
            Reply::Rows {
                request_id,
                num_vertices,
                rows: got_rows,
                stats: got_stats,
            } => {
                assert_eq!(request_id, 11);
                assert_eq!(num_vertices, 100);
                assert_eq!(got_rows.len(), rows.len());
                for ((v_a, preds_a), (v_b, preds_b)) in rows.iter().zip(&got_rows) {
                    assert_eq!(v_a, v_b);
                    assert_eq!(preds_a.len(), preds_b.len());
                    for (&(c_a, s_a), &(c_b, s_b)) in preds_a.iter().zip(preds_b) {
                        assert_eq!(c_a, c_b);
                        assert_eq!(s_a.to_bits(), s_b.to_bits(), "score bits changed");
                    }
                }
                assert_eq!(got_stats.steps.len(), 1);
                assert_eq!(got_stats.steps[0].name, "score");
                assert_eq!(got_stats.steps[0].per_node[0].net_bytes, 96);
                assert_eq!(got_stats.replication_factor, 1.5);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn stats_and_err_replies_round_trip() {
        let mut server_stats = ServerStats {
            requests: 9,
            ..ServerStats::default()
        };
        server_stats.latency.record(1e-3);
        server_stats.latency.record(2e-6);
        let reply = Reply::Stats {
            stats: Box::new(server_stats.clone()),
        };
        match round_trip_reply(&reply) {
            Reply::Stats { stats } => assert_eq!(*stats, server_stats),
            other => panic!("wrong decode: {other:?}"),
        }
        let reply = Reply::Err {
            request_id: 4,
            message: "query 10 out of range".into(),
        };
        match round_trip_reply(&reply) {
            Reply::Err {
                request_id,
                message,
            } => {
                assert_eq!(request_id, 4);
                assert_eq!(message, "query 10 out of range");
            }
            other => panic!("wrong decode: {other:?}"),
        }
        match round_trip_reply(&Reply::Ready { num_vertices: 42 }) {
            Reply::Ready { num_vertices } => assert_eq!(num_vertices, 42),
            other => panic!("wrong decode: {other:?}"),
        }
        let delta = DeltaStats {
            inserted_edges: 3,
            removed_edges: 1,
            grown_vertices: 2,
            touched_partitions: 4,
            apply_wall_seconds: 0.125,
        };
        match round_trip_reply(&Reply::DeltaOk {
            request_id: 6,
            num_vertices: 50,
            stats: delta,
        }) {
            Reply::DeltaOk {
                request_id,
                num_vertices,
                stats,
            } => {
                assert_eq!(request_id, 6);
                assert_eq!(num_vertices, 50);
                assert_eq!(stats.inserted_edges, 3);
                assert_eq!(stats.apply_wall_seconds, 0.125);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let frame = Request::Shutdown.encode().unwrap();
        let mut payload = Vec::new();
        let tag = read_frame(&mut frame.as_slice(), &mut payload).unwrap();
        payload.push(0xFF);
        assert!(matches!(
            Request::decode(tag, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn lying_element_counts_are_rejected_before_allocating() {
        // A Predict payload claiming 2^32-1 queries with 4 bytes of data:
        // the count guard must reject it without reserving gigabytes.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // request id
        put_u32(&mut payload, u32::MAX); // query count
        put_u32(&mut payload, 7); // one actual query
        assert!(matches!(
            Request::decode(TAG_PREDICT, &payload),
            Err(WireError::Malformed(_))
        ));
    }
}
