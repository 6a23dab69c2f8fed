//! The shard wire protocol: length-prefixed, checksummed binary frames.
//!
//! Both shard transports — in-process channels and OS-process pipes —
//! exchange **identical serialized frames**, so one codec defines the
//! protocol and one serve loop ([`super::runtime`]) speaks it regardless
//! of what carries the bytes.
//!
//! # Frame layout
//!
//! ```text
//! ┌──────┬─────┬──────────┬───────────────┬───────────┐
//! │ "SL" │ tag │ len: u32 │ payload (len) │ crc32: u32│
//! │ 2 B  │ 1 B │ LE       │               │ LE        │
//! └──────┴─────┴──────────┴───────────────┴───────────┘
//! ```
//!
//! The CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) covers `tag`,
//! `len`, and the payload, so a flipped bit anywhere after the magic is
//! detected. `len` is capped at [`MAX_FRAME_LEN`]; a larger prefix is
//! rejected *before* any allocation, and payload bytes are read in
//! bounded chunks so even an in-cap lying prefix on a truncated stream
//! never balloons memory. Every malformed input maps to a typed
//! [`WireError`] — the codec never panics.
//!
//! # Messages
//!
//! Router → shard: [`Request::Prepare`], [`Request::Predict`],
//! [`Request::Delta`], [`Request::Shutdown`]. Shard → router:
//! [`Reply::Ready`], [`Reply::Rows`], [`Reply::DeltaOk`],
//! [`Reply::Err`], [`Reply::Stats`]. Scores travel as raw `f32` bits
//! (`to_bits`/`from_bits`), so a row that crosses the wire is
//! bit-identical to one that never left the process.

use std::error::Error as StdError;
use std::fmt;
use std::io::{Read, Write};

use snaple_gas::{ClusterSpec, DeltaStats, NodeStats, RunStats, StepStats};

use crate::config::{NamedScore, PathLength, SelectionPolicy, SnapleConfig};
use crate::plan::PlanConfig;
use crate::serve::{LatencyHistogram, ServerStats};
use snaple_gas::PartitionStrategy;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"SL";

/// Upper bound on a frame's payload length (1 GiB). A length prefix
/// beyond this is rejected as [`WireError::FrameTooLarge`] before any
/// allocation happens — the cap is what makes a corrupt or hostile
/// length prefix harmless.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Payloads are read in chunks of this size, so a lying in-cap length
/// prefix on a short stream errors out after at most one chunk of
/// over-allocation instead of reserving the full advertised length.
const READ_CHUNK: usize = 64 * 1024;

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

/// Everything that can go wrong on the wire. Every variant is a typed,
/// non-panicking error; transport-level variants ([`WireError::Io`],
/// [`WireError::Closed`], [`WireError::Truncated`],
/// [`WireError::BadChecksum`]) mean the connection is unusable, while
/// [`WireError::UnknownTag`] and [`WireError::Malformed`] indicate a
/// protocol bug or version skew.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly (EOF on a frame boundary).
    Closed,
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The checksum did not match — the frame was corrupted in transit.
    BadChecksum {
        /// CRC-32 carried by the frame.
        expected: u32,
        /// CRC-32 computed over the received bytes.
        computed: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The advertised payload length.
        len: u64,
    },
    /// The frame tag is not part of the protocol.
    UnknownTag(u8),
    /// The payload did not decode as the message its tag promises.
    Malformed(&'static str),
    /// An underlying I/O error (broken pipe, dead child process, ...).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "stream truncated mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadChecksum { expected, computed } => write!(
                f,
                "frame checksum mismatch: frame says {expected:#010x}, computed {computed:#010x}"
            ),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(msg) => write!(f, "wire i/o error: {msg}"),
        }
    }
}

impl StdError for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) — the shared implementation in `snaple_graph::codec`,
// re-exported so wire users keep one import path.
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 / zlib) of `data`, resumable via `seed` (pass the
/// previous return value to continue over a split buffer; start at 0).
///
/// This is [`snaple_graph::codec::crc32`] — the same checksum guards the
/// shard frames and the durability commitlog frames.
pub use snaple_graph::codec::crc32;

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Encodes one complete frame into a byte vector: magic, tag, length,
/// payload, checksum.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(tag: u8, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(2 + 1 + 4 + payload.len() + 4);
    frame.extend_from_slice(&MAGIC);
    frame.push(tag);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(0, &frame[2..]); // snaple-lint: allow(index) — frame starts with the 2-byte magic pushed above
    frame.extend_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Writes one frame and flushes, as a single `write_all` so interleaving
/// writers on the same pipe cannot shear a frame.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<(), WireError> {
    let frame = encode_frame(tag, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, returning its tag and filling `payload` (cleared
/// first) with the verified payload bytes.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF before any frame byte;
/// [`WireError::Truncated`] on EOF inside a frame; [`WireError::BadMagic`],
/// [`WireError::FrameTooLarge`], [`WireError::BadChecksum`] on the
/// corresponding corruptions; [`WireError::Io`] for transport failures.
pub fn read_frame<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<u8, WireError> {
    payload.clear();
    // Magic: distinguish clean EOF (no bytes at all) from truncation.
    let mut magic = [0u8; 2];
    let mut got = 0;
    while got < 2 {
        // snaple-lint: allow(index) — loop guard keeps got < 2 = magic.len()
        match r.read(&mut magic[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let [tag, l0, l1, l2, l3] = head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    // Chunked payload read: never reserve more than one chunk beyond the
    // bytes actually received, so a lying length prefix cannot force a
    // huge allocation on a short stream.
    let mut remaining = len as usize;
    let mut chunk = [0u8; READ_CHUNK];
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        // snaple-lint: allow(index) — take = min(remaining, READ_CHUNK) never exceeds chunk.len()
        r.read_exact(&mut chunk[..take])?;
        // snaple-lint: allow(index) — same bound as the read_exact above
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let computed = crc32(crc32(0, &head), payload);
    if expected != computed {
        return Err(WireError::BadChecksum { expected, computed });
    }
    Ok(tag)
}

// ---------------------------------------------------------------------------
// Primitive payload (de)serialization.
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn short(what: &'static str) -> WireError {
    WireError::Malformed(what)
}

fn get_u8(input: &mut &[u8], what: &'static str) -> Result<u8, WireError> {
    let (&b, rest) = input.split_first().ok_or(short(what))?;
    *input = rest;
    Ok(b)
}
fn get_u32(input: &mut &[u8], what: &'static str) -> Result<u32, WireError> {
    let (head, rest) = input.split_first_chunk::<4>().ok_or(short(what))?;
    *input = rest;
    Ok(u32::from_le_bytes(*head))
}
fn get_u64(input: &mut &[u8], what: &'static str) -> Result<u64, WireError> {
    let (head, rest) = input.split_first_chunk::<8>().ok_or(short(what))?;
    *input = rest;
    Ok(u64::from_le_bytes(*head))
}
fn get_f32(input: &mut &[u8], what: &'static str) -> Result<f32, WireError> {
    Ok(f32::from_bits(get_u32(input, what)?))
}
fn get_f64(input: &mut &[u8], what: &'static str) -> Result<f64, WireError> {
    Ok(f64::from_bits(get_u64(input, what)?))
}
fn get_str(input: &mut &[u8], what: &'static str) -> Result<String, WireError> {
    let len = get_u32(input, what)? as usize;
    if input.len() < len {
        return Err(short(what));
    }
    let (s, rest) = input.split_at(len);
    *input = rest;
    String::from_utf8(s.to_vec()).map_err(|_| short(what))
}
fn get_opt_u64(input: &mut &[u8], what: &'static str) -> Result<Option<u64>, WireError> {
    match get_u8(input, what)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(input, what)?)),
        _ => Err(short(what)),
    }
}
fn get_bytes(input: &mut &[u8], what: &'static str) -> Result<Vec<u8>, WireError> {
    let len = get_u64(input, what)? as usize;
    if input.len() < len {
        return Err(short(what));
    }
    let (b, rest) = input.split_at(len);
    *input = rest;
    Ok(b.to_vec())
}

/// Reads a element count and guards it against the remaining payload
/// size: each element needs at least `min_elem_bytes`, so a lying count
/// cannot drive an over-allocation — the check rejects it up front.
fn get_count(
    input: &mut &[u8],
    min_elem_bytes: usize,
    what: &'static str,
) -> Result<usize, WireError> {
    let n = get_u32(input, what)? as usize;
    if n.saturating_mul(min_elem_bytes) > input.len() {
        return Err(short(what));
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Predictor specification.
// ---------------------------------------------------------------------------

/// A serializable description of the predictor every shard must build —
/// the wire stand-in for the `&dyn Predictor` that an in-process server
/// borrows.
///
/// Only *nameable* predictors cross the wire: a [`SnapleConfig`] whose
/// score is a [`NamedScore`], or a score plan given as spec strings
/// (re-parsed by [`crate::spec::ScoreSpec::parse`] on the far side).
/// Predictors built from custom [`crate::ScoreComponents`] closures have
/// no serialized form and cannot be served by an OS-process shard.
#[derive(Clone, Debug)]
pub enum ShardSpec {
    /// A single scoring configuration ([`crate::Snaple`]).
    Single(SnapleConfig),
    /// A fused multi-score plan ([`crate::ScorePlan`]); rows are served
    /// from the plan's combined top-k column.
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
        match self {
            ShardSpec::Single(c) => c.seed,
            ShardSpec::Plan { config, .. } => config.seed,
        }
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
        _ => return Err(short("selection policy")),
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
        _ => return Err(short("partition strategy")),
    })
}
fn put_path_length(out: &mut Vec<u8>, p: PathLength) {
    put_u8(out, if p == PathLength::Three { 3 } else { 2 });
}
fn get_path_length(input: &mut &[u8]) -> Result<PathLength, WireError> {
    Ok(match get_u8(input, "path length")? {
        2 => PathLength::Two,
        3 => PathLength::Three,
        _ => return Err(short("path length")),
    })
}

fn put_spec(out: &mut Vec<u8>, spec: &ShardSpec) {
    match spec {
        ShardSpec::Single(c) => {
            put_u8(out, 0);
            put_str(out, c.score.name());
            put_u64(out, c.k as u64);
            put_opt_u64(out, c.klocal.map(|v| v as u64));
            put_opt_u64(out, c.thr_gamma.map(|v| v as u64));
            put_f32(out, c.alpha);
            put_selection(out, c.selection);
            put_u64(out, c.seed);
            put_partition(out, c.partition);
            put_path_length(out, c.path_length);
        }
        ShardSpec::Plan { specs, config } => {
            put_u8(out, 1);
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
    }
}

fn get_spec(input: &mut &[u8]) -> Result<ShardSpec, WireError> {
    match get_u8(input, "spec kind")? {
        0 => {
            let name = get_str(input, "score name")?;
            let score = NamedScore::parse(&name).ok_or(short("score name"))?;
            let k = get_u64(input, "spec k")? as usize;
            let klocal = get_opt_u64(input, "spec klocal")?.map(|v| v as usize);
            let thr_gamma = get_opt_u64(input, "spec thr_gamma")?.map(|v| v as usize);
            let alpha = get_f32(input, "spec alpha")?;
            let selection = get_selection(input)?;
            let seed = get_u64(input, "spec seed")?;
            let partition = get_partition(input)?;
            let path_length = get_path_length(input)?;
            let mut config = SnapleConfig::new(score)
                .k(k)
                .klocal(klocal)
                .thr_gamma(thr_gamma)
                .alpha(alpha)
                .selection(selection)
                .seed(seed)
                .partition(partition);
            config.path_length = path_length;
            Ok(ShardSpec::Single(config))
        }
        1 => {
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
        _ => Err(short("spec kind")),
    }
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
        /// The delta's operations in application order:
        /// `(u, v, weight, is_insert)`.
        ops: Vec<(u32, u32, f32, bool)>,
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
    /// the graph blob) exceeds [`MAX_FRAME_LEN`].
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
            Request::Delta { request_id, ops } => {
                put_u64(&mut payload, *request_id);
                // The shared delta codec: identical bytes to the
                // durability commitlog's frames.
                snaple_graph::codec::encode_ops(&mut payload, ops);
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
            TAG_DELTA => {
                let request_id = get_u64(input, "delta id")?;
                let ops = snaple_graph::codec::decode_ops(input)
                    .map_err(|e| WireError::Malformed(e.what()))?;
                Request::Delta { request_id, ops }
            }
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownTag(other)),
        };
        if !input.is_empty() {
            return Err(short("trailing request bytes"));
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
    /// [`MAX_FRAME_LEN`].
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
            return Err(short("trailing reply bytes"));
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
    fn crc32_matches_known_vectors() {
        // The canonical zlib check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // Resumable: split computation equals whole-buffer computation.
        let split = crc32(crc32(0, b"1234"), b"56789");
        assert_eq!(split, 0xCBF4_3926);
    }

    #[test]
    fn frames_round_trip() {
        for (tag, payload) in [(1u8, &b""[..]), (7, b"x"), (42, b"hello, shard")] {
            let frame = encode_frame(tag, payload).unwrap();
            let mut out = Vec::new();
            let got = read_frame(&mut frame.as_slice(), &mut out).unwrap();
            assert_eq!(got, tag);
            assert_eq!(out, payload);
        }
    }

    #[test]
    fn clean_eof_is_closed_and_partial_frames_are_truncated() {
        let mut buf = Vec::new();
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }, &mut buf), Err(WireError::Closed));
        let frame = encode_frame(3, b"payload").unwrap();
        // Every strict prefix of a valid frame is either Truncated (cut
        // mid-frame) — never a panic, never a bogus success.
        for cut in 1..frame.len() {
            let err = read_frame(&mut &frame[..cut], &mut buf).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(3, b"payload").unwrap();
        frame[0] = b'X';
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut frame.as_slice(), &mut buf),
            Err(WireError::BadMagic([b'X', b'L']))
        ));
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum() {
        let frame = encode_frame(3, b"some payload bytes").unwrap();
        // Flip one bit in every checksummed position (tag, length,
        // payload): all must be caught.
        for pos in 2..frame.len() - 4 {
            let mut bad = frame.clone();
            bad[pos] ^= 0x01;
            let mut buf = Vec::new();
            let err = read_frame(&mut bad.as_slice(), &mut buf).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::BadChecksum { .. }
                        | WireError::FrameTooLarge { .. }
                        | WireError::Truncated
                ),
                "pos {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        // A hand-built header advertising a 4 GiB payload: rejected on
        // the spot.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(2);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut frame.as_slice(), &mut buf),
            Err(WireError::FrameTooLarge {
                len: u32::MAX as u64
            })
        );
        assert_eq!(buf.capacity(), 0, "no allocation for a rejected frame");
    }

    #[test]
    fn in_cap_lying_length_prefix_stays_bounded() {
        // The header promises 512 MiB but the stream holds 10 bytes: the
        // chunked reader must fail with Truncated after at most one
        // chunk's worth of buffering.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(2);
        frame.extend_from_slice(&(512u32 << 20).to_le_bytes());
        frame.extend_from_slice(&[0u8; 10]);
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut frame.as_slice(), &mut buf),
            Err(WireError::Truncated)
        );
        assert!(
            buf.capacity() <= 4 * READ_CHUNK,
            "buffered {} bytes for a truncated stream",
            buf.capacity()
        );
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
        let req = Request::Delta {
            request_id: 78,
            ops: vec![(1, 2, 1.5, true), (3, 4, 1.0, false)],
        };
        match round_trip_request(&req) {
            Request::Delta { request_id, ops } => {
                assert_eq!(request_id, 78);
                assert_eq!(ops, vec![(1, 2, 1.5, true), (3, 4, 1.0, false)]);
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
        let req = Request::Delta {
            request_id: 0x0102_0304_0506_0708,
            ops: vec![(1, 2, 1.5, true), (3, 4, 0.0, false)],
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
    fn prepare_round_trips_both_spec_kinds() {
        let single = ShardSpec::Single(
            SnapleConfig::new(NamedScore::Counter)
                .k(7)
                .klocal(None)
                .thr_gamma(Some(80))
                .alpha(0.25)
                .selection(SelectionPolicy::Random)
                .seed(0xDEAD)
                .partition(PartitionStrategy::GreedyVertexCut),
        );
        let mut plan_config = PlanConfig::new();
        plan_config.seed = 99;
        let plan = ShardSpec::Plan {
            specs: vec!["jaccard@k16".into(), "counter".into()],
            config: plan_config,
        };
        for spec in [single, plan] {
            let req = Request::Prepare(Box::new(PrepareShard {
                shard: 2,
                num_shards: 4,
                seed_override: Some(5),
                spec: spec.clone(),
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
                    match (&spec, &p.spec) {
                        (ShardSpec::Single(a), ShardSpec::Single(b)) => {
                            assert_eq!(a.score, b.score);
                            assert_eq!(a.k, b.k);
                            assert_eq!(a.klocal, b.klocal);
                            assert_eq!(a.thr_gamma, b.thr_gamma);
                            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
                            assert_eq!(a.selection, b.selection);
                            assert_eq!(a.seed, b.seed);
                            assert_eq!(a.partition, b.partition);
                            assert_eq!(a.path_length, b.path_length);
                        }
                        (
                            ShardSpec::Plan {
                                specs: a,
                                config: ca,
                            },
                            ShardSpec::Plan {
                                specs: b,
                                config: cb,
                            },
                        ) => {
                            assert_eq!(a, b);
                            assert_eq!(ca.seed, cb.seed);
                            assert_eq!(ca.k, cb.k);
                        }
                        _ => panic!("spec kind changed across the wire"),
                    }
                }
                other => panic!("wrong decode: {other:?}"),
            }
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
