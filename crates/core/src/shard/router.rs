//! The scatter-gather router: the sharded front end of the
//! [serving core](crate::serve), one front end over N shard runtimes.
//!
//! The serving model is described once, in the [serve module
//! docs](crate::serve); each shard is a sequential
//! [`Server`](crate::serve::Server) behind a frame loop. The router adds
//! the fleet: [`ShardRouter::run`] stands it up, hands the body a
//! [`RouterHandle`], and tears it down when the body returns, yielding
//! the merged statistics. Requests **scatter**: each queried vertex is
//! routed to the one shard owning its master partition
//! ([`ShardAssignment::shard_of_vertex`]), so sub-queries are disjoint
//! and the gathered rows union into exactly the rows a single-process
//! server would produce. Updates **broadcast**: every shard applies the
//! same delta, keeping all snapshots identical.
//!
//! Shard death is a first-class outcome, not a hang: a broken pipe,
//! EOF, or corrupt reply marks the shard dead, fails every in-flight
//! request routed to it with [`SnapleError::ShardFailed`], rejects
//! future requests touching it with the same error, and leaves
//! [`RouterHandle::drain`] able to complete.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use snaple_gas::{ClusterSpec, DeltaStats, RunStats, ShardAssignment};
use snaple_graph::{GraphDelta, GraphStore, VertexId};

use crate::error::SnapleError;
use crate::predictor::Prediction;
use crate::predictor_api::QuerySet;
use crate::serve::ServerStats;

use super::process;
use super::runtime::{serve_connection, ChannelReader, ChannelWriter};
use super::wire::{Reply, Request, ShardSpec, WireRow};

/// How shard runtimes are hosted.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ShardTransport {
    /// Each shard is a thread in this process; frames travel over
    /// channels. No extra processes, no serialization savings — the
    /// frames are byte-for-byte the same as the process transport's.
    #[default]
    Threads,
    /// Each shard is a `snaple-shardd` child process; frames travel over
    /// stdin/stdout pipes. Full OS-level isolation: a crashing shard
    /// cannot take the router down.
    Processes,
}

/// Configuration of a [`ShardRouter`] deployment.
#[derive(Clone, Debug, Default)]
pub struct ShardOptions {
    shards: usize,
    transport: ShardTransport,
    seed: Option<u64>,
    shardd: Option<std::path::PathBuf>,
}

impl ShardOptions {
    /// Default options: 1 shard, thread transport.
    pub fn new() -> Self {
        ShardOptions {
            shards: 1,
            ..ShardOptions::default()
        }
    }

    /// Sets the number of shards. Validated against the cluster's
    /// partition count by [`ShardRouter::run`]: zero shards or more
    /// shards than partitions are rejected.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Selects the transport hosting the shard runtimes.
    pub fn transport(mut self, transport: ShardTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Overrides the seed of every request's randomized parts, matching
    /// [`ConcurrentOptions::seed`](crate::concurrent::ConcurrentOptions::seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides where the `snaple-shardd` binary is found (process
    /// transport only); defaults to [`process::shardd_path`] resolution.
    pub fn shardd_binary(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.shardd = Some(path.into());
        self
    }
}

/// What one [`ShardRouter::run`] produced: the body's return value plus
/// the fleet's merged statistics.
#[derive(Debug)]
pub struct ShardOutcome<R> {
    /// The body's return value.
    pub value: R,
    /// Merged statistics: router-level request/update counts, per-shard
    /// latency histograms folded with
    /// [`LatencyHistogram::merge`](crate::serve::LatencyHistogram::merge),
    /// wall-clock maxima across the concurrently-serving shards.
    pub stats: ServerStats,
}

// ---------------------------------------------------------------------------
// Internal shared state.
// ---------------------------------------------------------------------------

/// One in-flight scattered request: filled in by reader threads as the
/// involved shards answer.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// Shard indices that have not answered yet.
    waiting: Vec<usize>,
    rows: Vec<WireRow>,
    run_stats: Vec<RunStats>,
    delta_stats: Vec<DeltaStats>,
    num_vertices: u64,
    error: Option<SnapleError>,
    done: bool,
}

/// One shard's router-side connection: the frame writer (and, for the
/// process transport, the child's handle for kill/reap).
struct ShardConn {
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    child: Mutex<Option<std::process::Child>>,
}

struct RouterShared {
    conns: Vec<ShardConn>,
    assignment: ShardAssignment,
    /// The spec's partition seed — what master placement (and therefore
    /// vertex→shard ownership) is derived from.
    ownership_seed: u64,
    next_id: AtomicU64,
    epoch: AtomicU64,
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Scattered requests and broadcast updates not yet completed.
    outstanding: Mutex<usize>,
    idle_cv: Condvar,
    /// The logical stream as the router sees it: requests, queries and
    /// updates, each broadcast update counted once.
    stats: Mutex<ServerStats>,
    /// Per-shard death notice; `Some` permanently fails routing there.
    dead: Mutex<Vec<Option<String>>>,
    /// Per-shard prepare outcome (`Ok(num_vertices)` or the error text).
    ready: Mutex<Vec<Option<Result<u64, String>>>>,
    ready_cv: Condvar,
    /// Per-shard final statistics, delivered on shutdown.
    final_stats: Mutex<Vec<Option<ServerStats>>>,
    /// Current vertex count of the served epoch (grows with deltas).
    num_vertices: Mutex<u64>,
}

impl RouterShared {
    fn shard_of(&self, vertex: u32) -> usize {
        self.assignment.shard_of_vertex(self.ownership_seed, vertex)
    }

    /// Marks shard `i` dead: future routes there fail fast, every
    /// pending request waiting on it fails now, and anyone blocked on
    /// readiness or drain is woken. Idempotent.
    ///
    /// A repeat call still fails the pending requests waiting on `i`: a
    /// request can pass the fail-fast check just before the reader marks
    /// the shard dead and register its slot just after, and only the
    /// sender's own call to this method is left to fail that slot.
    fn mark_dead(&self, i: usize, message: &str) {
        // The first death notice wins; later calls report it too.
        let message = {
            let mut dead = crate::sync::lock(&self.dead);
            let Some(notice) = dead.get_mut(i) else {
                return; // not a shard we know
            };
            notice.get_or_insert_with(|| message.to_string()).clone()
        };
        // Unblock a prepare waiting on this shard.
        {
            let mut ready = crate::sync::lock(&self.ready);
            if let Some(slot) = ready.get_mut(i) {
                if slot.is_none() {
                    *slot = Some(Err(message.to_string()));
                }
            }
            self.ready_cv.notify_all();
        }
        // Close our writer so nothing else is sent there.
        if let Some(conn) = self.conns.get(i) {
            *crate::sync::lock(&conn.writer) = None;
        }
        // Fail every slot waiting on this shard.
        let failed: Vec<Arc<Slot>> = {
            let mut pending = crate::sync::lock(&self.pending);
            let ids: Vec<u64> = pending
                .iter()
                .filter(|(_, slot)| crate::sync::lock(&slot.state).waiting.contains(&i))
                .map(|(&id, _)| id)
                .collect();
            ids.iter().filter_map(|id| pending.remove(id)).collect()
        };
        let n_failed = failed.len();
        for slot in failed {
            let mut state = crate::sync::lock(&slot.state);
            state.error = Some(SnapleError::ShardFailed {
                shard: i,
                message: message.to_string(),
            });
            state.done = true;
            slot.cv.notify_all();
        }
        if n_failed > 0 {
            let mut outstanding = crate::sync::lock(&self.outstanding);
            *outstanding -= n_failed.min(*outstanding);
            self.idle_cv.notify_all();
        }
    }

    /// Records shard `i`'s answer for `request_id`; completes the slot
    /// when it was the last shard owing a reply.
    fn complete(
        &self,
        i: usize,
        request_id: u64,
        fill: impl FnOnce(&mut SlotState),
        error: Option<SnapleError>,
    ) {
        let slot = {
            let pending = crate::sync::lock(&self.pending);
            match pending.get(&request_id) {
                Some(slot) => Arc::clone(slot),
                None => return, // already failed via mark_dead
            }
        };
        let finished = {
            let mut state = crate::sync::lock(&slot.state);
            state.waiting.retain(|&s| s != i);
            if let Some(e) = error {
                state.error = Some(e);
                state.done = true;
            } else {
                fill(&mut state);
                if state.waiting.is_empty() {
                    state.done = true;
                }
            }
            if state.done {
                slot.cv.notify_all();
            }
            state.done
        };
        if finished {
            crate::sync::lock(&self.pending).remove(&request_id);
            let mut outstanding = crate::sync::lock(&self.outstanding);
            *outstanding = outstanding.saturating_sub(1);
            self.idle_cv.notify_all();
        }
    }

    /// Registers a slot waiting on every shard named in `frames`, then
    /// sends each shard its frame. A failed send marks the shard dead,
    /// which fails this very slot, so its waiter sees the
    /// [`SnapleError::ShardFailed`].
    fn scatter(&self, request_id: u64, frames: &[(usize, Vec<u8>)]) -> Arc<Slot> {
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                waiting: frames.iter().map(|(i, _)| *i).collect(),
                ..SlotState::default()
            }),
            cv: Condvar::new(),
        });
        // Count the request before it becomes visible in `pending`: a
        // reader's `mark_dead` may fail the slot the moment it is there,
        // and its decrement must find the count already raised.
        *crate::sync::lock(&self.outstanding) += 1;
        crate::sync::lock(&self.pending).insert(request_id, Arc::clone(&slot));
        for (i, frame) in frames {
            let _ = self.send_to(*i, frame);
        }
        slot
    }

    fn send_to(&self, i: usize, frame: &[u8]) -> Result<(), SnapleError> {
        let conn = self.conns.get(i).ok_or_else(|| self.dead_error(i))?;
        let mut writer = crate::sync::lock(&conn.writer);
        match writer.as_mut() {
            Some(w) => {
                if let Err(e) = w.write_all(frame).and_then(|()| w.flush()) {
                    drop(writer);
                    self.mark_dead(i, &format!("write failed: {e}"));
                    return Err(self.dead_error(i));
                }
                Ok(())
            }
            None => {
                // The stream was closed (shard killed or shut down)
                // before the reader noticed — mark it dead now so no
                // slot is left waiting on a shard nothing will answer
                // for. Idempotent when the reader got there first.
                drop(writer);
                self.mark_dead(i, "shard connection closed");
                Err(self.dead_error(i))
            }
        }
    }

    fn dead_error(&self, i: usize) -> SnapleError {
        let dead = crate::sync::lock(&self.dead);
        SnapleError::ShardFailed {
            shard: i,
            message: dead
                .get(i)
                .and_then(Option::clone)
                .unwrap_or_else(|| "shard unavailable".to_string()),
        }
    }
}

/// The reader loop: one thread per shard, decoding replies and routing
/// them into the pending map. Exits on EOF; any transport or protocol
/// error marks the shard dead.
fn reader_loop<R: Read>(shared: &RouterShared, i: usize, mut stream: R) {
    let mut payload = Vec::new();
    loop {
        let tag = match super::wire::read_frame(&mut stream, &mut payload) {
            Ok(tag) => tag,
            Err(super::wire::WireError::Closed) => {
                // Clean close: only a failure if something still waits.
                shared.mark_dead(i, "shard connection closed");
                return;
            }
            Err(e) => {
                shared.mark_dead(i, &e.to_string());
                return;
            }
        };
        let reply = match Reply::decode(tag, &payload) {
            Ok(reply) => reply,
            Err(e) => {
                shared.mark_dead(i, &format!("corrupt reply: {e}"));
                return;
            }
        };
        match reply {
            Reply::Ready { num_vertices } => {
                {
                    let mut nv = crate::sync::lock(&shared.num_vertices);
                    *nv = (*nv).max(num_vertices);
                }
                let mut ready = crate::sync::lock(&shared.ready);
                if let Some(slot) = ready.get_mut(i) {
                    *slot = Some(Ok(num_vertices));
                }
                shared.ready_cv.notify_all();
            }
            Reply::Rows {
                request_id,
                num_vertices,
                rows,
                stats,
            } => {
                shared.complete(
                    i,
                    request_id,
                    |state| {
                        state.rows.extend(rows);
                        state.run_stats.push(stats);
                        state.num_vertices = state.num_vertices.max(num_vertices);
                    },
                    None,
                );
            }
            Reply::DeltaOk {
                request_id,
                num_vertices,
                stats,
            } => {
                {
                    let mut nv = crate::sync::lock(&shared.num_vertices);
                    *nv = (*nv).max(num_vertices);
                }
                shared.complete(
                    i,
                    request_id,
                    |state| {
                        state.delta_stats.push(stats);
                        state.num_vertices = state.num_vertices.max(num_vertices);
                    },
                    None,
                );
            }
            Reply::Err {
                request_id,
                message,
            } => {
                if request_id == 0 {
                    // Prepare-time failure.
                    let mut ready = crate::sync::lock(&shared.ready);
                    if let Some(slot) = ready.get_mut(i) {
                        if slot.is_none() {
                            *slot = Some(Err(message));
                        }
                    }
                    shared.ready_cv.notify_all();
                } else {
                    shared.complete(
                        i,
                        request_id,
                        |_| {},
                        Some(SnapleError::InvalidConfig(message)),
                    );
                }
            }
            Reply::Stats { stats } => {
                if let Some(slot) = crate::sync::lock(&shared.final_stats).get_mut(i) {
                    *slot = Some(*stats);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Handle and pending result.
// ---------------------------------------------------------------------------

/// The scatter-gather front end the [`ShardRouter::run`] body serves
/// through. Cheap to share across threads (`&self` methods only).
pub struct RouterHandle<'r> {
    shared: &'r RouterShared,
}

/// A submitted, not yet gathered, prediction — the shard-router analogue
/// of [`PendingPrediction`](crate::concurrent::PendingPrediction).
pub struct PendingRows {
    inner: PendingInner,
}

enum PendingInner {
    /// No shard was involved (empty query set): answer immediately.
    Empty {
        num_vertices: u64,
    },
    Waiting {
        slot: Arc<Slot>,
    },
}

impl PendingRows {
    /// Blocks until every involved shard answered, then merges the
    /// gathered rows into one full-width [`Prediction`] whose
    /// statistics are the shards' [`RunStats`] folded with
    /// [`RunStats::merge_parallel`].
    ///
    /// # Errors
    ///
    /// [`SnapleError::ShardFailed`] if an involved shard died;
    /// [`SnapleError::InvalidConfig`] if a shard rejected its
    /// sub-request (the original error's text, flattened).
    pub fn wait(self) -> Result<Prediction, SnapleError> {
        let slot = match self.inner {
            PendingInner::Empty { num_vertices } => {
                let n = num_vertices as usize;
                return Ok(Prediction::from_rows(n, [], RunStats::default()));
            }
            PendingInner::Waiting { slot } => slot,
        };
        let state = {
            let guard = crate::sync::lock(&slot.state);
            let mut guard = crate::sync::wait_while(&slot.cv, guard, |s| !s.done);
            std::mem::take(&mut *guard)
        };
        if let Some(e) = state.error {
            return Err(e);
        }
        let n = state.num_vertices as usize;
        let rows = state.rows.into_iter().map(|(vertex, preds)| {
            let preds = preds.into_iter().map(|(v, s)| (VertexId::new(v), s));
            (VertexId::new(vertex), preds.collect())
        });
        let stats = RunStats::merged_parallel(state.run_stats.iter()).unwrap_or_default();
        Ok(Prediction::from_rows(n, rows, stats))
    }
}

impl RouterHandle<'_> {
    /// Fail-fast check: the first already-dead shard among `involved`,
    /// as a typed [`SnapleError::ShardFailed`].
    fn first_dead_error(&self, involved: &[usize]) -> Option<SnapleError> {
        let dead = crate::sync::lock(&self.shared.dead);
        involved
            .iter()
            .find_map(|&i| {
                dead.get(i)
                    .and_then(Option::clone)
                    .map(|message| (i, message))
            })
            .map(|(shard, message)| SnapleError::ShardFailed { shard, message })
    }

    /// Scatters one query set across the owning shards and returns the
    /// pending gather; does not block on execution, so submissions
    /// pipeline across shards.
    ///
    /// # Errors
    ///
    /// [`SnapleError::ShardFailed`] immediately if a shard the request
    /// routes to is already dead.
    pub fn submit(&self, queries: &QuerySet) -> Result<PendingRows, SnapleError> {
        let shards = self.shared.conns.len();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for q in queries.iter() {
            // snaple-lint: allow(index) — shard_of is `hash % shards` and buckets has len shards
            buckets[self.shared.shard_of(q.as_u32())].push(q.as_u32());
        }
        let involved: Vec<usize> = (0..shards)
            .filter(|&i| buckets.get(i).is_some_and(|b| !b.is_empty()))
            .collect();
        {
            let mut stats = crate::sync::lock(&self.shared.stats);
            stats.requests += 1;
            stats.batches += 1;
            stats.queries_received += queries.len();
        }
        if involved.is_empty() {
            let num_vertices = *crate::sync::lock(&self.shared.num_vertices);
            return Ok(PendingRows {
                inner: PendingInner::Empty { num_vertices },
            });
        }
        // Fail fast when a target shard is known dead.
        if let Some(e) = self.first_dead_error(&involved) {
            return Err(e);
        }
        let request_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        // Encode everything before registering the slot, so an encoding
        // failure cannot leave a pending entry behind (which would stall
        // `drain` forever).
        let frames = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(i, queries)| {
                let frame = Request::Predict {
                    request_id,
                    queries,
                }
                .encode();
                frame.map(|frame| (i, frame))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| SnapleError::InvalidConfig(format!("encoding sub-request: {e}")))?;
        Ok(PendingRows {
            inner: PendingInner::Waiting {
                slot: self.shared.scatter(request_id, &frames),
            },
        })
    }

    /// Scatters, gathers, and merges one request: `submit(...).wait()`.
    ///
    /// # Errors
    ///
    /// As [`RouterHandle::submit`] and [`PendingRows::wait`].
    pub fn serve(&self, queries: &QuerySet) -> Result<Prediction, SnapleError> {
        self.submit(queries)?.wait()
    }

    /// Broadcasts a graph delta to every shard and waits until all of
    /// them published the post-delta epoch, so subsequent requests on
    /// this handle see the update on every shard.
    ///
    /// # Errors
    ///
    /// [`SnapleError::ShardFailed`] if any shard is dead or dies during
    /// the update; [`SnapleError::InvalidConfig`] if a shard rejects the
    /// delta.
    pub fn apply_update(&self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        let shards = self.shared.conns.len();
        let involved: Vec<usize> = (0..shards).collect();
        if let Some(e) = self.first_dead_error(&involved) {
            return Err(e);
        }
        let request_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = Request::Delta {
            request_id,
            delta: delta.clone(),
        }
        .encode()
        .map_err(|e| SnapleError::InvalidConfig(format!("encoding delta: {e}")))?;
        let frames: Vec<_> = involved.into_iter().map(|i| (i, frame.clone())).collect();
        let slot = self.shared.scatter(request_id, &frames);
        let (error, all) = {
            let guard = crate::sync::lock(&slot.state);
            let mut guard = crate::sync::wait_while(&slot.cv, guard, |s| !s.done);
            (guard.error.take(), std::mem::take(&mut guard.delta_stats))
        };
        if let Some(e) = error {
            return Err(e);
        }
        // Every shard applied the same delta to an identical snapshot:
        // effect counters agree, wall times overlap — report the
        // logical counts once and the slowest shard's wall.
        let mut merged = all.first().cloned().unwrap_or_default();
        for s in all.iter().skip(1) {
            merged.touched_partitions = merged.touched_partitions.max(s.touched_partitions);
            merged.apply_wall_seconds = merged.apply_wall_seconds.max(s.apply_wall_seconds);
        }
        crate::sync::lock(&self.shared.stats).record_update(&merged);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        Ok(merged)
    }

    /// The number of delta epochs published so far (0 = the initial
    /// prepared snapshot).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Blocks until no scattered request is outstanding — including when
    /// shards died: their in-flight requests fail, they never linger.
    pub fn drain(&self) {
        let outstanding = crate::sync::lock(&self.shared.outstanding);
        let _unused = crate::sync::wait_while(&self.shared.idle_cv, outstanding, |n| *n > 0);
    }

    /// Fault-injection hook: hard-kills shard `i` — SIGKILL to the child
    /// process (process transport) plus closing the router's command
    /// stream — *without* telling the router's bookkeeping. The router
    /// must **detect** the death through its reader (EOF / broken
    /// pipe), fail anything pending on the shard with
    /// [`SnapleError::ShardFailed`], and keep [`RouterHandle::drain`]
    /// able to complete; tests assert exactly that.
    pub fn kill_shard(&self, i: usize) {
        let Some(conn) = self.shared.conns.get(i) else {
            return;
        };
        if let Some(child) = crate::sync::lock(&conn.child).as_mut() {
            let _ = child.kill();
        }
        *crate::sync::lock(&conn.writer) = None;
    }

    /// Which shard owns `vertex` — the scatter routing function, exposed
    /// for tests and diagnostics.
    pub fn shard_of(&self, vertex: u32) -> usize {
        self.shared.shard_of(vertex)
    }
}

// ---------------------------------------------------------------------------
// The router runner.
// ---------------------------------------------------------------------------

/// The shard-per-process (or per-thread) serving deployment;
/// [`ShardRouter::run`] is the entry point.
pub struct ShardRouter;

impl ShardRouter {
    /// Stands up `options.shards()` shard runtimes, prepares each on its
    /// own copy of `graph`, runs `body` against the scatter-gather
    /// [`RouterHandle`], then shuts the fleet down and returns the
    /// merged statistics.
    ///
    /// Rows served through the handle are **bit-identical** to a
    /// single-process [`ConcurrentServer`](crate::concurrent::ConcurrentServer)
    /// serving the same spec, graph, and seed: sub-queries run as masked
    /// runs (exact by construction) and partition disjointly across
    /// shards.
    ///
    /// # Errors
    ///
    /// [`SnapleError::Engine`] for unusable shard counts (zero, or more
    /// shards than the cluster has partitions);
    /// [`SnapleError::InvalidConfig`] if the graph cannot be serialized
    /// or a shard rejects the spec; [`SnapleError::ShardFailed`] if a
    /// shard dies during preparation.
    pub fn run<R>(
        spec: &ShardSpec,
        graph: &dyn GraphStore,
        cluster: &ClusterSpec,
        options: ShardOptions,
        body: impl FnOnce(&RouterHandle<'_>) -> R,
    ) -> Result<ShardOutcome<R>, SnapleError> {
        let assignment = ShardAssignment::new(cluster.nodes, options.shards)?;
        let shards = options.shards;
        let setup_started = Instant::now();
        let mut blob = Vec::new();
        snaple_graph::io::write_binary(graph, &mut blob)
            .map_err(|e| SnapleError::InvalidConfig(format!("serializing shard graph: {e}")))?;

        // Stand up the transports.
        let mut conns = Vec::with_capacity(shards);
        let mut reply_streams: Vec<Box<dyn Read + Send>> = Vec::with_capacity(shards);
        let mut shard_threads = Vec::new();
        match options.transport {
            ShardTransport::Threads => {
                for _ in 0..shards {
                    let (cmd_tx, cmd_rx) = mpsc::channel::<Vec<u8>>();
                    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
                    shard_threads.push(std::thread::spawn(move || {
                        // A transport error is already surfaced router-side
                        // as a dead shard; nothing to do with it here.
                        let _ = serve_connection(
                            ChannelReader::new(cmd_rx),
                            ChannelWriter::new(reply_tx),
                        );
                    }));
                    conns.push(ShardConn {
                        writer: Mutex::new(Some(
                            Box::new(ChannelWriter::new(cmd_tx)) as Box<dyn Write + Send>
                        )),
                        child: Mutex::new(None),
                    });
                    reply_streams.push(Box::new(ChannelReader::new(reply_rx)));
                }
            }
            ShardTransport::Processes => {
                let shardd = match &options.shardd {
                    Some(path) => path.clone(),
                    None => process::shardd_path().map_err(SnapleError::InvalidConfig)?,
                };
                for i in 0..shards {
                    let (child, stdin, stdout) =
                        process::spawn_shard(&shardd).map_err(|e| SnapleError::ShardFailed {
                            shard: i,
                            message: e,
                        })?;
                    conns.push(ShardConn {
                        writer: Mutex::new(Some(Box::new(stdin) as Box<dyn Write + Send>)),
                        child: Mutex::new(Some(child)),
                    });
                    reply_streams.push(Box::new(BufReader::new(stdout)));
                }
            }
        }

        let shared = RouterShared {
            conns,
            assignment,
            ownership_seed: spec.seed(),
            next_id: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            outstanding: Mutex::new(0),
            idle_cv: Condvar::new(),
            stats: Mutex::new(ServerStats::default()),
            dead: Mutex::new(vec![None; shards]),
            ready: Mutex::new(vec![None; shards]),
            ready_cv: Condvar::new(),
            final_stats: Mutex::new(vec![None; shards]),
            num_vertices: Mutex::new(graph.num_vertices() as u64),
        };

        let run_result = std::thread::scope(|scope| {
            for (i, stream) in reply_streams.into_iter().enumerate() {
                let shared = &shared;
                scope.spawn(move || reader_loop(shared, i, stream));
            }
            // Whatever happens below — including panics in `body` — the
            // guard closes every command stream on the way out, which
            // lets shards and reader threads exit and the scope join.
            let _close = CloseConnsGuard { shared: &shared };

            // Scatter the Prepare frames.
            for i in 0..shards {
                let frame = Request::Prepare(Box::new(super::wire::PrepareShard {
                    shard: i as u32,
                    num_shards: shards as u32,
                    seed_override: options.seed,
                    spec: spec.clone(),
                    cluster: cluster.clone(),
                    graph_blob: blob.clone(),
                }))
                .encode()
                .map_err(|e| SnapleError::InvalidConfig(format!("encoding shard prepare: {e}")))?;
                let _ = shared.send_to(i, &frame);
            }
            // Gather readiness.
            {
                let ready = crate::sync::lock(&shared.ready);
                let ready = crate::sync::wait_while(&shared.ready_cv, ready, |r| {
                    r.iter().any(Option::is_none)
                });
                for (i, r) in ready.iter().enumerate() {
                    if let Some(Err(message)) = r {
                        return Err(SnapleError::ShardFailed {
                            shard: i,
                            message: message.clone(),
                        });
                    }
                }
            }
            let setup_wall_seconds = setup_started.elapsed().as_secs_f64();

            let serve_started = Instant::now();
            let handle = RouterHandle { shared: &shared };
            let value = body(&handle);
            handle.drain();
            // Orderly shutdown: ask each live shard for its stats...
            let shutdown = Request::Shutdown
                .encode()
                .map_err(|e| SnapleError::InvalidConfig(format!("encoding shutdown: {e}")))?;
            for i in 0..shards {
                let _ = shared.send_to(i, &shutdown);
            }
            // ...then close the command streams (via the guard on scope
            // exit); readers drain the Stats replies and exit on EOF.
            Ok((value, setup_wall_seconds, serve_started))
        });
        let (value, setup_wall_seconds, serve_started) = run_result?;
        let serve_wall_seconds = serve_started.elapsed().as_secs_f64();

        // Reap process-transport children.
        for conn in &shared.conns {
            if let Some(mut child) = crate::sync::lock(&conn.child).take() {
                let _ = child.wait();
            }
        }
        for t in shard_threads {
            let _ = t.join();
        }

        // The router counts the logical stream; what only the shards see —
        // their runs and latencies — comes from the fleet, merged as
        // runtimes that served in parallel.
        let mut fleet = ServerStats::default();
        for shard_stats in crate::sync::lock(&shared.final_stats).iter().flatten() {
            fleet.merge_parallel(shard_stats);
        }
        let stats = ServerStats {
            union_queries: fleet.union_queries,
            simulated_seconds: fleet.simulated_seconds,
            partition_build_seconds: fleet.partition_build_seconds,
            replication_factor: fleet.replication_factor,
            latency: fleet.latency,
            setup_wall_seconds,
            serve_wall_seconds,
            workers: shards,
            ..crate::sync::into_inner(shared.stats)
        };
        Ok(ShardOutcome { value, stats })
    }
}

/// Closes every shard command stream when dropped, so shards see EOF,
/// exit, and let the reader threads (and the thread scope) finish — the
/// teardown path shared by normal returns, setup errors, and body
/// panics.
struct CloseConnsGuard<'r> {
    shared: &'r RouterShared,
}

impl Drop for CloseConnsGuard<'_> {
    fn drop(&mut self) {
        for conn in &self.shared.conns {
            *crate::sync::lock(&conn.writer) = None;
        }
    }
}
