//! The concurrent runtime of the [serving core](crate::serve): a bounded
//! queue and a pool of worker threads over one `Arc`-shared prepared
//! snapshot, with epoch-swapped updates.
//!
//! Coalescing, epochs, write-ahead and restart are described once, in
//! the [serve module docs](crate::serve). This runtime adds three things:
//!
//! * **Workers** — [`ConcurrentServer::run`] spawns
//!   [`ConcurrentOptions::workers`] OS threads. Each pops up to
//!   [`ConcurrentOptions::batch`] queued jobs, pins the current epoch's
//!   snapshot, and answers them with one coalesced run through
//!   [`PreparedPredictor::execute`]'s `&self` contract, so workers share
//!   nothing but the immutable snapshot.
//! * **A bounded queue** — submissions beyond
//!   [`ConcurrentOptions::queue_capacity`] either block
//!   ([`ServeHandle::submit`], [`ServeHandle::serve`]) or fail fast with
//!   [`SnapleError::QueueFull`] ([`ServeHandle::try_submit`]), so memory
//!   stays bounded however fast callers produce requests.
//! * **An epoch cell** — [`ServeHandle::apply_update`] forks the current
//!   snapshot with the delta applied, logs the delta when the run is
//!   durable, and swaps the `Arc`. The swap is one pointer store under a
//!   briefly held lock, so reads never block on writes.
//!
//! The runtime is scoped: [`ConcurrentServer::run`] owns the pool for the
//! duration of a closure, hands it a cloneable [`ServeHandle`], drains
//! every accepted request when the closure returns, and reports the
//! stream's [`ServerStats`].
//!
//! # Example
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
//!     &snaple,
//!     &graph,
//!     &cluster,
//!     ConcurrentOptions::default().workers(2),
//!     |handle| {
//!         // Submit a wave without waiting, then collect.
//!         let pending: Vec<_> = (0..4)
//!             .map(|i| QuerySet::sample(graph.num_vertices(), 25, i))
//!             .map(|q| handle.submit(&q))
//!             .collect::<Result<_, _>>()?;
//!         for p in pending {
//!             let prediction = p.wait()?;
//!             assert_eq!(prediction.num_vertices(), graph.num_vertices());
//!         }
//!         Ok::<(), snaple_core::SnapleError>(())
//!     },
//! )?;
//! outcome.value?;
//! assert_eq!(outcome.stats.requests, 4);
//! println!("{}", outcome.stats.summary());
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::Instant;

use snaple_gas::{ClusterSpec, DeltaStats};
use snaple_graph::{GraphDelta, GraphStore};
use snaple_store::Durability;

use crate::error::SnapleError;
use crate::predictor::Prediction;
use crate::predictor_api::{Predictor, PrepareRequest, PreparedPredictor, QuerySet};
use crate::serve::{durability_error, execute_coalesced, write_ahead, ServerStats};

/// Configuration of a [`ConcurrentServer`] run.
///
/// The lifetime parameter carries optional per-vertex attributes shared
/// by every request of the stream.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentOptions<'a> {
    workers: usize,
    queue_capacity: usize,
    batch: usize,
    seed: Option<u64>,
    attributes: Option<&'a [Vec<u32>]>,
}

impl Default for ConcurrentOptions<'_> {
    fn default() -> Self {
        ConcurrentOptions {
            workers: snaple_gas::host_parallelism(),
            queue_capacity: 1024,
            batch: 1,
            seed: None,
            attributes: None,
        }
    }
}

impl<'a> ConcurrentOptions<'a> {
    /// Creates the default options: one worker per available core, a
    /// 1024-request queue, no worker-side coalescing.
    pub fn new() -> Self {
        ConcurrentOptions::default()
    }

    /// Sets the number of worker threads (at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the submission queue's capacity (at least 1): the bound at
    /// which [`ServeHandle::submit`] blocks and
    /// [`ServeHandle::try_submit`] returns [`SnapleError::QueueFull`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets how many queued jobs one worker may coalesce into a single
    /// union-masked run (at least 1). Responses stay bit-identical to
    /// serving each request alone; larger batches trade per-request
    /// latency for throughput by sharing the fixed per-superstep costs.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Overrides the seed of every request's randomized parts (matching
    /// [`Server::with_seed`](crate::serve::Server::with_seed)).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attaches per-vertex content attributes applied to every request
    /// (matching
    /// [`Server::with_attributes`](crate::serve::Server::with_attributes)).
    pub fn with_attributes(mut self, attributes: &'a [Vec<u32>]) -> Self {
        self.attributes = Some(attributes);
        self
    }
}

/// One published snapshot: a prepared predictor plus its epoch number.
struct Snapshot<'g> {
    prepared: Box<dyn PreparedPredictor + 'g>,
    epoch: u64,
}

/// One accepted prediction request, waiting in the queue.
struct Job {
    queries: QuerySet,
    submitted: Instant,
    reply: mpsc::Sender<Result<Prediction, SnapleError>>,
}

/// Queue state behind the mutex: pending jobs plus the bookkeeping
/// `drain` needs to know when the pool is idle.
struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
    open: bool,
}

/// Everything the workers, submitters and updater share.
struct Shared<'g> {
    queue: Mutex<QueueState>,
    /// Workers wait here for jobs.
    jobs_cv: Condvar,
    /// Blocked submitters wait here for queue space.
    space_cv: Condvar,
    /// `drain` waits here for the pool to go idle.
    idle_cv: Condvar,
    /// The current epoch. Readers hold the lock only long enough to clone
    /// the `Arc`; the writer only long enough to store a new one.
    snapshot: RwLock<Arc<Snapshot<'g>>>,
    /// Serializes updaters so concurrent `apply_update` calls compose
    /// (each fork starts from the previously published epoch).
    update_lock: Mutex<()>,
    /// The durability store, when the run persists into a data dir. Only
    /// ever locked while `update_lock` is held, so the commitlog append
    /// is the serialization point before each epoch swap.
    durability: Option<Mutex<Durability>>,
    stats: Mutex<ServerStats>,
    capacity: usize,
    batch: usize,
    seed: Option<u64>,
    attributes: Option<&'g [Vec<u32>]>,
}

/// The result of a [`ConcurrentServer::run`]: the closure's return value
/// plus the stream's statistics.
#[derive(Debug)]
pub struct ConcurrentOutcome<R> {
    /// Whatever the body closure returned.
    pub value: R,
    /// Aggregate statistics of the served stream. For the concurrent
    /// runtime, [`ServerStats::serve_wall_seconds`] is the wall-clock
    /// lifetime of the pool (body plus final drain), so
    /// [`ServerStats::throughput_rps`] reflects end-to-end stream
    /// throughput rather than summed per-worker busy time.
    pub stats: ServerStats,
    /// The durability store handed to
    /// [`ConcurrentServer::run_prepared_durable`], returned to the caller
    /// after a final commitlog sync — reuse it to keep persisting, or
    /// drop it to release the data dir. `None` for ephemeral runs.
    pub durability: Option<Durability>,
}

/// A ticket for one accepted request; redeem with
/// [`PendingPrediction::wait`].
///
/// Owns no borrow of the runtime, so tickets may outlive the
/// [`ConcurrentServer::run`] scope: every accepted request is answered
/// before the pool shuts down, and the response stays buffered in the
/// ticket's channel.
pub struct PendingPrediction {
    rx: mpsc::Receiver<Result<Prediction, SnapleError>>,
}

/// The error a ticket reports when its channel lost the sender.
fn shut_down_unanswered() -> SnapleError {
    SnapleError::InvalidConfig("concurrent server shut down before answering".to_owned())
}

impl PendingPrediction {
    /// Blocks until the request's response (or its error) arrives.
    ///
    /// # Errors
    ///
    /// Propagates the [`SnapleError`] of the underlying execute.
    pub fn wait(self) -> Result<Prediction, SnapleError> {
        // A lost channel is unreachable through the public API — the pool
        // answers every accepted job before shutting down — but it must
        // not panic a caller.
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(shut_down_unanswered()))
    }

    /// Returns the response if it is already available, or the ticket
    /// back if the request is still in flight.
    ///
    /// # Errors
    ///
    /// As [`PendingPrediction::wait`], once the response is available.
    pub fn try_wait(self) -> Result<Result<Prediction, SnapleError>, PendingPrediction> {
        match self.rx.try_recv() {
            Ok(result) => Ok(result),
            Err(mpsc::TryRecvError::Empty) => Err(self),
            // A lost sender will never answer: surface the same error
            // wait() reports instead of letting a poll loop spin forever.
            Err(mpsc::TryRecvError::Disconnected) => Ok(Err(shut_down_unanswered())),
        }
    }
}

/// A cloneable, thread-safe handle into a running [`ConcurrentServer`]:
/// submit requests, apply epoch updates, drain the queue.
///
/// Handles are `Copy` — pass them freely into threads spawned inside the
/// run closure to generate concurrent load.
pub struct ServeHandle<'h, 'g> {
    shared: &'h Shared<'g>,
}

impl Clone for ServeHandle<'_, '_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for ServeHandle<'_, '_> {}

impl ServeHandle<'_, '_> {
    /// Submits one request, blocking while the queue is full, and returns
    /// a ticket redeemable for the response.
    ///
    /// # Errors
    ///
    /// Currently infallible (the signature matches
    /// [`ServeHandle::try_submit`] so call sites can switch between
    /// blocking and failing backpressure without restructuring).
    pub fn submit(&self, queries: &QuerySet) -> Result<PendingPrediction, SnapleError> {
        self.enqueue(queries, true)
    }

    /// Submits one request without blocking: if the queue is at capacity
    /// the request is rejected with [`SnapleError::QueueFull`] — the
    /// backpressure signal that keeps memory bounded under overload.
    ///
    /// # Errors
    ///
    /// [`SnapleError::QueueFull`] when the submission queue is at
    /// capacity.
    pub fn try_submit(&self, queries: &QuerySet) -> Result<PendingPrediction, SnapleError> {
        self.enqueue(queries, false)
    }

    fn enqueue(&self, queries: &QuerySet, block: bool) -> Result<PendingPrediction, SnapleError> {
        let (tx, rx) = mpsc::channel();
        let mut q = crate::sync::lock(&self.shared.queue);
        while q.jobs.len() >= self.shared.capacity {
            if !block {
                return Err(SnapleError::QueueFull {
                    capacity: self.shared.capacity,
                });
            }
            q = crate::sync::wait(&self.shared.space_cv, q);
        }
        q.jobs.push_back(Job {
            queries: queries.clone(),
            submitted: Instant::now(),
            reply: tx,
        });
        drop(q);
        self.shared.jobs_cv.notify_one();
        Ok(PendingPrediction { rx })
    }

    /// Submits one request and blocks until its response arrives — the
    /// round-trip convenience mirroring
    /// [`Server::serve`](crate::serve::Server::serve).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying execute.
    pub fn serve(&self, queries: &QuerySet) -> Result<Prediction, SnapleError> {
        self.submit(queries)?.wait()
    }

    /// Applies a graph-update batch by **epoch swap**: the post-delta
    /// snapshot is forked off to the side
    /// ([`PreparedPredictor::fork_with_delta`]) while workers keep
    /// reading the current epoch, then published atomically. Batches
    /// popped after the swap see the new epoch; in-flight batches finish
    /// on the old one.
    ///
    /// Concurrent updaters are serialized so every delta lands (each fork
    /// starts from the previously published epoch). In a
    /// [`ConcurrentServer::run_prepared_durable`] run the delta is
    /// appended to the commitlog between the fork and the swap, so an
    /// epoch is never observable before its delta is on disk.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the fork, or
    /// [`SnapleError::Durability`] when the commitlog append fails; on
    /// error no swap happens and the current epoch keeps serving.
    pub fn apply_update(&self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        let _updates_serialized = crate::sync::lock(&self.shared.update_lock);
        let current = Arc::clone(&crate::sync::read(&self.shared.snapshot));
        // The expensive part happens here, outside every lock readers use.
        let (forked, applied) = current.prepared.fork_with_delta(delta)?;
        // Write-ahead under the update lock, so log order matches epoch
        // order. On failure the fork is dropped unpublished.
        if let Some(durable) = &self.shared.durability {
            write_ahead(&mut crate::sync::lock(durable), delta)?;
        }
        *crate::sync::write(&self.shared.snapshot) = Arc::new(Snapshot {
            prepared: forked,
            epoch: current.epoch + 1,
        });
        crate::sync::lock(&self.shared.stats).record_update(&applied);
        Ok(applied)
    }

    /// The current epoch number: 0 at start, +1 per applied update.
    pub fn epoch(&self) -> u64 {
        crate::sync::read(&self.shared.snapshot).epoch
    }

    /// Number of requests currently waiting in the submission queue.
    pub fn queue_len(&self) -> usize {
        crate::sync::lock(&self.shared.queue).jobs.len()
    }

    /// Blocks until every accepted request has been answered (queue empty
    /// and no batch in flight) — the graceful quiesce point before an
    /// ordered update or shutdown.
    pub fn drain(&self) {
        let mut q = crate::sync::lock(&self.shared.queue);
        while !q.jobs.is_empty() || q.in_flight > 0 {
            q = crate::sync::wait(&self.shared.idle_cv, q);
        }
    }
}

/// The concurrent serving runtime. See the [module docs](self) for the
/// architecture; [`ConcurrentServer::run`] is the entry point.
pub struct ConcurrentServer;

impl ConcurrentServer {
    /// Prepares `predictor` once, then runs `body` against a pool of
    /// worker threads serving the prepared snapshot.
    ///
    /// The pool lives exactly as long as `body`: when it returns, the
    /// queue closes, workers finish every accepted request, and the
    /// joined pool's statistics are returned alongside `body`'s value.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from [`Predictor::prepare`]. Errors
    /// inside the stream surface per request (through
    /// [`PendingPrediction::wait`]), not here.
    pub fn run<'g, R>(
        predictor: &'g dyn Predictor,
        graph: &'g dyn GraphStore,
        cluster: &'g ClusterSpec,
        options: ConcurrentOptions<'g>,
        body: impl FnOnce(ServeHandle<'_, 'g>) -> R,
    ) -> Result<ConcurrentOutcome<R>, SnapleError> {
        let started = Instant::now();
        let prepared = predictor.prepare(&PrepareRequest::new(graph, cluster))?;
        let setup_wall_seconds = started.elapsed().as_secs_f64();
        let mut outcome = ConcurrentServer::run_prepared(prepared, options, body);
        outcome.stats.setup_wall_seconds = setup_wall_seconds;
        Ok(outcome)
    }

    /// Runs the pool over an already-prepared predictor (e.g. one whose
    /// deployment is shared with other consumers).
    pub fn run_prepared<'g, R>(
        prepared: Box<dyn PreparedPredictor + 'g>,
        options: ConcurrentOptions<'g>,
        body: impl FnOnce(ServeHandle<'_, 'g>) -> R,
    ) -> ConcurrentOutcome<R> {
        ConcurrentServer::run_inner(prepared, options, None, body).0
    }

    /// Runs the pool with a [`Durability`] store attached: every
    /// [`ServeHandle::apply_update`] appends its delta to the commitlog
    /// *before* the epoch swap becomes observable (write-ahead), and the
    /// store checkpoints compacted snapshots at its configured cadence.
    ///
    /// Replay deltas recovered by [`Durability::open`] must be folded
    /// into `prepared` (via
    /// [`PreparedPredictor::apply_delta`]) *before* calling this, so they
    /// are not re-logged — see the [serve module
    /// docs](crate::serve#write-ahead-and-restart) for the protocol.
    ///
    /// The store comes back in [`ConcurrentOutcome::durability`] after a
    /// final commitlog flush, so a caller can keep persisting across
    /// runs.
    ///
    /// # Errors
    ///
    /// [`SnapleError::Durability`] when the *final* commitlog flush
    /// fails — the data dir still recovers to the last synced frame.
    /// Errors inside the stream surface per request or per
    /// `apply_update`, not here.
    pub fn run_prepared_durable<'g, R>(
        prepared: Box<dyn PreparedPredictor + 'g>,
        options: ConcurrentOptions<'g>,
        durability: Durability,
        body: impl FnOnce(ServeHandle<'_, 'g>) -> R,
    ) -> Result<ConcurrentOutcome<R>, SnapleError> {
        let (outcome, sync_err) =
            ConcurrentServer::run_inner(prepared, options, Some(durability), body);
        match sync_err {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// The shared pool loop behind [`ConcurrentServer::run_prepared`] and
    /// [`ConcurrentServer::run_prepared_durable`]. Returns the outcome
    /// plus the final durability flush's error, if any (always `None`
    /// without a store).
    fn run_inner<'g, R>(
        prepared: Box<dyn PreparedPredictor + 'g>,
        options: ConcurrentOptions<'g>,
        durability: Option<Durability>,
        body: impl FnOnce(ServeHandle<'_, 'g>) -> R,
    ) -> (ConcurrentOutcome<R>, Option<SnapleError>) {
        let stats = ServerStats {
            workers: options.workers,
            ..ServerStats::from_setup(prepared.setup())
        };
        let shared = Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(options.queue_capacity),
                in_flight: 0,
                open: true,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            snapshot: RwLock::new(Arc::new(Snapshot { prepared, epoch: 0 })),
            update_lock: Mutex::new(()),
            durability: durability.map(Mutex::new),
            stats: Mutex::new(stats),
            capacity: options.queue_capacity,
            batch: options.batch,
            seed: options.seed,
            attributes: options.attributes,
        };
        let serve_started = Instant::now();
        let value = thread::scope(|scope| {
            for _ in 0..options.workers {
                scope.spawn(|| worker_loop(&shared));
            }
            // Close the queue when the body finishes — INCLUDING by
            // panic: without the drop guard, an unwinding body would
            // leave `open == true`, the workers parked on `jobs_cv`
            // forever, and `thread::scope` joining forever instead of
            // propagating the panic. On the normal path workers still
            // drain every accepted job before exiting.
            let _close_on_exit = CloseQueueGuard { shared: &shared };
            body(ServeHandle { shared: &shared })
        });
        // The pool is joined: take the store back, flush the commitlog
        // tail, and fold its counters into the stream stats.
        let mut stats = crate::sync::into_inner(shared.stats);
        stats.serve_wall_seconds = serve_started.elapsed().as_secs_f64();
        let mut durability = shared.durability.map(crate::sync::into_inner);
        let sync_err = durability
            .as_mut()
            .and_then(|durable| durable.sync().err().map(durability_error));
        stats.durability = durability.as_ref().map(|d| d.stats().clone());
        (
            ConcurrentOutcome {
                value,
                stats,
                durability,
            },
            sync_err,
        )
    }
}

/// Closes the submission queue on drop — the unwind-safe shutdown signal
/// of [`ConcurrentServer::run_prepared`].
struct CloseQueueGuard<'h, 'g> {
    shared: &'h Shared<'g>,
}

impl Drop for CloseQueueGuard<'_, '_> {
    fn drop(&mut self) {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.open = false;
        drop(q);
        self.shared.jobs_cv.notify_all();
    }
}

/// Returns a batch's in-flight count on drop — also when the execution
/// panics, so a single worker failure cannot wedge [`ServeHandle::drain`]
/// (the panic itself still propagates when the scope joins).
struct InFlightGuard<'h, 'g> {
    shared: &'h Shared<'g>,
    taken: usize,
}

impl Drop for InFlightGuard<'_, '_> {
    fn drop(&mut self) {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.in_flight -= self.taken;
        if q.jobs.is_empty() && q.in_flight == 0 {
            self.shared.idle_cv.notify_all();
        }
    }
}

/// One worker: pop up to `batch` jobs, execute them as a coalesced run
/// against the current epoch's snapshot, reply, repeat until the queue is
/// closed *and* empty.
fn worker_loop(shared: &Shared<'_>) {
    loop {
        let jobs: Vec<Job> = {
            let mut q = crate::sync::lock(&shared.queue);
            loop {
                if !q.jobs.is_empty() {
                    break;
                }
                if !q.open {
                    return;
                }
                q = crate::sync::wait(&shared.jobs_cv, q);
            }
            let n = q.jobs.len().min(shared.batch);
            let jobs: Vec<Job> = q.jobs.drain(..n).collect();
            q.in_flight += n;
            drop(q);
            // Freed `n` queue slots; wake blocked submitters.
            shared.space_cv.notify_all();
            jobs
        };
        let _in_flight = InFlightGuard {
            shared,
            taken: jobs.len(),
        };
        let (requests, replies): (Vec<QuerySet>, Vec<_>) = jobs
            .into_iter()
            .map(|job| (job.queries, (job.submitted, job.reply)))
            .unzip();

        // Pin this batch to the current epoch: the Arc clone is the only
        // synchronization the read path needs, and it keeps the snapshot
        // alive even if an update swaps the epoch mid-run.
        let snapshot = Arc::clone(&crate::sync::read(&shared.snapshot));
        match execute_coalesced(
            snapshot.prepared.as_ref(),
            &requests,
            shared.attributes,
            shared.seed,
        ) {
            Ok(run) => {
                let latencies = replies.iter().map(|(t, _)| t.elapsed().as_secs_f64());
                crate::sync::lock(&shared.stats).record_batch(&run, latencies);
                for ((_, reply), response) in replies.into_iter().zip(run.responses) {
                    // A dropped ticket just discards the response.
                    let _ = reply.send(Ok(response));
                }
            }
            Err(e) => {
                // A failing batch counts nothing: the error goes to its
                // requesters, the stream statistics stay untouched.
                for (_, reply) in replies {
                    let _ = reply.send(Err(e.clone()));
                }
            }
        }
        // `_in_flight` drops here, returning the batch's count and waking
        // any `drain()` waiter once the pool is idle.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NamedScore, SnapleConfig};
    use crate::predictor::Snaple;
    use snaple_graph::gen::datasets;
    use snaple_graph::CsrGraph;

    fn setup() -> (CsrGraph, ClusterSpec, Snaple) {
        let graph = datasets::GOWALLA.emulate(0.004, 3);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
        );
        (graph, cluster, snaple)
    }

    #[test]
    fn round_trips_answer_requests_and_count_stats() {
        let (graph, cluster, snaple) = setup();
        let outcome = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(2),
            |handle| {
                let q = QuerySet::sample(graph.num_vertices(), 30, 1);
                let first = handle.serve(&q).unwrap();
                let second = handle.serve(&q).unwrap();
                for (u, preds) in first.iter() {
                    assert_eq!(preds, second.for_vertex(u), "repeat request diverged");
                }
                assert_eq!(handle.epoch(), 0);
                handle.queue_len()
            },
        )
        .unwrap();
        assert_eq!(outcome.value, 0, "round trips leave no queue backlog");
        let stats = outcome.stats;
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.latency.count(), 2);
        assert!(stats.latency.p50() > 0.0);
        assert!(stats.serve_wall_seconds > 0.0);
        assert!(stats.setup_wall_seconds > 0.0);
        assert!(stats.replication_factor >= 1.0);
    }

    #[test]
    fn failing_requests_report_their_error_and_count_nothing() {
        let (graph, cluster, snaple) = setup();
        let outcome = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(2),
            |handle| {
                let bad = QuerySet::from_indices([graph.num_vertices() as u32 + 7]);
                let err = handle.serve(&bad).unwrap_err();
                assert!(matches!(err, SnapleError::InvalidConfig(_)), "{err}");
                // The pool survives the failure.
                let good = QuerySet::sample(graph.num_vertices(), 10, 0);
                handle.serve(&good).unwrap();
            },
        )
        .unwrap();
        assert_eq!(outcome.stats.requests, 1, "failed request must not count");
        assert_eq!(outcome.stats.latency.count(), 1);
    }

    #[test]
    fn worker_batches_coalesce_but_stay_bit_identical() {
        let (graph, cluster, snaple) = setup();
        let requests: Vec<QuerySet> = (0..6)
            .map(|i| QuerySet::sample(graph.num_vertices(), 25, i))
            .collect();
        // Individual responses through a batch=1 pool...
        let solo = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(1).batch(1),
            |handle| {
                requests
                    .iter()
                    .map(|q| handle.serve(q).unwrap())
                    .collect::<Vec<_>>()
            },
        )
        .unwrap();
        // ...versus a coalescing pool fed all requests up front.
        let coalesced = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(1).batch(8),
            |handle| {
                let pending: Vec<PendingPrediction> =
                    requests.iter().map(|q| handle.submit(q).unwrap()).collect();
                pending
                    .into_iter()
                    .map(|p| p.wait().unwrap())
                    .collect::<Vec<_>>()
            },
        )
        .unwrap();
        assert!(
            coalesced.stats.batches < solo.stats.batches,
            "batch=8 must coalesce: {} !< {}",
            coalesced.stats.batches,
            solo.stats.batches
        );
        for (request, (a, b)) in requests.iter().zip(solo.value.iter().zip(&coalesced.value)) {
            for q in request.iter() {
                assert_eq!(a.for_vertex(q), b.for_vertex(q), "row {q}");
            }
        }
    }

    #[test]
    fn tickets_outlive_the_pool_with_buffered_responses() {
        let (graph, cluster, snaple) = setup();
        let q = QuerySet::sample(graph.num_vertices(), 15, 2);
        let outcome = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(1),
            |handle| handle.submit(&q).unwrap(),
        )
        .unwrap();
        // The run scope has ended; the accepted request was still served.
        let prediction = outcome.value.wait().unwrap();
        assert_eq!(prediction.num_vertices(), graph.num_vertices());
        assert_eq!(outcome.stats.requests, 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn body_panics_propagate_instead_of_hanging_the_pool() {
        // Regression: the queue used to close only on the body's normal
        // return path, so a panicking body left the workers parked on
        // the job condvar and thread::scope joining forever. The close
        // guard must run during unwind, letting the panic propagate.
        let (graph, cluster, snaple) = setup();
        let _ = ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(2),
            |handle| {
                let q = QuerySet::sample(graph.num_vertices(), 10, 0);
                handle.serve(&q).unwrap();
                panic!("boom");
                #[allow(unreachable_code)]
                ()
            },
        );
    }

    #[test]
    fn durable_run_logs_updates_and_returns_the_store() {
        let (graph, cluster, snaple) = setup();
        let dir = std::env::temp_dir().join(format!("snaple-conc-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = snaple_store::DurabilityOptions::default();
        let (durable, recovered, _report) =
            Durability::open(&dir, &graph, b"cfg", opts.clone()).unwrap();
        assert!(recovered.is_none(), "fresh dir recovers nothing");
        let prepared = snaple
            .prepare(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let outcome = ConcurrentServer::run_prepared_durable(
            prepared,
            ConcurrentOptions::default().workers(1),
            durable,
            |handle| {
                let mut delta = GraphDelta::new();
                delta.insert(1, 2);
                handle.apply_update(&delta).unwrap();
                assert_eq!(handle.epoch(), 1);
                handle
                    .serve(&QuerySet::sample(graph.num_vertices(), 10, 0))
                    .unwrap();
            },
        )
        .unwrap();
        let folded = outcome.stats.durability.as_ref().unwrap();
        assert_eq!(folded.logged_deltas, 1);
        let durable = outcome.durability.unwrap();
        assert_eq!(durable.next_seq(), 1);
        drop(durable);
        // Reopen: the epoch swap's delta replays.
        let (_d2, recovered, report) = Durability::open(&dir, &graph, b"cfg", opts).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.replay.len(), 1);
        assert!(!report.repaired(), "{}", report.summary());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_wait_returns_the_ticket_until_the_response_lands() {
        let (graph, cluster, snaple) = setup();
        let q = QuerySet::sample(graph.num_vertices(), 15, 2);
        ConcurrentServer::run(
            &snaple,
            &graph,
            &cluster,
            ConcurrentOptions::default().workers(1),
            |handle| {
                let mut ticket = handle.submit(&q).unwrap();
                loop {
                    match ticket.try_wait() {
                        Ok(result) => {
                            result.unwrap();
                            break;
                        }
                        Err(back) => ticket = back,
                    }
                }
            },
        )
        .unwrap();
    }
}
