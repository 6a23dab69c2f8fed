//! The three workloads. Each runs a program phase — set-up rounds that
//! each serve a slice of the measured window and apply updates, then
//! restarts — runs the layer probes when tracing, and finally checks
//! every returned row against a sequential oracle.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snaple_core::shard::{RouterHandle, ShardOptions, ShardRouter, ShardSpec, ShardTransport};
use snaple_core::{
    ConcurrentOptions, ConcurrentServer, ExecuteRequest, PredictRequest, Prediction, Predictor,
    PrepareRequest, PreparedPlan, PreparedPredictor, QuerySet, ScorePlan, Server,
};
use snaple_gas::ClusterSpec;
use snaple_graph::extbuild::BuildStats;
use snaple_graph::{
    io, CsrGraph, ExternalGraphBuilder, GraphBuilder, GraphDelta, GraphStore, VertexId,
};
use snaple_store::{Durability, DurabilityOptions, FsyncPolicy};

use crate::inputs::{Inputs, Recall, PLAN};
use crate::quiet::{Event, Sampled, TimedOp};
use crate::report::{rows_match, rows_of, Kind, Report, Row, Tally};
use crate::trace::Tracer;
use crate::{host, probes};

/// Set-ups and restarts per run; `setup_s` and `recover_s` are their
/// medians. A batch set-up or restart includes an all-vertices pass, so
/// batch-all needs fewer of them to cover half a second or more. Each
/// set-up serves a slice of the window and then takes its share of the
/// updates on its own fresh state: the program's timings differ with the
/// memory layout a deployment happens to get, and spreading the window
/// over several deployments averages that out within one run.
pub const BATCH_SETUPS: usize = 3;
pub const BATCH_RESTARTS: usize = 5;
pub const SERVE_SETUPS: usize = 5;
pub const SERVE_RESTARTS: usize = 9;
/// Updates applied by each set-up (after its window slice) and each
/// restart on the read-only workloads.
pub const BATCH_UPDATES: usize = 96;
pub const POINT_UPDATES: usize = 64;
/// Updates logged after serve-churn's last checkpoint, so that every
/// restart replays the same log tail.
pub const CHURN_TAIL: usize = 16;
/// Concurrent clients, each with one operation outstanding.
pub const CLIENTS: usize = 2;
/// The serve CLI's defaults: `--workers 2 --batch 8`, 2 shards.
pub const WORKERS: usize = 2;
pub const BATCH: usize = 8;
pub const SHARDS: usize = 2;
/// Recorded in every data-dir snapshot.
pub const CONFIG: &[u8] = b"perfbench linearSum,counter,PPR,jaccard@agg=max";

pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// Everything a workload run needs.
pub struct Ctx {
    pub workload: &'static str,
    pub seconds: f64,
    pub tracer: Tracer,
    pub work: PathBuf,
    pub plan: ScorePlan,
    pub cluster: ClusterSpec,
    pub inputs: Inputs,
}

impl Ctx {
    pub fn graph_path(&self) -> PathBuf {
        self.work.join("graph.snplg")
    }

    pub fn data_dir(&self, tag: &str) -> PathBuf {
        self.work.join(format!("data-{tag}"))
    }

    pub fn shard_spec(&self) -> ShardSpec {
        ShardSpec::Plan {
            specs: PLAN.split(',').map(|s| s.trim().to_owned()).collect(),
            config: self.plan.config().clone(),
        }
    }

    /// The in-RAM training graph, built by the in-memory builder from the
    /// generated edges, independent of the file path under test.
    pub fn oracle_graph(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.inputs.edges.len());
        b.reserve_vertices(self.inputs.num_vertices);
        for &(u, v) in &self.inputs.edges {
            b.add_edge(u, v);
        }
        b.build()
    }
}

pub fn shard_options() -> ShardOptions {
    ShardOptions::new()
        .shards(SHARDS)
        .transport(ShardTransport::Threads)
}

pub fn concurrent_options<'a>() -> ConcurrentOptions<'a> {
    ConcurrentOptions::new().workers(WORKERS).batch(BATCH)
}

pub fn durability_options() -> DurabilityOptions {
    DurabilityOptions::default().fsync(FsyncPolicy::Always)
}

pub fn query_set(q: &[u32]) -> QuerySet {
    QuerySet::from_indices(q.iter().copied())
}

/// What a workload run measured.
pub struct Outcome {
    /// (wall seconds, host steal share) of each set-up.
    pub setup_s: Vec<(f64, f64)>,
    pub predict_s: Vec<f64>,
    pub rows: u64,
    pub window_s: f64,
    pub window_ops: u64,
    /// Each window slice's timed operations and host samples.
    pub windows: Vec<Sampled>,
    pub update_s: Vec<f64>,
    /// (wall seconds, host steal share) of each restart.
    pub recover_s: Vec<(f64, f64)>,
    /// VmHWM in MB of each set-up round, from its start to its end.
    pub peaks: Vec<f64>,
    pub recall: Recall,
    pub tally: Tally,
    /// Counters for the per-layer metrics; spans supply the timings.
    pub layers: Report,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            predict_s: Vec::new(),
            rows: 0,
            window_s: 0.0,
            window_ops: 0,
            windows: Vec::new(),
            update_s: Vec::new(),
            recover_s: Vec::new(),
            peaks: Vec::new(),
            recall: Recall::default(),
            tally: Tally::default(),
            layers: Report::new(Kind::PerLayer),
        }
    }

    fn record_build(&mut self, stats: &BuildStats) {
        self.layers
            .set("graph.ingest_runs", stats.runs as f64, Some(1));
        self.layers.set(
            "graph.file_mb",
            stats.output_bytes as f64 / (1 << 20) as f64,
            Some(1),
        );
    }

    /// Starts a set-up round from a trimmed heap and a reset high-water
    /// mark, so that its peak is its own and not what earlier rounds left
    /// in the allocator's arenas. A failed reset was reported at start-up.
    fn start_round(&mut self) {
        host::trim_heap();
        let _ = host::reset_peak_rss();
    }

    fn end_round(&mut self) -> Result<(), String> {
        self.peaks
            .push(host::peak_rss_mb().ok_or("VmHWM is not readable")?);
        Ok(())
    }
}

/// Feeds the training edges through the external builder into an
/// SNPLG2 file, then opens it.
pub fn ingest_open(ctx: &Ctx) -> Result<(Arc<dyn GraphStore>, BuildStats), String> {
    let path = ctx.graph_path();
    let _ = std::fs::remove_file(&path);
    let (built, _) = ctx.tracer.time("graph.ingest", || {
        let mut b = ExternalGraphBuilder::new();
        b.scratch_dir(&ctx.work)
            .reserve_vertices(ctx.inputs.num_vertices);
        for &(u, v) in &ctx.inputs.edges {
            b.add_edge(u, v)?;
        }
        b.build(&path)
    });
    let stats = built.map_err(err)?;
    let store = open(ctx, &path)?;
    if ctx.tracer.is_on() {
        ctx.tracer.time("graph.first_touch", || {
            store.out_neighbors(VertexId::new(0)).len()
        });
    }
    Ok((store, stats))
}

pub fn open(ctx: &Ctx, path: &Path) -> Result<Arc<dyn GraphStore>, String> {
    ctx.tracer
        .time("graph.open", || io::open_store(path))
        .0
        .map_err(err)
}

/// Host samples per second of a closed-loop window, and per block.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
const SAMPLES_PER_BLOCK: usize = 10;

/// Runs `op` from [`CLIENTS`] threads, each with one operation
/// outstanding, until `seconds` pass or `op` declines an index. One more
/// thread samples the host every [`SAMPLE_EVERY`]. Returns each result
/// with its completion time, the window's wall time, and the samples.
pub fn closed_loop<T: Send>(
    seconds: f64,
    op: impl Fn(usize) -> Option<T> + Sync,
) -> (Vec<(Instant, T)>, f64, Sampled) {
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut sampled = Sampled {
        per_block: SAMPLES_PER_BLOCK,
        ..Sampled::default()
    };
    sampled.sample();
    let started = Instant::now();
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(SAMPLE_EVERY);
                samples.push((Instant::now(), host::CpuTicks::now()));
            }
            samples
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while started.elapsed().as_secs_f64() < seconds {
                        match op(next.fetch_add(1, Ordering::Relaxed)) {
                            Some(t) => mine.push((Instant::now(), t)),
                            None => break,
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            results.extend(h.join().expect("client thread panicked"));
        }
        done.store(true, Ordering::SeqCst);
        sampled
            .samples
            .extend(sampler.join().expect("sampler thread panicked"));
    });
    (results, started.elapsed().as_secs_f64(), sampled)
}

fn same_rows(a: &Prediction, b: &Prediction) -> bool {
    a.num_vertices() == b.num_vertices()
        && a.iter().zip(b.iter()).all(|((_, x), (_, y))| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}

// ---------------------------------------------------------------------------
// batch-all
// ---------------------------------------------------------------------------

/// One all-vertices pass. Traced, it is split at the public seam into
/// `execute_matrix` and `combined`, which is what `execute` does.
pub fn pass(ctx: &Ctx, prepared: &PreparedPlan<'_>) -> (Result<Prediction, String>, f64) {
    let tr = &ctx.tracer;
    tr.time("bench.pass", || {
        if tr.is_on() {
            let matrix = tr
                .time("core.execute_all", || {
                    prepared.execute_matrix(&ExecuteRequest::new())
                })
                .0
                .map_err(err)?;
            Ok(tr
                .time("core.combined", || matrix.combined(ctx.plan.combined_k()))
                .0)
        } else {
            PreparedPredictor::execute(prepared, &ExecuteRequest::new()).map_err(err)
        }
    })
}

fn note_pass_stats(out: &mut Outcome, p: &Prediction, wall: f64, prepared: &PreparedPlan<'_>) {
    let rows = p.num_vertices().max(1) as f64;
    out.layers.set(
        "gas.work_ops_per_row",
        p.stats.total_work_ops() as f64 / rows,
        Some(1),
    );
    out.layers.set(
        "gas.network_bytes_per_row",
        p.stats.total_network_bytes() as f64 / rows,
        Some(1),
    );
    out.layers.set(
        "gas.sim_over_wall",
        p.stats.simulated_seconds() / wall,
        Some(1),
    );
    out.layers.set(
        "gas.replication_factor",
        prepared.setup().replication_factor,
        Some(1),
    );
}

/// All-vertices passes for `seconds`, at least one, each checked against
/// `reference`; one block per pass.
fn batch_window(
    ctx: &Ctx,
    prepared: &PreparedPlan<'_>,
    reference: &Prediction,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut sampled = Sampled {
        per_block: 1,
        ..Sampled::default()
    };
    sampled.sample();
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let (p, secs) = pass(ctx, prepared);
        let end = Instant::now();
        sampled.sample();
        passes += 1;
        out.predict_s.push(secs);
        let ok = p.as_ref().is_ok_and(|p| same_rows(p, reference));
        out.tally
            .record(ok, "all-vertices pass differs from the reference pass");
        let Ok(p) = p else { break };
        out.rows += p.num_vertices() as u64;
        sampled.ops.push(TimedOp {
            end,
            secs,
            rows: p.num_vertices() as u64,
            update: false,
        });
        note_pass_stats(out, &p, secs, prepared);
    }
    out.window_s += started.elapsed().as_secs_f64();
    out.window_ops += passes;
    out.windows.push(sampled);
}

/// Applies the update stream's first [`BATCH_UPDATES`] in place.
fn apply_updates(ctx: &Ctx, prepared: &mut PreparedPlan<'_>, out: &mut Outcome) {
    for delta in &ctx.inputs.updates[..BATCH_UPDATES] {
        let (applied, secs) = ctx
            .tracer
            .time("core.apply_delta", || prepared.apply_delta(delta));
        out.tally.record(applied.is_ok(), "apply_delta");
        out.update_s.push(secs);
    }
}

/// Distinct sources of the first update's operations: the vertices
/// whose rows an update is most likely to change.
fn touched(ctx: &Ctx, n: usize) -> Vec<u32> {
    let mut out = BTreeSet::new();
    for (u, _, _, _) in ctx.inputs.updates[0].ops() {
        if out.len() == n {
            break;
        }
        out.insert(u);
    }
    out.into_iter().collect()
}

/// The update stream's first `n` updates as one delta. No edge is touched
/// twice in the stream, so this is the same graph change as applying
/// them one after another.
fn merged_updates(ctx: &Ctx, n: usize) -> GraphDelta {
    let mut merged = GraphDelta::new();
    for delta in &ctx.inputs.updates[..n] {
        for (u, v, _, insert) in delta.ops() {
            if insert {
                merged.insert(u, v);
            } else {
                merged.remove(u, v);
            }
        }
    }
    merged
}

pub fn batch_all(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let mut out = Outcome::new();
    let mut reference: Option<Prediction> = None;
    let check_queries = touched(ctx, 32);
    let mut check_rows: Response = Err("not run".into());
    for _ in 0..BATCH_SETUPS {
        out.start_round();
        let started = Event::start();
        let (store, build) = ingest_open(ctx)?;
        let mut prepared = tr
            .time("core.prepare", || {
                ctx.plan
                    .prepare_plan(&PrepareRequest::new(&*store, &ctx.cluster))
            })
            .0
            .map_err(err)?;
        let first = pass(ctx, &prepared).0?;
        out.setup_s.push(started.finish());
        out.record_build(&build);
        let reference = match &reference {
            Some(r) => {
                out.tally
                    .record(same_rows(&first, r), "set-up pass differs from the first");
                r
            }
            None => reference.insert(first),
        };
        batch_window(
            ctx,
            &prepared,
            reference,
            ctx.seconds / BATCH_SETUPS as f64,
            &mut out,
        );
        apply_updates(ctx, &mut prepared, &mut out);
        let qs = query_set(&check_queries);
        check_rows =
            PreparedPredictor::execute(&prepared, &ExecuteRequest::new().with_queries(&qs))
                .map(|p| rows_of(&p, &check_queries))
                .map_err(err);
        out.end_round()?;
    }
    let reference = reference.ok_or("no set-up completed")?;

    for _ in 0..BATCH_RESTARTS {
        let started = Event::start();
        let store = open(ctx, &ctx.graph_path())?;
        let prepared = tr
            .time("core.prepare", || {
                ctx.plan
                    .prepare_plan(&PrepareRequest::new(&*store, &ctx.cluster))
            })
            .0
            .map_err(err)?;
        let (p, _) = pass(ctx, &prepared);
        out.recover_s.push(started.finish());
        let ok = p.as_ref().is_ok_and(|p| same_rows(p, &reference));
        out.tally
            .record(ok, "pass after restart differs from the first");
        let mut prepared = prepared;
        apply_updates(ctx, &mut prepared, &mut out);
    }
    if tr.is_on() {
        probes::run(ctx, &mut out)?;
    }

    tr.time("bench.oracle", || -> Result<(), String> {
        let csr = ctx.oracle_graph();
        let oracle = ctx
            .plan
            .predict(&PredictRequest::new(&csr, &ctx.cluster))
            .map_err(err)?;
        out.tally.record(
            same_rows(&reference, &oracle),
            "all-vertices pass differs from one-shot predict on the in-RAM graph",
        );
        out.recall = recall_of(ctx, &table(&oracle));
        let updated = csr.compact(&merged_updates(ctx, BATCH_UPDATES));
        let qs = query_set(&check_queries);
        let after = ctx
            .plan
            .predict(&PredictRequest::new(&updated, &ctx.cluster).with_queries(&qs))
            .map_err(err)?;
        let want = rows_of(&after, &check_queries);
        let ok = check_rows
            .as_ref()
            .is_ok_and(|rows| rows_match(rows, |q| find(&want, q)));
        out.tally.record(
            ok,
            "rows after updates differ from one-shot predict on the updated graph",
        );
        Ok(())
    })
    .0?;
    Ok(out)
}

fn find(rows: &[Row], q: u32) -> Option<&[(u32, f32)]> {
    rows.iter().find(|r| r.0 == q).map(|r| r.1.as_slice())
}

/// Every row of an all-vertices prediction, indexed by vertex.
fn table(p: &Prediction) -> Vec<Vec<(u32, f32)>> {
    p.iter()
        .map(|(_, row)| row.iter().map(|&(z, s)| (z.as_u32(), s)).collect())
        .collect()
}

/// Hold-out recall of an all-vertices table.
fn recall_of(ctx: &Ctx, table: &[Vec<(u32, f32)>]) -> Recall {
    let mut recall = Recall::default();
    for (held, row) in ctx.inputs.held.iter().zip(table) {
        recall.add(held, row);
    }
    recall
}

// ---------------------------------------------------------------------------
// serve-point
// ---------------------------------------------------------------------------

/// The rows of one response, or why there are none.
type Response = Result<Vec<Row>, String>;

/// Broadcasts the update stream's first [`POINT_UPDATES`] through the
/// router.
fn apply_router_updates(ctx: &Ctx, h: &RouterHandle<'_>, out: &mut Outcome) {
    for delta in &ctx.inputs.updates[..POINT_UPDATES] {
        let (applied, secs) = ctx.tracer.time("shard.update", || h.apply_update(delta));
        out.tally.record(applied.is_ok(), "router apply_update");
        out.update_s.push(secs);
    }
}

pub fn serve_point(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let spec = ctx.shard_spec();
    let mut out = Outcome::new();
    // Every response of the program phase; all run on the base graph.
    let mut served: Vec<Response> = Vec::new();
    let mut update_check: Response = Err("not run".into());
    let check_queries = touched(ctx, 4);
    let slice = ctx.seconds / SERVE_SETUPS as f64;
    for round in 0..SERVE_SETUPS {
        out.start_round();
        let started = Event::start();
        let (store, build) = ingest_open(ctx)?;
        out.record_build(&build);
        let call = Instant::now();
        ShardRouter::run(&spec, &*store, &ctx.cluster, shard_options(), |h| {
            tr.record_interval("shard.standup", call, Instant::now());
            let warm = ctx.inputs.request(ctx.inputs.requests.len() - 1 - round);
            let rows = h
                .serve(&query_set(warm))
                .map(|p| rows_of(&p, warm))
                .map_err(err);
            out.setup_s.push(started.finish());
            served.push(rows);
            // Each round serves its own stretch of the request stream.
            let offset = round * (ctx.inputs.requests.len() / SERVE_SETUPS);
            let (results, window_s, mut sampled) = closed_loop(slice, |i| {
                let q = ctx.inputs.request(offset + i);
                let (p, secs) = tr.time_req("shard.serve", Some((offset + i) as u64 + 1), || {
                    h.serve(&query_set(q))
                });
                Some((secs, p.map(|p| rows_of(&p, q)).map_err(err)))
            });
            out.window_s += window_s;
            out.window_ops += results.len() as u64;
            for (end, (secs, rows)) in results {
                let n = rows.as_ref().map_or(0, |r| r.len() as u64);
                out.predict_s.push(secs);
                out.rows += n;
                sampled.ops.push(TimedOp {
                    end,
                    secs,
                    rows: n,
                    update: false,
                });
                served.push(rows);
            }
            out.windows.push(sampled);
            apply_router_updates(ctx, h, &mut out);
            update_check = h
                .serve(&query_set(&check_queries))
                .map(|p| rows_of(&p, &check_queries))
                .map_err(err);
        })
        .map_err(err)?;
        out.end_round()?;
    }

    for r in 0..SERVE_RESTARTS {
        let started = Event::start();
        let store = open(ctx, &ctx.graph_path())?;
        let q = ctx
            .inputs
            .request(ctx.inputs.requests.len() - 1 - SERVE_SETUPS - r);
        let call = Instant::now();
        ShardRouter::run(&spec, &*store, &ctx.cluster, shard_options(), |h| {
            tr.record_interval("shard.standup", call, Instant::now());
            let rows = h.serve(&query_set(q)).map(|p| rows_of(&p, q)).map_err(err);
            out.recover_s.push(started.finish());
            served.push(rows);
            apply_router_updates(ctx, h, &mut out);
        })
        .map_err(err)?;
    }
    if tr.is_on() {
        probes::run(ctx, &mut out)?;
    }

    tr.time("bench.oracle", || -> Result<(), String> {
        let csr = ctx.oracle_graph();
        let mut server = Server::new(&ctx.plan, &csr, &ctx.cluster).map_err(err)?;
        let all = query_set(&(0..ctx.inputs.num_vertices as u32).collect::<Vec<_>>());
        let oracle = table(&server.serve(&all).map_err(err)?);
        for rows in &served {
            let ok = rows
                .as_ref()
                .is_ok_and(|rows| rows_match(rows, |q| oracle.get(q as usize).map(Vec::as_slice)));
            out.tally
                .record(ok, "routed rows differ from the sequential Server");
        }
        out.recall = recall_of(ctx, &oracle);
        server
            .apply_update(&merged_updates(ctx, POINT_UPDATES))
            .map_err(err)?;
        let after = server.serve(&query_set(&check_queries)).map_err(err)?;
        let want = rows_of(&after, &check_queries);
        let ok = update_check
            .as_ref()
            .is_ok_and(|rows| rows_match(rows, |q| find(&want, q)));
        out.tally.record(
            ok,
            "rows after router updates differ from the sequential Server",
        );
        Ok(())
    })
    .0?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------------

pub enum ChurnOp {
    Read {
        secs: f64,
        /// Epochs before submit and after the response: the run used one
        /// of `first..=last`.
        first: u64,
        last: u64,
        rows: Response,
    },
    Update {
        secs: f64,
        ok: bool,
    },
}

/// The serve-churn traffic against a running durable server: every 4th
/// operation an update, the others reads. Returns the operations with
/// their completion times, the order in which updates were published
/// (epoch `e` = `order[e-1]`), the window's wall time and host samples.
pub fn churn_window(
    ctx: &Ctx,
    h: snaple_core::ServeHandle<'_, '_>,
    seconds: f64,
    max_updates: usize,
) -> (Vec<(Instant, ChurnOp)>, Vec<usize>, f64, Sampled) {
    let tr = &ctx.tracer;
    let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let (ops, window_s, sampled) = closed_loop(seconds, |i| {
        if i % 4 == 3 {
            let u = i / 4;
            if u >= max_updates {
                return None;
            }
            // Held across the call so that publication order is known.
            let mut order = order.lock().expect("update order lock poisoned");
            let (applied, secs) = tr.time("concurrent.update", || {
                h.apply_update(&ctx.inputs.updates[u])
            });
            if applied.is_ok() {
                order.push(u);
            }
            return Some(ChurnOp::Update {
                secs,
                ok: applied.is_ok(),
            });
        }
        let q = ctx.inputs.request(i);
        let qs = query_set(q);
        let first = h.epoch();
        let (p, secs) = tr.time_req("concurrent.request", Some(i as u64 + 1), || {
            let (pending, _) = tr.time("concurrent.submit", || h.submit(&qs));
            pending.and_then(|p| tr.time("concurrent.wait", || p.wait()).0)
        });
        let last = h.epoch();
        Some(ChurnOp::Read {
            secs,
            first,
            last,
            rows: p.map(|p| rows_of(&p, q)).map_err(err),
        })
    });
    let order = order.into_inner().expect("update order lock poisoned");
    (ops, order, window_s, sampled)
}

/// What one serve-churn server saw: its window's operations and update
/// order, and responses known to have run on its epoch 0.
#[derive(Default)]
struct ChurnRound {
    ops: Vec<ChurnOp>,
    order: Vec<usize>,
    at_start: Vec<Response>,
}

pub fn serve_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let mut out = Outcome::new();
    let dir = ctx.data_dir("churn");
    let mut base: Option<CsrGraph> = None;
    let mut rounds: Vec<ChurnRound> = Vec::new();
    // First responses after restarts: they ran on the last round's final
    // state with the log tail on top.
    let mut recovered: Vec<Response> = Vec::new();
    let slice = ctx.seconds / SERVE_SETUPS as f64;
    for round in 0..SERVE_SETUPS {
        out.start_round();
        let started = Event::start();
        let (store, build) = ingest_open(ctx)?;
        out.record_build(&build);
        let csr = tr.time("graph.to_csr", || store.to_csr()).0;
        let _ = std::fs::remove_dir_all(&dir);
        let (durable, _, _) = tr
            .time("store.seed", || {
                Durability::open(&dir, &csr, CONFIG, durability_options())
            })
            .0
            .map_err(err)?;
        let prepared = tr
            .time("core.prepare", || {
                ctx.plan
                    .prepare(&PrepareRequest::new(&*store, &ctx.cluster))
            })
            .0
            .map_err(err)?;
        let mut seen = ChurnRound::default();
        let outcome =
            ConcurrentServer::run_prepared_durable(prepared, concurrent_options(), durable, |h| {
                let warm = ctx.inputs.request(ctx.inputs.requests.len() - 1 - round);
                let rows = h
                    .serve(&query_set(warm))
                    .map(|p| rows_of(&p, warm))
                    .map_err(err);
                out.setup_s.push(started.finish());
                seen.at_start.push(rows);
                let (ops, order, window_s, mut sampled) =
                    churn_window(ctx, h, slice, ctx.inputs.updates.len() - CHURN_TAIL);
                out.window_s += window_s;
                out.window_ops += ops.len() as u64;
                for (end, op) in ops {
                    let (secs, rows, update) = match &op {
                        ChurnOp::Read { secs, rows, .. } => {
                            let n = rows.as_ref().map_or(0, |r| r.len() as u64);
                            out.predict_s.push(*secs);
                            out.rows += n;
                            (*secs, n, false)
                        }
                        ChurnOp::Update { secs, ok } => {
                            out.tally.record(*ok, "concurrent apply_update");
                            out.update_s.push(*secs);
                            (*secs, 0, true)
                        }
                    };
                    sampled.ops.push(TimedOp {
                        end,
                        secs,
                        rows,
                        update,
                    });
                    seen.ops.push(op);
                }
                seen.order = order;
                out.windows.push(sampled);
            })
            .map_err(err)?;
        rounds.push(seen);
        if round + 1 == SERVE_SETUPS {
            out.layers.set(
                "concurrent.coalescing_factor",
                outcome.stats.coalescing_factor(),
                Some(outcome.stats.requests),
            );
            if let Some(d) = &outcome.stats.durability {
                probes::note_durability(&mut out.layers, d);
            }
            base = Some(csr);
            // Checkpoint, then log a fixed tail: every restart replays the
            // same frames whatever the window reached. Dropping the store
            // after that, without a checkpoint, is the crash.
            let mut durable = outcome.durability.ok_or("durable run returned no store")?;
            durable.checkpoint().map_err(err)?;
            for d in &ctx.inputs.updates[ctx.inputs.updates.len() - CHURN_TAIL..] {
                durable.record(d).map_err(err)?;
            }
        }
        out.end_round()?;
    }
    let base = base.ok_or("no set-up completed")?;

    let mut replayed = 0usize;
    for r in 0..SERVE_RESTARTS {
        let started = Event::start();
        let (durable, state, report) = tr
            .time("store.recover_open", || {
                Durability::open(&dir, &base, CONFIG, durability_options())
            })
            .0
            .map_err(err)?;
        let state = state.ok_or("restart found no prior state")?;
        let graph = state.graph;
        let mut prepared = tr
            .time("core.prepare", || {
                ctx.plan.prepare(&PrepareRequest::new(&graph, &ctx.cluster))
            })
            .0
            .map_err(err)?;
        tr.time("store.replay", || {
            state
                .replay
                .iter()
                .try_for_each(|d| prepared.apply_delta(d).map(drop))
        })
        .0
        .map_err(err)?;
        replayed = report.frames_replayed;
        let q = ctx
            .inputs
            .request(ctx.inputs.requests.len() - 1 - SERVE_SETUPS - r);
        ConcurrentServer::run_prepared_durable(prepared, concurrent_options(), durable, |h| {
            let rows = h.serve(&query_set(q)).map(|p| rows_of(&p, q)).map_err(err);
            out.recover_s.push(started.finish());
            recovered.push(rows);
        })
        .map_err(err)?;
    }
    out.layers.set(
        "store.frames_replayed",
        replayed as f64,
        Some(SERVE_RESTARTS),
    );
    if tr.is_on() {
        probes::run(ctx, &mut out)?;
    }

    tr.time("bench.oracle", || -> Result<(), String> {
        let csr = ctx.oracle_graph();
        let last = rounds.len() - 1;
        for (i, round) in rounds.iter().enumerate() {
            let tail = (i == last).then_some(&recovered[..]);
            check_churn_round(ctx, &csr, round, tail, &mut out)?;
        }
        Ok(())
    })
    .0?;
    Ok(out)
}

/// Replays one serve-churn round on a sequential [`Server`]: epoch 0 is
/// the base graph and epoch `e` has `order[..e]` applied. A read passes
/// if it matches the oracle on some epoch it could have run on. With
/// `tail`, the log tail goes on top and those responses are checked
/// there, as a server that never crashed would answer.
fn check_churn_round(
    ctx: &Ctx,
    csr: &CsrGraph,
    round: &ChurnRound,
    tail: Option<&[Response]>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut server = Server::new(&ctx.plan, csr, &ctx.cluster).map_err(err)?;
    let epochs = round.order.len();
    let recovered = epochs + 1;
    let mut needed: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); recovered + 1];
    for op in &round.ops {
        if let ChurnOp::Read {
            first,
            last,
            rows: Ok(rows),
            ..
        } = op
        {
            let epochs_seen = *first as usize..=(*last as usize).min(epochs);
            for set in &mut needed[epochs_seen] {
                set.extend(rows.iter().map(|r| r.0));
            }
        }
    }
    for rows in round.at_start.iter().flatten() {
        needed[0].extend(rows.iter().map(|r| r.0));
    }
    for rows in tail.into_iter().flatten().flatten() {
        needed[recovered].extend(rows.iter().map(|r| r.0));
    }
    // Recall needs every row of the base graph; one round serves it whole.
    if tail.is_some() {
        needed[0] = (0..ctx.inputs.num_vertices as u32).collect();
    }
    let tail_updates = &ctx.inputs.updates[ctx.inputs.updates.len() - CHURN_TAIL..];
    let mut at: Vec<HashMap<u32, Vec<(u32, f32)>>> = Vec::with_capacity(recovered + 1);
    for (e, want) in needed.iter().enumerate() {
        if e == recovered && tail.is_none() {
            break;
        }
        let deltas = match e {
            0 => &[][..],
            e if e == recovered => tail_updates,
            e => std::slice::from_ref(&ctx.inputs.updates[round.order[e - 1]]),
        };
        for d in deltas {
            server.apply_update(d).map_err(err)?;
        }
        let want: Vec<u32> = want.iter().copied().collect();
        let mut rows = HashMap::new();
        if !want.is_empty() {
            let p = server.serve(&query_set(&want)).map_err(err)?;
            rows.extend(rows_of(&p, &want));
        }
        at.push(rows);
    }
    let matches = |rows: &[Row], e: usize| rows_match(rows, |q| at[e].get(&q).map(Vec::as_slice));
    for op in &round.ops {
        if let ChurnOp::Read {
            first, last, rows, ..
        } = op
        {
            let ok = rows.as_ref().is_ok_and(|rows| {
                (*first as usize..=(*last as usize).min(epochs)).any(|e| matches(rows, e))
            });
            out.tally.record(
                ok,
                "served rows match no epoch the request could have run on",
            );
        }
    }
    for rows in &round.at_start {
        let ok = rows.as_ref().is_ok_and(|rows| matches(rows, 0));
        out.tally
            .record(ok, "warm-up rows differ from the sequential Server");
    }
    if let Some(tail) = tail {
        for rows in tail {
            let ok = rows.as_ref().is_ok_and(|rows| matches(rows, recovered));
            out.tally.record(
                ok,
                "rows after a restart differ from a server that never crashed",
            );
        }
        for (held, v) in ctx.inputs.held.iter().zip(0u32..) {
            out.recall
                .add(held, at[0].get(&v).map_or(&[][..], Vec::as_slice));
        }
    }
    Ok(())
}
