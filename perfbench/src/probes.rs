//! Layer probes of the traced run: where a runtime hides a step, call
//! that layer directly on the same seeded inputs, with a span around
//! each public entry point.
//!
//! Probes cover every layer on every workload, so each traced run
//! reports the whole per-layer table; a workload's own window supplies
//! the spans of the layers it exercises under load.

use std::hint::black_box;
use std::time::Instant;

use snaple_core::shard::wire::{read_frame, Reply, Request, WireRow};
use snaple_core::shard::ShardRouter;
use snaple_core::{
    ConcurrentServer, ExecuteRequest, Predictor, PrepareRequest, PreparedPredictor, QuerySet,
    Server,
};
use snaple_gas::Deployment;
use snaple_graph::{io, GraphStore, VertexId};
use snaple_store::{Durability, DurabilityStats};

use crate::report::Report;
use crate::workloads::{
    churn_window, concurrent_options, durability_options, err, open, pass, query_set,
    shard_options, Ctx, Outcome, CONFIG,
};

/// Point and floor executes, server-versus-bare pairs and routed
/// requests per probe.
const REQUESTS: usize = 16;
/// Updates in the decomposed-update and deployment probes.
const UPDATES: usize = 8;
/// Encode/decode repetitions per wire sample.
const WIRE_REPS: u32 = 2000;

pub fn note_durability(layers: &mut Report, d: &DurabilityStats) {
    let deltas = d.logged_deltas.max(1) as f64;
    layers.set(
        "store.fsyncs_per_update",
        d.fsyncs as f64 / deltas,
        Some(d.logged_deltas),
    );
    layers.set(
        "store.log_bytes_per_update",
        d.logged_bytes as f64 / deltas,
        Some(d.logged_deltas),
    );
    layers.set(
        "store.checkpoint_ms",
        d.snapshot_wall_seconds * 1e3 / d.snapshots_written.max(1) as f64,
        Some(d.snapshots_written),
    );
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    ctx.tracer
        .time("bench.probes", || -> Result<(), String> {
            let store = open(ctx, &ctx.graph_path())?;
            let store: &dyn GraphStore = &*store;
            graph_and_gas(ctx, store, out)?;
            core(ctx, store, out)?;
            decomposed_update(ctx, store, out)?;
            if ctx.workload != "serve-churn" {
                concurrent(ctx, store, out)?;
            }
            shard(ctx, store, out)?;
            if ctx.workload != "batch-all" {
                let prepared = ctx
                    .plan
                    .prepare_plan(&PrepareRequest::new(store, &ctx.cluster))
                    .map_err(err)?;
                pass(ctx, &prepared).0?;
            }
            Ok(())
        })
        .0
}

fn graph_and_gas(ctx: &Ctx, store: &dyn GraphStore, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let updates = &ctx.inputs.updates[..UPDATES];
    let base = tr.time("graph.to_csr", || store.to_csr()).0;
    for d in &updates[..3] {
        black_box(tr.time("graph.compact", || base.compact(d)).0);
    }
    drop(base);

    let config = ctx.plan.config();
    let deploy = || Deployment::new(store, ctx.cluster.clone(), config.partition, config.seed);
    black_box(tr.time("gas.deploy", deploy).0.map_err(err)?);
    let mut dep = tr.time("gas.deploy", deploy).0.map_err(err)?;
    let mut touched = 0usize;
    for (i, d) in updates.iter().enumerate() {
        let name = if i == 0 {
            "gas.apply_delta_first"
        } else {
            "gas.apply_delta"
        };
        touched += tr
            .time(name, || dep.apply_delta(d))
            .0
            .map_err(err)?
            .touched_partitions;
    }
    out.layers.set(
        "gas.delta_touched_partitions",
        touched as f64 / updates.len() as f64,
        Some(updates.len()),
    );
    for _ in 0..3 {
        black_box(tr.time("gas.detach", || dep.detach()).0);
    }
    Ok(())
}

fn core(ctx: &Ctx, store: &dyn GraphStore, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let prepared = tr
        .time("core.prepare", || {
            ctx.plan
                .prepare_plan(&PrepareRequest::new(store, &ctx.cluster))
                .map_err(err)
        })
        .0?;
    let empty = QuerySet::new(std::iter::empty());
    for i in 0..REQUESTS {
        let one = query_set(&ctx.inputs.request(i)[..1]);
        tr.time("core.execute_point", || {
            PreparedPredictor::execute(&prepared, &ExecuteRequest::new().with_queries(&one))
        })
        .0
        .map_err(err)?;
        tr.time("core.execute_floor", || {
            PreparedPredictor::execute(&prepared, &ExecuteRequest::new().with_queries(&empty))
        })
        .0
        .map_err(err)?;
    }

    let mut server = Server::new(&ctx.plan, store, &ctx.cluster).map_err(err)?;
    let (mut ops, mut bytes, mut rows, mut sim, mut wall) = (0u64, 0u64, 0usize, 0.0, 0.0);
    for i in 0..REQUESTS {
        let qs = query_set(ctx.inputs.request(i));
        let (p, secs) = tr.time("core.execute_bare", || {
            PreparedPredictor::execute(&prepared, &ExecuteRequest::new().with_queries(&qs))
        });
        let p = p.map_err(err)?;
        tr.time("core.server_serve", || server.serve(&qs))
            .0
            .map_err(err)?;
        ops += p.stats.total_work_ops();
        bytes += p.stats.total_network_bytes();
        sim += p.stats.simulated_seconds();
        rows += qs.len();
        wall += secs;
    }
    // batch-all reads these from its own all-vertices passes.
    if ctx.workload != "batch-all" {
        let rows = rows.max(1) as f64;
        out.layers
            .set("gas.work_ops_per_row", ops as f64 / rows, Some(REQUESTS));
        out.layers.set(
            "gas.network_bytes_per_row",
            bytes as f64 / rows,
            Some(REQUESTS),
        );
        out.layers
            .set("gas.sim_over_wall", sim / wall, Some(REQUESTS));
        out.layers.set(
            "gas.replication_factor",
            prepared.setup().replication_factor,
            Some(1),
        );
    }
    Ok(())
}

/// An update split at its public seams: log it, fork the prepared state
/// with it, swap the fork in. Then drop the store and recover.
fn decomposed_update(ctx: &Ctx, store: &dyn GraphStore, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let dir = ctx.data_dir("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let base = store.to_csr();
    // A short cadence, so that the probe's few updates checkpoint too and
    // still leave a log tail for the recovery to replay.
    let opts = durability_options().snapshot_every(UPDATES * 2 / 3);
    let (mut durable, _, _) = tr
        .time("store.seed", || {
            Durability::open(&dir, &base, CONFIG, opts.clone())
        })
        .0
        .map_err(err)?;
    let mut current = ctx
        .plan
        .prepare(&PrepareRequest::new(store, &ctx.cluster))
        .map_err(err)?;
    for d in &ctx.inputs.updates[..UPDATES] {
        tr.time("bench.update", || -> Result<(), String> {
            tr.time("store.record", || durable.record(d))
                .0
                .map_err(err)?;
            let (fork, _) = tr
                .time("core.fork", || current.fork_with_delta(d))
                .0
                .map_err(err)?;
            current = fork;
            Ok(())
        })
        .0?;
    }
    if out.layers.get("store.fsyncs_per_update").is_none() {
        note_durability(&mut out.layers, durable.stats());
    }
    drop(current);
    drop(durable);
    if ctx.workload == "serve-churn" {
        // Its restarts already measured recovery under the real cadence.
        return Ok(());
    }
    let (_durable, recovered, report) = tr
        .time("store.recover_open", || {
            Durability::open(&dir, &base, CONFIG, opts)
        })
        .0
        .map_err(err)?;
    let state = recovered.ok_or("probe recovery found no prior state")?;
    let mut prepared = ctx
        .plan
        .prepare(&PrepareRequest::new(&state.graph, &ctx.cluster))
        .map_err(err)?;
    tr.time("store.replay", || {
        state
            .replay
            .iter()
            .try_for_each(|d| prepared.apply_delta(d).map(drop))
    })
    .0
    .map_err(err)?;
    out.layers.set(
        "store.frames_replayed",
        report.frames_replayed as f64,
        Some(1),
    );
    Ok(())
}

/// A short serve-churn stream for workloads whose window has no
/// concurrent server.
fn concurrent(ctx: &Ctx, store: &dyn GraphStore, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.data_dir("mini");
    let _ = std::fs::remove_dir_all(&dir);
    let base = store.to_csr();
    let (durable, _, _) =
        Durability::open(&dir, &base, CONFIG, durability_options()).map_err(err)?;
    let prepared = ctx
        .plan
        .prepare(&PrepareRequest::new(store, &ctx.cluster))
        .map_err(err)?;
    let outcome =
        ConcurrentServer::run_prepared_durable(prepared, concurrent_options(), durable, |h| {
            churn_window(ctx, h, ctx.seconds, UPDATES);
        })
        .map_err(err)?;
    out.layers.set(
        "concurrent.coalescing_factor",
        outcome.stats.coalescing_factor(),
        Some(outcome.stats.requests),
    );
    Ok(())
}

fn shard(ctx: &Ctx, store: &dyn GraphStore, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let blob = tr
        .time("shard.blob_encode", || {
            let mut blob = Vec::new();
            io::write_binary(store, &mut blob).map(|()| blob)
        })
        .0
        .map_err(err)?;
    out.layers.set(
        "shard.blob_mb",
        blob.len() as f64 / (1 << 20) as f64,
        Some(1),
    );
    drop(blob);

    let prepared = ctx
        .plan
        .prepare_plan(&PrepareRequest::new(store, &ctx.cluster))
        .map_err(err)?;
    let call = Instant::now();
    ShardRouter::run(
        &ctx.shard_spec(),
        store,
        &ctx.cluster,
        shard_options(),
        |h| {
            tr.record_interval("shard.standup", call, Instant::now());
            for i in 0..REQUESTS {
                let qs = query_set(ctx.inputs.request(i));
                tr.time("shard.route_probe", || h.serve(&qs))
                    .0
                    .map_err(err)?;
                tr.time("core.execute_inproc", || {
                    PreparedPredictor::execute(&prepared, &ExecuteRequest::new().with_queries(&qs))
                })
                .0
                .map_err(err)?;
            }
            Ok::<(), String>(())
        },
    )
    .map_err(err)?
    .value?;

    // A representative Predict request and its Rows reply.
    let q = (0..ctx.inputs.requests.len())
        .map(|i| ctx.inputs.request(i))
        .find(|q| q.len() == 4)
        .unwrap_or(ctx.inputs.request(0));
    let p = PreparedPredictor::execute(
        &prepared,
        &ExecuteRequest::new().with_queries(&query_set(q)),
    )
    .map_err(err)?;
    let rows: Vec<WireRow> = q
        .iter()
        .map(|&v| {
            let row = p.for_vertex(VertexId::new(v));
            (v, row.iter().map(|&(z, s)| (z.as_u32(), s)).collect())
        })
        .collect();
    let request = Request::Predict {
        request_id: 1,
        queries: q.to_vec(),
    };
    let reply = Reply::Rows {
        request_id: 1,
        num_vertices: store.num_vertices() as u64,
        rows,
        stats: p.stats.clone(),
    };
    let (frames, encode_s) = tr.time("shard.wire_encode", || {
        for _ in 1..WIRE_REPS {
            black_box(request.encode().map_err(err)?);
            black_box(reply.encode().map_err(err)?);
        }
        Ok::<_, String>((request.encode().map_err(err)?, reply.encode().map_err(err)?))
    });
    let (request_frame, reply_frame) = frames?;
    let (decoded, decode_s) = tr.time("shard.wire_decode", || {
        let mut payload = Vec::new();
        for _ in 0..WIRE_REPS {
            let tag = read_frame(&mut request_frame.as_slice(), &mut payload).map_err(err)?;
            black_box(Request::decode(tag, &payload).map_err(err)?);
            let tag = read_frame(&mut reply_frame.as_slice(), &mut payload).map_err(err)?;
            black_box(Reply::decode(tag, &payload).map_err(err)?);
        }
        Ok::<(), String>(())
    });
    decoded?;
    let reps = f64::from(WIRE_REPS);
    out.layers.set(
        "shard.wire_encode_us",
        encode_s * 1e6 / reps,
        Some(WIRE_REPS as usize),
    );
    out.layers.set(
        "shard.wire_decode_us",
        decode_s * 1e6 / reps,
        Some(WIRE_REPS as usize),
    );
    out.layers
        .set("shard.reply_bytes", reply_frame.len() as f64, Some(1));
    Ok(())
}
