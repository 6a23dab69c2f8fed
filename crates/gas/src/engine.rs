//! The GAS superstep executor.

use std::thread;

use snaple_graph::hash::hash2;
use snaple_graph::{store, GraphStore, RankedMask, VertexId, VertexMask};

use crate::cluster::{ClusterSpec, NodeId};
use crate::deploy::Deployment;
use crate::error::EngineError;
use crate::partition::{gather_runs, PartitionedGraph};
use crate::program::{GasStep, GatherCtx, NeighborStates, RunBudget, WorkTally};
use crate::scratch::WorkerScratch;
use crate::size::SizeEstimate;
use crate::stats::{NodeStats, RunStats, StepStats};

/// Framing overhead charged per partial-gather message (vertex id + length).
const MESSAGE_OVERHEAD: u64 = 8;

/// Masked steps whose active gatherers hold fewer edges than this gather
/// and apply on the calling thread, as one gatherer range. Spawning a
/// `thread::scope` pool costs ≈25 µs per thread (≈60 µs for two, measured
/// on a 2-core x86-64 VM), while the cheapest gather — the neighborhood
/// step's — takes ≈15–30 ns per edge, so below a few thousand edges a
/// split into gatherer ranges cannot repay its pool.
const INLINE_ACTIVE_EDGES: usize = 4096;

/// Out-edges per gatherer block of a step declared
/// [`GasStep::apply_disjoint_from_gather`]: the host holds one block's
/// accumulators at a time, not the graph's. Each block is split into one
/// contiguous gatherer range per host worker, and each worker gathers and
/// folds its gatherers one at a time (gatherer-major), so only finished
/// accumulators wait for the block's apply. Swept with the batch-all
/// benchmark when partials still queued per partition (emulated
/// gowalla@0.25, 442k edges, the four-column plan, 2-core x86-64 VM, two
/// runs each): peak RSS was 82–87 MB at 8k-edge blocks, 102–106 MB at 32k
/// and 163–197 MB at 128k, against 402–408 MB unblocked; pass times
/// (1.6–1.9 s) did not separate beyond noise. A block costs one gather
/// and one apply pool spawn.
const BLOCK_EDGES: usize = 8192;

/// The host's available hardware parallelism, with a conservative
/// fallback of 2 when the platform cannot report it — the one worker-count
/// policy shared by the engine's phase pools and the serving layers above.
pub fn host_parallelism() -> usize {
    thread::available_parallelism().map_or(2, |p| p.get())
}

/// Executes GAS programs over a partitioned graph on a simulated cluster.
///
/// The immutable heavy state (partition, cost model) lives in a prepared
/// [`Deployment`] that the engine borrows; per-run accounting
/// ([`RunStats`], the step counter, injected failures) lives here, so
/// repeated runs over the same graph/cluster reuse the O(edges) partition
/// instead of re-hashing every edge.
///
/// See the [crate docs](crate) for the execution and accounting model and a
/// complete example.
#[derive(Debug)]
pub struct Engine<'d> {
    deployment: &'d Deployment<'d>,
    run: RunStats,
    seed: u64,
    step_counter: usize,
    injected_failure: Option<(NodeId, usize)>,
    /// Host-thread cap of the gather and apply phases (`None`: the
    /// host's parallelism).
    workers: Option<usize>,
    /// One scratch slot per gather worker, kept across supersteps so the
    /// hot path reuses its run and stripe buffers instead of
    /// re-allocating them per gatherer.
    worker_scratch: Vec<WorkerScratch>,
}

impl<'d> Engine<'d> {
    /// Creates an engine running on a prepared [`Deployment`] — the
    /// *execute* half of prepare-once/execute-many serving.
    ///
    /// The engine inherits the deployment's seed for per-step randomness
    /// (override with [`Engine::with_seed`]) and its delta-apply counters;
    /// its [`RunStats`] report a partition build time of zero, since the
    /// partition was paid for when the deployment was built.
    pub fn on(deployment: &'d Deployment<'d>) -> Self {
        Engine {
            deployment,
            run: RunStats {
                steps: Vec::new(),
                replication_factor: deployment.replication_factor(),
                partition_build_seconds: 0.0,
                delta_apply_seconds: deployment.delta_apply_seconds(),
                delta_touched_partitions: deployment.delta_touched_partitions(),
            },
            seed: deployment.seed(),
            step_counter: 0,
            injected_failure: None,
            workers: None,
            worker_scratch: Vec::new(),
        }
    }

    /// Overrides the seed driving per-step randomness (partition placement
    /// is fixed by the deployment and unaffected).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of OS threads each phase of a step uses — the
    /// gather pool and the apply pool alike (default: the host's
    /// `available_parallelism`).
    ///
    /// Gatherer ranges (gather and fold) and vertex ranges (apply) are
    /// *chunked* across the workers, so any cap produces bit-identical
    /// results and byte-identical cost accounting: each gatherer's
    /// partials fold in node order on whichever thread owns it, and every
    /// per-node counter is an integer sum over the ranges. Exposed for
    /// tests and benchmarks that pin host parallelism; a 64-partition
    /// cluster never spawns 64 threads on a 4-core host either way.
    pub fn with_gather_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The deployment this engine runs on.
    pub fn deployment(&self) -> &Deployment<'d> {
        self.deployment
    }

    /// The graph this engine executes over — the deployment's *current*
    /// graph, reflecting any deltas applied before this engine was made.
    pub fn graph(&self) -> &dyn GraphStore {
        self.deployment.graph()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        self.deployment.cluster()
    }

    /// The vertex-cut partition.
    pub fn partitioned(&self) -> &PartitionedGraph {
        self.deployment.partitioned()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.run
    }

    /// Consumes the engine, returning its accumulated statistics.
    pub fn into_stats(self) -> RunStats {
        self.run
    }

    /// Simulated seconds accumulated so far.
    pub fn simulated_seconds(&self) -> f64 {
        self.run.simulated_seconds()
    }

    /// Arranges for `node` to fail when step number `at_step` (0-based,
    /// counted across `run_step` calls) starts, for fault-injection tests.
    pub fn inject_failure(&mut self, node: NodeId, at_step: usize) {
        self.injected_failure = Some((node, at_step));
    }

    /// Runs one GAS superstep of `step` over `state`.
    ///
    /// `state[i]` is the program state of vertex `i`; it is read during the
    /// gather phase and rewritten by `apply` at the end of the step.
    ///
    /// The step runs **gatherer-major**: each host worker owns a contiguous
    /// range of gatherers and, for each gatherer, walks its edge run in
    /// every partition in node order, folding each run's partial into the
    /// gatherer's accumulator with [`GasStep::sum`] at once — the fold a
    /// master merging partials in node order performs. Every per-node
    /// counter (calls, work, memory charges, partial traffic) is an
    /// integer sum over the ranges, so results and accounting do not
    /// depend on the worker count.
    ///
    /// A step that declares [`GasStep::apply_disjoint_from_gather`] runs
    /// in **gatherer blocks** of consecutive vertices holding ≈8k
    /// out-edges each: gather and fold → apply once per block, so the
    /// host holds one block's accumulators at a time. Broadcast runs once
    /// and each partition's budget carries across blocks, so results and
    /// every counter equal the single-block step's. The *simulated*
    /// per-node memory still charges every partial a node gathers over
    /// the whole step, as a real deployment holding them at once would.
    /// Other steps run as one block.
    ///
    /// # Errors
    ///
    /// * [`EngineError::InvalidConfig`] if `state` does not match the graph.
    /// * [`EngineError::ResourceExhausted`] if any simulated node exceeds
    ///   its memory capacity while holding replicas and gather partials.
    ///   The error names the lowest-numbered failing partition with the
    ///   `required` bytes of the charge that first crossed its capacity,
    ///   blocked or not and whatever the worker count.
    /// * [`EngineError::NodeFailure`] if a failure was injected at this step.
    ///
    /// After an `Err` the contents of `state` are unspecified: a blocked
    /// step may already have applied the blocks before the failure.
    /// Discard the state.
    pub fn run_step<S: GasStep>(
        &mut self,
        step: &S,
        state: &mut [S::Vertex],
    ) -> Result<&StepStats, EngineError> {
        self.run_step_masked(step, state, None)
    }

    /// Runs one GAS superstep restricted to the *active* vertices of
    /// `mask` (`None` activates every vertex, like [`Engine::run_step`]).
    ///
    /// Only active vertices gather and apply: inactive vertices trigger no
    /// gather calls along their edges, receive no accumulator, and keep
    /// their state untouched. Accounting follows the restriction — only
    /// the state of vertices an active gather can read (the active set
    /// plus its out-neighbors, the *read set*) is charged for broadcast
    /// traffic and replica memory. A full mask is exactly
    /// equivalent to `None`, byte for byte.
    ///
    /// A masked step costs its frontier, not the graph: gather walks only
    /// the active vertices' edge runs (found by galloping through each
    /// partition's gatherer-sorted edge list), broadcast accounting visits
    /// only the read set, accumulators exist per active vertex, and
    /// apply visits only active vertices. What remains proportional to the
    /// graph is a few passes over mask bitset words (`|V| / 64` each:
    /// expanding the read set, listing and ranking the active set). Steps
    /// whose active gatherers hold few edges run on the calling thread
    /// instead of spawning phase pools. The dense `state` slice is still
    /// vertex-long; [`Engine::run_step_sparse`] drops that too.
    ///
    /// This is the engine half of targeted prediction: callers that only
    /// need results for a query subset run each step under a mask covering
    /// the vertices that can still influence those queries. The worker
    /// ranges and a blockable step's blocks are slices of the active list,
    /// cut by edge count (see [`Engine::run_step`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::run_step`] (including the unspecified `state` after an
    /// `Err`), plus [`EngineError::InvalidConfig`] if the mask does not
    /// range over exactly the graph's vertices.
    pub fn run_step_masked<S: GasStep>(
        &mut self,
        step: &S,
        state: &mut [S::Vertex],
        mask: Option<&VertexMask>,
    ) -> Result<&StepStats, EngineError> {
        self.run_step_inner(step, state, None, mask)?;
        self.last_step()
    }

    /// [`Engine::run_step_masked`] over **sparse** state: `state[i]` is the
    /// program state of the `i`-th vertex of `slots` (ascending id order)
    /// and other vertices have no state at all, so a step allocates and
    /// touches nothing vertex-long.
    ///
    /// `slots` must cover the step's read set (`mask` plus its
    /// out-neighbors). A multi-step program whose masks shrink step by
    /// step allocates one slot set — the first step's read set — and runs
    /// every step on it. Results and every accounted
    /// counter are identical to [`Engine::run_step_masked`] over a dense
    /// state whose slotted entries equal `state`.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_step_masked`] (including the unspecified `state`
    /// after an `Err`), plus [`EngineError::InvalidConfig`] if `state` and
    /// `slots` differ in length or `slots` misses part of the read set.
    pub fn run_step_sparse<S: GasStep>(
        &mut self,
        step: &S,
        state: &mut [S::Vertex],
        slots: &RankedMask,
        mask: &VertexMask,
    ) -> Result<&StepStats, EngineError> {
        self.run_step_inner(step, state, Some(slots), Some(mask))?;
        self.last_step()
    }

    fn last_step(&self) -> Result<&StepStats, EngineError> {
        self.run
            .steps
            .last()
            .ok_or_else(|| EngineError::InvalidConfig("step record missing after run".to_string()))
    }

    fn run_step_inner<S: GasStep>(
        &mut self,
        step: &S,
        state: &mut [S::Vertex],
        slots: Option<&RankedMask>,
        mask: Option<&VertexMask>,
    ) -> Result<(), EngineError> {
        let dep = self.deployment;
        let graph = dep.graph();
        let part = dep.partitioned();
        let num_vertices = graph.num_vertices();
        let (state_len, state_what) = match slots {
            None => (num_vertices, "the graph has"),
            Some(s) => (s.len(), "the slots hold"),
        };
        if state.len() != state_len {
            return Err(EngineError::InvalidConfig(format!(
                "state has {} entries but {state_what} {state_len} vertices",
                state.len(),
            )));
        }
        for (what, m) in [("mask", mask), ("slot mask", slots.map(RankedMask::mask))] {
            if let Some(m) = m {
                if m.num_vertices() != num_vertices {
                    return Err(EngineError::InvalidConfig(format!(
                        "{what} ranges over {} vertices but the graph has {num_vertices}",
                        m.num_vertices(),
                    )));
                }
            }
        }
        // Read set of a masked step: active vertices plus the neighbors
        // their gathers read. Only this state needs replicas this step.
        let read_mask: Option<VertexMask> = mask.map(|m| m.expand_out(graph));
        if let (Some(s), Some(r)) = (slots, &read_mask) {
            if !r.is_subset_of(s.mask()) {
                return Err(EngineError::InvalidConfig(format!(
                    "state slots miss part of the read set of step {}",
                    step.name()
                )));
            }
        }
        let step_idx = self.step_counter;
        self.step_counter += 1;
        if let Some((node, at)) = self.injected_failure {
            if at == step_idx {
                return Err(EngineError::NodeFailure {
                    node,
                    step: step.name().to_owned(),
                });
            }
        }

        let nodes = part.num_nodes();
        let cap = dep.cluster().memory_per_node;
        let step_seed = hash2(self.seed, step_idx as u64, 0x57e9);
        // Where each vertex's state lives: `state[v]` (dense) or
        // `state[rank of v among the slots]` (sparse).
        let slot_of = |v: VertexId| match slots {
            None => Some(v.index()),
            Some(s) => s.rank(v),
        };
        let missing_slot = |v: VertexId| {
            EngineError::InvalidConfig(format!(
                "vertex {v} has no state slot in step {}",
                step.name()
            ))
        };

        // --- Broadcast phase: replicate vertex state to mirrors. ---------
        let mut mem_base = vec![0u64; nodes];
        let mut net = vec![0u64; nodes];
        let mut broadcast_total = 0u64;
        // Static CSR share of each node (8 bytes per stored edge), read
        // from the deployment's per-partition cache — maintained
        // incrementally across delta applies instead of recounted here.
        mem_base.copy_from_slice(dep.node_static_bytes());
        let mut replicate = |v: VertexId, sb: u64| {
            let master = part.master(v).index();
            let mut presence = part.presence_mask(v);
            while presence != 0 {
                let n = presence.trailing_zeros() as usize;
                presence &= presence - 1;
                // snaple-lint: allow(index) — n is a presence-mask bit and master a partition id, both < nodes
                mem_base[n] += sb;
                if n != master {
                    // snaple-lint: allow(index) — same bound as mem_base above
                    net[n] += sb;
                    // snaple-lint: allow(index) — same bound as mem_base above
                    net[master] += sb;
                    broadcast_total += sb;
                }
            }
        };
        match &read_mask {
            None => {
                for (v, data) in store::vertices(graph).zip(state.iter()) {
                    replicate(v, data.estimated_bytes());
                }
            }
            Some(read) => {
                for v in read.iter() {
                    let data = slot_of(v)
                        .and_then(|i| state.get(i))
                        .ok_or_else(|| missing_slot(v))?;
                    replicate(v, data.estimated_bytes());
                }
            }
        }
        for (n, &m) in mem_base.iter().enumerate() {
            if m > cap {
                return Err(EngineError::ResourceExhausted {
                    node: NodeId::new(n as u16),
                    required: m,
                    capacity: cap,
                    step: step.name().to_owned(),
                });
            }
        }

        // The active vertices of a masked step, ascending: the degree
        // walk, gather, fold and apply all walk this list, not the mask.
        let active: Option<Vec<VertexId>> = mask.map(|m| m.iter().collect());
        let num_active = active.as_ref().map_or(num_vertices, Vec::len);
        // The `i`-th active vertex, and where its state lives. Both grow
        // with `i`, so contiguous active ranges own disjoint state ranges.
        let vertex_at = |i: usize| match &active {
            None => Some(VertexId::new(i as u32)),
            Some(a) => a.get(i).copied(),
        };
        let slot_at = |i: usize| vertex_at(i).and_then(slot_of);

        // One walk over the active gatherers' degrees decides both whether
        // the step runs on the calling thread (its gatherers hold too few
        // edges to repay spawning a pool) and, for a step declared
        // blockable, where its gatherer blocks end. `cuts` holds the
        // active index each block but the last ends at; an undeclared step
        // has none and runs as one block.
        let degree = |u: VertexId| graph.out_degree(u);
        let blocked = step.apply_disjoint_from_gather();
        let mut cuts: Vec<usize> = Vec::new();
        let mut inline = false;
        if blocked || active.is_some() {
            let mut total_edges = 0usize;
            let mut block_edges = 0usize;
            for (i, u) in (0..num_active).filter_map(vertex_at).enumerate() {
                total_edges += degree(u);
                block_edges += degree(u);
                if !blocked && total_edges >= INLINE_ACTIVE_EDGES {
                    break;
                }
                if blocked && block_edges >= BLOCK_EDGES && i + 1 < num_active {
                    cuts.push(i + 1);
                    block_edges = 0;
                }
            }
            inline = active.is_some() && total_edges < INLINE_ACTIVE_EDGES;
        }
        let worker_cap = if inline {
            1
        } else {
            self.workers.unwrap_or_else(host_parallelism)
        };

        // --- Gather lists: one per non-empty partition. ------------------
        // Only partitions that hold edges gather: on small or skewed graphs
        // many simulated nodes are empty, and walking an empty edge list is
        // pure overhead. Empty nodes keep their base memory as their peak
        // and contribute nothing else. Each list is the partition's
        // `(src,dst)`-sorted edge list, walked in place.
        let lists: Vec<GatherList<'_>> = (0..nodes)
            .map(|node| GatherList {
                node,
                edges: part.node_edges(NodeId::new(node as u16)),
            })
            .filter(|list| !list.edges.is_empty())
            .collect();

        // Gathers and folds the active gatherers `first..last` over `lists`,
        // gatherer-major, on any host thread. For each gatherer it walks
        // the gatherer's run in every list, in list (= node) order, hands
        // each run to the program's `gather_run` and folds the partial into
        // the gatherer's accumulator with `sum` at once: the fold a master
        // merging partials in node order performs. `accs` (when given)
        // receives one accumulator per gatherer. The ledger's budgets start
        // at `l.mem`; a run that overflows flags its list, and the range
        // then gathers only lower lists, which may still fail first.
        let gather_range = |l: &mut Ledger,
                            ws: &mut WorkerScratch,
                            state: &[S::Vertex],
                            lists: &[GatherList<'_>],
                            (first, last): (usize, usize),
                            mut accs: Option<&mut [Accumulator<S::Gather>]>|
         -> Result<(), EngineError> {
            let Some(lo) = vertex_at(first).filter(|_| first < last) else {
                return Ok(());
            };
            let end = vertex_at(last).filter(|_| last < num_active);
            let gatherers: Option<&[VertexId]> = active.as_deref().and_then(|a| a.get(first..last));
            // One cursor per list over the runs of this range's gatherers.
            let mut cursors: Vec<_> = lists
                .iter()
                .map(|list| {
                    let from = list.edges.partition_point(|e| e.0 < lo);
                    let to = end.map_or(list.edges.len(), |end| {
                        list.edges.partition_point(|e| e.0 < end)
                    });
                    let edges = list.edges.get(from..to).unwrap_or_default();
                    gather_runs(edges, gatherers.map(|a| a.iter().copied())).peekable()
                })
                .collect();
            let ctx = GatherCtx::new(graph, step_seed);
            let states = NeighborStates::new(state, slots);
            let WorkerScratch { neighbors, arena } = ws;
            let mut tally = WorkTally::new();
            let mut limit = lists.len();
            for (k, u) in (first..last).filter_map(vertex_at).enumerate() {
                let master = part.master(u).index();
                let mut acc: Accumulator<S::Gather> = None;
                let walk = lists.iter().zip(&mut cursors).zip(&mut l.mem);
                for (li, ((list, runs), mem)) in walk.enumerate().take(limit) {
                    let Some((_, run)) = runs.next_if(|&(v, _)| v == u) else {
                        continue;
                    };
                    let u_data = slot_of(u)
                        .and_then(|s| state.get(s))
                        .ok_or_else(|| missing_slot(u))?;
                    neighbors.clear();
                    neighbors.extend(run.iter().map(|&(_, d)| d));
                    let mut budget =
                        RunBudget::new(&mut l.gather_calls, &mut l.sum_calls, mem, cap);
                    let before = tally.ops();
                    let gathered = step.gather_run(
                        &ctx,
                        u,
                        u_data,
                        neighbors,
                        &states,
                        &mut budget,
                        arena,
                        &mut tally,
                    );
                    add(&mut l.ops, list.node, tally.ops() - before);
                    let (partial, bytes) = match gathered {
                        Ok(Some(partial)) => partial,
                        Ok(None) => continue,
                        Err(overflow) => {
                            l.overflow = Some((li, overflow.required));
                            limit = li;
                            break;
                        }
                    };
                    if master != list.node {
                        let framed = bytes + MESSAGE_OVERHEAD;
                        add(&mut l.net, list.node, framed);
                        add(&mut l.net, master, framed);
                        l.partial_bytes += framed;
                        add(&mut l.master_extra, master, bytes);
                    }
                    acc = Some(match acc.take() {
                        None => (partial, bytes),
                        Some((prev, prev_bytes)) => {
                            l.sum_calls += 1;
                            let before = tally.ops();
                            tally.add(1);
                            let folded = step.sum(prev, partial, &mut tally);
                            add(&mut l.ops, master, tally.ops() - before);
                            (folded, prev_bytes + bytes)
                        }
                    });
                }
                if let Some(slot) = accs.as_deref_mut().and_then(|a| a.get_mut(k)) {
                    *slot = acc;
                }
            }
            Ok(())
        };

        // Splits the active range `start..stop` into at most `worker_cap`
        // contiguous `(first, last)` ranges holding about equal
        // out-edges.
        let worker_ranges = |start: usize, stop: usize| -> Vec<(usize, usize)> {
            let workers = worker_cap.min(stop - start).max(1);
            let mut ranges = Vec::with_capacity(workers);
            let mut first = start;
            if workers > 1 {
                let edges = |i: usize| vertex_at(i).map_or(0, degree);
                let total: usize = (start..stop).map(edges).sum();
                let mut seen = 0usize;
                for i in start..stop {
                    seen += edges(i);
                    let cuts = ranges.len() + 1;
                    if cuts < workers && i + 1 < stop && seen * workers >= total * cuts {
                        ranges.push((first, i + 1));
                        first = i + 1;
                    }
                }
            }
            ranges.push((first, stop));
            ranges
        };

        // --- Apply at masters (parallel over active-vertex ranges). ------
        // Applies the active vertices `first..first + accs.len()`, whose
        // states are `states[slot - base]`.
        let apply_range = |first: usize,
                           accs: &mut [Accumulator<S::Gather>],
                           base: usize,
                           states: &mut [S::Vertex]|
         -> Result<Vec<u64>, EngineError> {
            let ctx = GatherCtx::new(graph, step_seed);
            let mut ops = vec![0u64; nodes];
            let mut tally = WorkTally::new();
            for (i, a) in (first..).zip(accs.iter_mut()) {
                let u = vertex_at(i).unwrap_or_default();
                let data = slot_at(i)
                    .and_then(|s| states.get_mut(s.checked_sub(base)?))
                    .ok_or_else(|| missing_slot(u))?;
                let before = tally.ops();
                tally.add(1);
                step.apply(&ctx, u, data, a.take().map(|(g, _)| g), &mut tally);
                if let Some(o) = ops.get_mut(part.master(u).index()) {
                    *o += tally.ops() - before;
                }
            }
            Ok(ops)
        };

        // Each worker borrows one persistent scratch slot; slots outlive
        // the step, so buffers grown on superstep k are reused on k+1.
        let scratch_pool = &mut self.worker_scratch;
        if scratch_pool.len() < worker_cap {
            scratch_pool.resize_with(worker_cap, WorkerScratch::default);
        }
        let mut node_ops = vec![0u64; nodes];
        // What the step's gathers and folds counted, summed over workers.
        let mut totals = Ledger::new(nodes, Vec::new());
        // Per list: the node's gather memory at the start of the block.
        let mut carried: Vec<u64> = lists
            .iter()
            .map(|list| mem_base.get(list.node).copied().unwrap_or_default())
            .collect();
        // The lowest overflowing list so far, with its `required` bytes.
        let mut failure: Option<(usize, u64)> = None;
        // The block's accumulators, one per active gatherer of the block in
        // ascending id order; reused across blocks.
        let mut acc: Vec<Accumulator<S::Gather>> = Vec::new();

        let starts = std::iter::once(0).chain(cuts.iter().copied());
        let stops = cuts.iter().copied().chain(std::iter::once(num_active));
        for (start, stop) in starts.zip(stops) {
            // Once a list has overflowed, blocks only gather (no apply) the
            // lists below it, which may still fail first. Without a
            // failure a block always runs, so that an edgeless graph still
            // applies every active vertex.
            let below = failure.map_or(lists.len(), |(li, _)| li);
            if failure.is_some() && below == 0 {
                break;
            }
            let gathered = lists.get(..below).unwrap_or_default();
            let ranges = worker_ranges(start, stop);
            let mut ledgers: Vec<Ledger> = ranges
                .iter()
                .map(|_| Ledger::new(nodes, carried.clone()))
                .collect();
            acc.clear();
            acc.resize_with(stop - start, || None);
            // One accumulator chunk per range.
            let mut chunks: Vec<&mut [Accumulator<S::Gather>]> = Vec::with_capacity(ranges.len());
            let mut rest = acc.as_mut_slice();
            for &(first, last) in &ranges {
                let len = (last - first).min(rest.len());
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
                chunks.push(head);
                rest = tail;
            }

            // --- Gather and fold (parallel over gatherer ranges). --------
            let state_ro: &[S::Vertex] = state;
            let results: Vec<Result<(), EngineError>> = match scratch_pool.first_mut() {
                Some(ws) if ranges.len() == 1 => ledgers
                    .iter_mut()
                    .zip(chunks)
                    .zip(&ranges)
                    .map(|((l, chunk), &range)| {
                        gather_range(l, ws, state_ro, gathered, range, Some(chunk))
                    })
                    .collect(),
                _ => thread::scope(|scope| {
                    let gather_range = &gather_range;
                    let handles: Vec<_> = ledgers
                        .iter_mut()
                        .zip(chunks)
                        .zip(&ranges)
                        .zip(scratch_pool.iter_mut())
                        .map(|(((l, chunk), &range), ws)| {
                            scope.spawn(move || {
                                gather_range(l, ws, state_ro, gathered, range, Some(chunk))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                }),
            };
            for r in results {
                r?;
            }

            // --- Overflow: the lowest list whose budget crossed the cap. -
            // A range's budgets started where earlier blocks left each
            // node, not where earlier ranges of this block did, so a range
            // can only flag an overflow its own charges cross. The summed
            // charges find the lowest list that crossed in any range; the
            // range that crossed it is re-gathered on that list alone with
            // the prefix carried in, which finds the exact failing charge.
            let flagged = ledgers
                .iter()
                .filter_map(|l| l.overflow)
                .map(|(li, _)| li)
                .min();
            let grew = |l: &Ledger, li: usize| {
                let base = carried.get(li).copied().unwrap_or_default();
                l.mem.get(li).map_or(0, |&m| m - base)
            };
            let next_carried: Vec<u64> = carried
                .iter()
                .enumerate()
                .map(|(li, &base)| base + ledgers.iter().map(|l| grew(l, li)).sum::<u64>())
                .collect();
            let crossed = next_carried
                .iter()
                .take(flagged.unwrap_or(below))
                .position(|&m| m > cap);
            if let Some(p) = crossed.or(flagged) {
                let mut prefix = carried.get(p).copied().unwrap_or_default();
                let mut required = None;
                for (l, &range) in ledgers.iter().zip(&ranges) {
                    let own = grew(l, p);
                    if l.overflow.is_some_and(|(li, _)| li == p) || prefix + own > cap {
                        let mut probe = Ledger::new(nodes, vec![prefix]);
                        if let (Some(ws), Some(list)) = (scratch_pool.first_mut(), lists.get(p..=p))
                        {
                            gather_range(&mut probe, ws, state, list, range, None)?;
                        }
                        required = probe.overflow.map(|(_, r)| r);
                        break;
                    }
                    prefix += own;
                }
                let required = required.ok_or_else(|| {
                    EngineError::InvalidConfig(format!(
                        "step {} overflowed, but re-gathering did not reproduce it",
                        step.name()
                    ))
                })?;
                failure = Some((p, required));
            }
            carried = next_carried;
            if failure.is_some() {
                continue;
            }
            for l in &ledgers {
                totals.absorb(l);
            }

            // --- Apply phase for the block's active vertices. ------------
            let apply_workers = worker_cap.min(acc.len()).max(1);
            let chunk = acc.len().div_ceil(apply_workers).max(1);
            // Split the state where each range's next range starts, so
            // every worker owns exactly the states of its own active
            // vertices.
            type Range<'r, G, V> = (usize, &'r mut [Accumulator<G>], usize, &'r mut [V]);
            let mut ranges: Vec<Range<'_, S::Gather, S::Vertex>> =
                Vec::with_capacity(apply_workers);
            let mut rest = &mut *state;
            let mut base = 0usize;
            for (ci, accs) in acc.chunks_mut(chunk).enumerate() {
                let first = start + ci * chunk;
                let rest_len = rest.len();
                let split = slot_at(first + accs.len()).map_or(rest_len, |next| next - base);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(split.min(rest_len));
                let head_base = base;
                base += head.len();
                rest = tail;
                ranges.push((first, accs, head_base, head));
            }
            let apply_node_ops: Vec<Result<Vec<u64>, EngineError>> = if ranges.len() <= 1 {
                ranges
                    .into_iter()
                    .map(|(first, accs, base, states)| apply_range(first, accs, base, states))
                    .collect()
            } else {
                thread::scope(|scope| {
                    let apply_range = &apply_range;
                    let handles: Vec<_> = ranges
                        .into_iter()
                        .map(|(first, accs, base, states)| {
                            scope.spawn(move || apply_range(first, accs, base, states))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                })
            };
            for per_worker in apply_node_ops {
                for (total, o) in node_ops.iter_mut().zip(per_worker?) {
                    *total += o;
                }
            }
        }

        if let Some((li, required)) = failure {
            return Err(EngineError::ResourceExhausted {
                node: NodeId::new(lists.get(li).map_or(0, |list| list.node) as u16),
                required,
                capacity: cap,
                step: step.name().to_owned(),
            });
        }
        let mut mem_peaks = mem_base.clone();
        for (list, &mem) in lists.iter().zip(&carried) {
            if let Some(peak) = mem_peaks.get_mut(list.node) {
                *peak = (*peak).max(mem);
            }
        }
        for (total, o) in node_ops.iter_mut().zip(&totals.ops) {
            *total += o;
        }
        for (total, b) in net.iter_mut().zip(&totals.net) {
            *total += b;
        }
        for (n, (peak, (&base, &extra))) in mem_peaks
            .iter_mut()
            .zip(mem_base.iter().zip(&totals.master_extra))
            .enumerate()
        {
            let with_partials = base + extra;
            *peak = (*peak).max(with_partials);
            if with_partials > cap {
                return Err(EngineError::ResourceExhausted {
                    node: NodeId::new(n as u16),
                    required: with_partials,
                    capacity: cap,
                    step: step.name().to_owned(),
                });
            }
        }

        // --- Assemble step statistics. ------------------------------------
        let per_node: Vec<NodeStats> = node_ops
            .iter()
            .zip(&net)
            .zip(&mem_peaks)
            .map(|((&compute_ops, &net_bytes), &memory_peak)| NodeStats {
                compute_ops,
                net_bytes,
                memory_peak,
            })
            .collect();
        let mut stats = StepStats {
            name: step.name().to_owned(),
            gather_calls: totals.gather_calls,
            sum_calls: totals.sum_calls,
            apply_calls: num_active as u64,
            work_ops: node_ops.iter().sum(),
            broadcast_bytes: broadcast_total,
            partial_bytes: totals.partial_bytes,
            per_node,
            simulated_seconds: 0.0,
        };
        stats.simulated_seconds = dep
            .cost()
            .step_seconds(stats.max_node_ops(), stats.max_node_net_bytes());
        self.run.steps.push(stats);
        Ok(())
    }
}

/// A gatherer's folded partials with their accounted bytes (`None`: no
/// edge contributed).
type Accumulator<G> = Option<(G, u64)>;

/// One non-empty partition's edges, sorted by gatherer: the partition's
/// own `(src,dst)`-sorted list.
struct GatherList<'e> {
    node: usize,
    edges: &'e [(VertexId, VertexId)],
}

/// What one host worker's gathers and folds count over its gatherer
/// range. Every field is an integer sum, so adding the ledgers of any
/// split of the gatherers gives the same totals.
struct Ledger {
    gather_calls: u64,
    sum_calls: u64,
    /// Framed bytes of partials sent to a master on another node.
    partial_bytes: u64,
    /// Gather work per node, plus fold work at each gatherer's master.
    ops: Vec<u64>,
    /// Partial traffic per node (sender and master alike).
    net: Vec<u64>,
    /// Bytes of partials each master receives from other nodes.
    master_extra: Vec<u64>,
    /// Per gather list: the node's gather memory, starting from what
    /// earlier blocks charged.
    mem: Vec<u64>,
    /// The lowest list whose budget overflowed in this range, with the
    /// `required` bytes the range's own budget saw.
    overflow: Option<(usize, u64)>,
}

impl Ledger {
    fn new(nodes: usize, mem: Vec<u64>) -> Self {
        Ledger {
            gather_calls: 0,
            sum_calls: 0,
            partial_bytes: 0,
            ops: vec![0; nodes],
            net: vec![0; nodes],
            master_extra: vec![0; nodes],
            mem,
            overflow: None,
        }
    }

    /// Adds another ledger's counters (not its memory) into this one.
    fn absorb(&mut self, other: &Ledger) {
        self.gather_calls += other.gather_calls;
        self.sum_calls += other.sum_calls;
        self.partial_bytes += other.partial_bytes;
        for (mine, theirs) in [
            (&mut self.ops, &other.ops),
            (&mut self.net, &other.net),
            (&mut self.master_extra, &other.master_extra),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }
}

/// `counts[i] += x`, ignoring an out-of-range `i`.
fn add(counts: &mut [u64], i: usize, x: u64) {
    if let Some(c) = counts.get_mut(i) {
        *c += x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snaple_graph::{gen, CsrGraph};

    /// Sums neighbor values along out-edges: new state = Σ_{v ∈ Γ(u)} old(v).
    struct SumNeighbors;
    impl GasStep for SumNeighbors {
        type Vertex = u64;
        type Gather = u64;
        fn name(&self) -> &str {
            "sum-neighbors"
        }
        fn gather(
            &self,
            _: &GatherCtx<'_>,
            _u: VertexId,
            _ud: &u64,
            _v: VertexId,
            vd: &u64,
            _w: &mut WorkTally,
        ) -> Option<u64> {
            Some(*vd)
        }
        fn sum(&self, a: u64, b: u64, _w: &mut WorkTally) -> u64 {
            a + b
        }
        fn apply(
            &self,
            _: &GatherCtx<'_>,
            _u: VertexId,
            data: &mut u64,
            acc: Option<u64>,
            _w: &mut WorkTally,
        ) {
            *data = acc.unwrap_or(0);
        }
    }

    fn ring(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn sum_neighbors_on_a_ring() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            3,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state: Vec<u64> = (0..10).collect();
        engine.run_step(&SumNeighbors, &mut state).unwrap();
        // Each vertex takes its successor's old value.
        let expect: Vec<u64> = (0..10).map(|i| (i + 1) % 10).collect();
        assert_eq!(state, expect);
    }

    #[test]
    fn results_are_identical_across_cluster_sizes() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::erdos_renyi(300, 1_500, &mut rng).into_symmetric_graph();
        let mut reference: Vec<u64> = (0..300).map(|i| i * 17 % 101).collect();
        let one_dep = Deployment::new(
            &g,
            ClusterSpec::type_i(1),
            PartitionStrategy::RandomVertexCut,
            3,
        )
        .unwrap();
        let mut one = Engine::on(&one_dep);
        one.run_step(&SumNeighbors, &mut reference).unwrap();
        for nodes in [2, 8, 32] {
            let mut state: Vec<u64> = (0..300).map(|i| i * 17 % 101).collect();
            let dep = Deployment::new(
                &g,
                ClusterSpec::type_i(nodes),
                PartitionStrategy::GreedyVertexCut,
                99,
            )
            .unwrap();
            let mut engine = Engine::on(&dep);
            engine.run_step(&SumNeighbors, &mut state).unwrap();
            assert_eq!(state, reference, "cluster of {nodes} nodes diverged");
        }
    }

    #[test]
    fn single_node_has_no_network_traffic() {
        let g = ring(20);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(1),
            PartitionStrategy::RandomVertexCut,
            5,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![1u64; 20];
        let stats = engine.run_step(&SumNeighbors, &mut state).unwrap();
        assert_eq!(stats.network_bytes(), 0);
        assert_eq!(stats.gather_calls, 20);
        assert_eq!(stats.apply_calls, 20);
    }

    #[test]
    fn edgeless_graphs_still_apply_every_active_vertex() {
        /// New state = Σ of neighbor values + 1, so an apply with no
        /// accumulator still writes.
        struct SumPlusOne {
            blocked: bool,
        }
        impl GasStep for SumPlusOne {
            type Vertex = u64;
            type Gather = u64;
            fn name(&self) -> &str {
                "sum-plus-one"
            }
            fn apply_disjoint_from_gather(&self) -> bool {
                self.blocked
            }
            fn gather(
                &self,
                _: &GatherCtx<'_>,
                _u: VertexId,
                _ud: &u64,
                _v: VertexId,
                vd: &u64,
                _w: &mut WorkTally,
            ) -> Option<u64> {
                Some(*vd)
            }
            fn sum(&self, a: u64, b: u64, _w: &mut WorkTally) -> u64 {
                a + b
            }
            fn apply(
                &self,
                _: &GatherCtx<'_>,
                _u: VertexId,
                data: &mut u64,
                acc: Option<u64>,
                _w: &mut WorkTally,
            ) {
                *data = acc.unwrap_or(0) + 1;
            }
        }
        let g = CsrGraph::from_edges(5, &[]);
        for nodes in [1, 4] {
            let dep = Deployment::new(
                &g,
                ClusterSpec::type_i(nodes),
                PartitionStrategy::RandomVertexCut,
                1,
            )
            .unwrap();
            for blocked in [false, true] {
                let step = SumPlusOne { blocked };
                let what = format!("{nodes} nodes, blocked {blocked}");
                let mut engine = Engine::on(&dep);
                let mut state = vec![7u64; 5];
                let stats = engine.run_step(&step, &mut state).unwrap();
                assert_eq!(stats.apply_calls, 5, "{what}");
                assert_eq!(stats.gather_calls, 0, "{what}");
                assert_eq!(state, vec![1; 5], "{what}");

                let mut state = vec![7u64; 5];
                let full = VertexMask::full(5);
                let stats = engine
                    .run_step_masked(&step, &mut state, Some(&full))
                    .unwrap();
                assert_eq!(stats.apply_calls, 5, "{what}, full mask");
                assert_eq!(state, vec![1; 5], "{what}, full mask");

                let mut state = vec![7u64; 5];
                let some = VertexMask::from_vertices(5, [VertexId::new(1), VertexId::new(3)]);
                let stats = engine
                    .run_step_masked(&step, &mut state, Some(&some))
                    .unwrap();
                assert_eq!(stats.apply_calls, 2, "{what}, partial mask");
                assert_eq!(state, vec![7, 1, 7, 1, 7], "{what}, partial mask");
            }
        }
    }

    #[test]
    fn multi_node_runs_account_network_traffic() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::erdos_renyi(200, 2_000, &mut rng).into_symmetric_graph();
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            5,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![1u64; 200];
        let stats = engine.run_step(&SumNeighbors, &mut state).unwrap();
        assert!(stats.broadcast_bytes > 0, "mirrors must receive state");
        assert!(stats.partial_bytes > 0, "masters must receive partials");
        assert!(stats.simulated_seconds > 0.0);
        assert!(engine.stats().replication_factor > 1.0);
    }

    #[test]
    fn memory_cap_triggers_resource_exhaustion() {
        let g = ring(100);
        let cluster = ClusterSpec {
            memory_per_node: 64, // bytes! nothing fits
            ..ClusterSpec::type_i(2)
        };
        let dep = Deployment::new(&g, cluster, PartitionStrategy::RandomVertexCut, 1).unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![1u64; 100];
        let err = engine.run_step(&SumNeighbors, &mut state).unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn injected_failures_fire_at_the_right_step() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        engine.inject_failure(NodeId::new(1), 1);
        let mut state = vec![0u64; 10];
        engine.run_step(&SumNeighbors, &mut state).unwrap();
        let err = engine.run_step(&SumNeighbors, &mut state).unwrap_err();
        assert_eq!(
            err,
            EngineError::NodeFailure {
                node: NodeId::new(1),
                step: "sum-neighbors".into()
            }
        );
    }

    #[test]
    fn state_length_mismatch_is_rejected() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![0u64; 9];
        assert!(matches!(
            engine.run_step(&SumNeighbors, &mut state),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    /// Sums out-neighbor values and charges apply-side work, so
    /// apply-phase accounting shows up in per-node ops.
    struct SumAlong;
    impl GasStep for SumAlong {
        type Vertex = u64;
        type Gather = u64;
        fn name(&self) -> &str {
            "sum-along"
        }
        fn gather(
            &self,
            _: &GatherCtx<'_>,
            _u: VertexId,
            _ud: &u64,
            _v: VertexId,
            vd: &u64,
            _w: &mut WorkTally,
        ) -> Option<u64> {
            Some(*vd)
        }
        fn sum(&self, a: u64, b: u64, _w: &mut WorkTally) -> u64 {
            a + b
        }
        fn apply(
            &self,
            _: &GatherCtx<'_>,
            u: VertexId,
            data: &mut u64,
            acc: Option<u64>,
            w: &mut WorkTally,
        ) {
            let a = acc.unwrap_or(0);
            w.add(a % 5 + u.as_u32() as u64 % 3);
            *data = a * 3 + u.as_u32() as u64;
        }
    }

    fn assert_same_step(s: &StepStats, r: &StepStats, what: &str) {
        assert_eq!(s.name, r.name, "{what}");
        assert_eq!(s.gather_calls, r.gather_calls, "{what}");
        assert_eq!(s.sum_calls, r.sum_calls, "{what}");
        assert_eq!(s.apply_calls, r.apply_calls, "{what}");
        assert_eq!(s.work_ops, r.work_ops, "{what}");
        assert_eq!(s.broadcast_bytes, r.broadcast_bytes, "{what}");
        assert_eq!(s.partial_bytes, r.partial_bytes, "{what}");
        assert_eq!(s.per_node, r.per_node, "{what}");
        assert_eq!(
            s.simulated_seconds.to_bits(),
            r.simulated_seconds.to_bits(),
            "{what}"
        );
    }

    #[test]
    fn full_mask_is_bit_identical_to_unmasked() {
        let mut rng = StdRng::seed_from_u64(21);
        let sym = gen::erdos_renyi(250, 2_000, &mut rng).into_symmetric_graph();
        // A directed graph too, whose out-runs differ from its in-runs.
        let edges: Vec<(u32, u32)> = (0..1_500u64)
            .map(|i| ((hash2(3, i, 0) % 250) as u32, (hash2(3, i, 1) % 250) as u32))
            .filter(|(u, v)| u != v)
            .collect();
        let directed = CsrGraph::from_edges(250, &edges);
        for (g, what) in [(&sym, "symmetric"), (&directed, "directed")] {
            let init: Vec<u64> = (0..250).map(|i| i * 31 % 97).collect();
            let mut unmasked = init.clone();
            let dep = Deployment::new(
                g,
                ClusterSpec::type_i(4),
                PartitionStrategy::RandomVertexCut,
                9,
            )
            .unwrap();
            let mut engine = Engine::on(&dep);
            engine.run_step(&SumAlong, &mut unmasked).unwrap();
            let reference = engine.into_stats();

            let mut masked = init;
            let mut engine = Engine::on(&dep);
            let full = VertexMask::full(g.num_vertices());
            engine
                .run_step_masked(&SumAlong, &mut masked, Some(&full))
                .unwrap();
            let stats = engine.into_stats();
            assert_eq!(masked, unmasked, "{what}");
            assert_same_step(&stats.steps[0], &reference.steps[0], what);
            assert_eq!(stats.total_network_bytes(), reference.total_network_bytes());
            assert_eq!(stats.peak_memory(), reference.peak_memory());
        }
    }

    #[test]
    fn sparse_state_matches_dense_masked_runs() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::erdos_renyi(400, 3_000, &mut rng).into_symmetric_graph();
        let deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            4,
        )
        .unwrap();
        let init = |i: u32| i as u64 * 13 % 71;
        for queries in [
            vec![],
            vec![5],
            (0..400).step_by(17).collect(),
            (0..400).collect(),
        ] {
            // Two shrinking steps, like a targeted program: the slots
            // are the first step's read set.
            let inner = VertexMask::from_vertices(400, queries.into_iter().map(VertexId::new));
            let outer = inner.expand_out(&g);
            let slots = RankedMask::new(outer.expand_out(&g));

            let mut dense: Vec<u64> = (0..400).map(init).collect();
            let mut engine = Engine::on(&deployment);
            engine
                .run_step_masked(&SumAlong, &mut dense, Some(&outer))
                .unwrap();
            engine
                .run_step_masked(&SumAlong, &mut dense, Some(&inner))
                .unwrap();
            let reference = engine.into_stats();

            let mut sparse: Vec<u64> = slots.mask().iter().map(|v| init(v.as_u32())).collect();
            let mut engine = Engine::on(&deployment);
            engine
                .run_step_sparse(&SumAlong, &mut sparse, &slots, &outer)
                .unwrap();
            engine
                .run_step_sparse(&SumAlong, &mut sparse, &slots, &inner)
                .unwrap();
            let stats = engine.into_stats();
            for v in slots.mask().iter() {
                assert_eq!(
                    sparse[slots.rank(v).unwrap()],
                    dense[v.index()],
                    "vertex {v}"
                );
            }
            for (s, r) in stats.steps.iter().zip(&reference.steps) {
                assert_same_step(s, r, &format!("|Q|={}", inner.len()));
            }
        }
    }

    #[test]
    fn sparse_slots_must_cover_the_read_set() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        // Vertex 2 gathers from 3, which has no slot.
        let mask = VertexMask::from_vertices(10, [VertexId::new(2)]);
        let slots = RankedMask::new(mask.clone());
        let mut state = vec![0u64; 1];
        assert!(matches!(
            engine.run_step_sparse(&SumNeighbors, &mut state, &slots, &mask),
            Err(EngineError::InvalidConfig(_))
        ));
        let mut state = vec![0u64; 3];
        assert!(matches!(
            engine.run_step_sparse(&SumNeighbors, &mut state, &slots, &mask),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(
            engine.stats().steps.is_empty(),
            "rejected calls run no step"
        );
    }

    #[test]
    fn masked_steps_only_touch_active_vertices() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state: Vec<u64> = (0..10).collect();
        let mask = VertexMask::from_vertices(10, [VertexId::new(2), VertexId::new(7)]);
        let stats = engine
            .run_step_masked(&SumNeighbors, &mut state, Some(&mask))
            .unwrap();
        assert_eq!(stats.gather_calls, 2, "one out-edge per active vertex");
        assert_eq!(stats.apply_calls, 2);
        // Active vertices take their successor's value; others are frozen.
        let expect: Vec<u64> = (0..10u64)
            .map(|i| if i == 2 || i == 7 { i + 1 } else { i })
            .collect();
        assert_eq!(state, expect);
    }

    #[test]
    fn masked_work_drops_below_unmasked() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::erdos_renyi(400, 4_000, &mut rng).into_symmetric_graph();
        let mut full_state = vec![1u64; 400];
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            2,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        engine.run_step(&SumNeighbors, &mut full_state).unwrap();
        let full = engine.into_stats();

        let mask = VertexMask::from_vertices(400, (0..4).map(VertexId::new));
        let mut engine = Engine::on(&dep);
        let mut state = vec![1u64; 400];
        engine
            .run_step_masked(&SumNeighbors, &mut state, Some(&mask))
            .unwrap();
        let masked = engine.into_stats();
        assert!(masked.total_work_ops() < full.total_work_ops());
        assert!(masked.total_network_bytes() < full.total_network_bytes());
    }

    #[test]
    fn mismatched_mask_is_rejected() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![0u64; 10];
        let mask = VertexMask::full(9);
        assert!(matches!(
            engine.run_step_masked(&SumNeighbors, &mut state, Some(&mask)),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn delta_applied_deployments_match_cold_rebuilds_bit_for_bit() {
        use snaple_graph::GraphDelta;
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::erdos_renyi(200, 1_600, &mut rng).into_symmetric_graph();
        let mut deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
        let mut delta = GraphDelta::new();
        let mut removed = 0;
        for (u, v) in g.edges().take(30) {
            delta.remove(u.as_u32(), v.as_u32());
            removed += 1;
        }
        // Insert non-edges only: a pair absent from the base graph cannot
        // collide with the (existing) removed edges under last-wins dedup.
        let mut inserted = 0;
        'insert: for u in 0..200u32 {
            for v in (u + 1)..200 {
                if !g.has_edge(VertexId::new(u), VertexId::new(v)) {
                    delta.insert(u, v);
                    inserted += 1;
                    if inserted == 3 {
                        break 'insert;
                    }
                }
            }
        }
        delta.insert(205, 3); // grows the vertex range
        let stats = deployment.apply_delta(&delta).unwrap();
        assert_eq!(stats.removed_edges, removed);
        assert_eq!(stats.inserted_edges, 4);

        let mutated = deployment.graph().to_csr();
        let mut incremental_state = vec![1u64; mutated.num_vertices()];
        let mut engine = Engine::on(&deployment);
        engine
            .run_step(&SumNeighbors, &mut incremental_state)
            .unwrap();
        let run = engine.into_stats();
        assert_eq!(run.delta_apply_seconds, deployment.delta_apply_seconds());
        assert_eq!(
            run.delta_touched_partitions,
            deployment.delta_touched_partitions()
        );
        assert!(run.delta_apply_seconds > 0.0);

        let mut cold_state = vec![1u64; mutated.num_vertices()];
        let cold_dep = Deployment::new(
            &mutated,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
        let mut cold = Engine::on(&cold_dep);
        cold.run_step(&SumNeighbors, &mut cold_state).unwrap();
        assert_eq!(incremental_state, cold_state);
        assert_eq!(cold.stats().delta_apply_seconds, 0.0);
    }

    #[test]
    fn engine_seed_override_changes_step_seeds_only() {
        let g = ring(12);
        let deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            5,
        )
        .unwrap();
        // SumNeighbors is deterministic, so results must agree under any
        // seed; the partition placement is untouched by construction.
        let mut a = vec![1u64; 12];
        Engine::on(&deployment)
            .run_step(&SumNeighbors, &mut a)
            .unwrap();
        let mut b = vec![1u64; 12];
        Engine::on(&deployment)
            .with_seed(999)
            .run_step(&SumNeighbors, &mut b)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_partitions_still_account_their_static_memory() {
        // 2 edges over 32 nodes: most partitions are empty, so the gather
        // phase spawns at most 2 workers — and the empty nodes must still
        // report their (zero-edge) base memory without skewing stats.
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(32),
            PartitionStrategy::RandomVertexCut,
            2,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![1u64; 4];
        let stats = engine.run_step(&SumNeighbors, &mut state).unwrap();
        assert_eq!(stats.gather_calls, 2);
        assert_eq!(stats.per_node.len(), 32);
        // 0 and 2 take their successor's value; 1 and 3 have no out-edges.
        assert_eq!(state, vec![1, 0, 1, 0]);
    }

    /// [`SumAlong`] that records which host threads ran its applies.
    struct ApplyThreads {
        inner: SumAlong,
        threads: std::sync::Mutex<Vec<thread::ThreadId>>,
    }
    impl GasStep for ApplyThreads {
        type Vertex = u64;
        type Gather = u64;
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn gather(
            &self,
            ctx: &GatherCtx<'_>,
            u: VertexId,
            ud: &u64,
            v: VertexId,
            vd: &u64,
            w: &mut WorkTally,
        ) -> Option<u64> {
            self.inner.gather(ctx, u, ud, v, vd, w)
        }
        fn sum(&self, a: u64, b: u64, w: &mut WorkTally) -> u64 {
            self.inner.sum(a, b, w)
        }
        fn apply(
            &self,
            ctx: &GatherCtx<'_>,
            u: VertexId,
            data: &mut u64,
            acc: Option<u64>,
            w: &mut WorkTally,
        ) {
            let mut threads = self.threads.lock().unwrap();
            let id = thread::current().id();
            if !threads.contains(&id) {
                threads.push(id);
            }
            drop(threads);
            self.inner.apply(ctx, u, data, acc, w);
        }
    }

    #[test]
    fn gather_worker_cap_keeps_results_and_cost_accounting_byte_identical() {
        // Regression for the oversubscription fix: a 64-partition cluster
        // used to spawn one thread per non-empty partition. Partitions are
        // now chunked over a capped worker pool — and because each
        // partition's tallies are computed identically no matter which
        // host thread runs them, every cap must produce bit-identical
        // state and byte-identical simulated-cost accounting. The apply
        // phase obeys the same cap: its state, its ops (charged per vertex
        // by `SumAlong::apply`) and its thread count.
        let mut rng = StdRng::seed_from_u64(17);
        let g = gen::erdos_renyi(400, 6_000, &mut rng).into_symmetric_graph();
        let deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(64),
            PartitionStrategy::RandomVertexCut,
            5,
        )
        .unwrap();
        let init: Vec<u64> = (0..400).map(|i| i * 7 % 53).collect();
        let step = || ApplyThreads {
            inner: SumAlong,
            threads: std::sync::Mutex::new(Vec::new()),
        };

        let mut reference_state = init.clone();
        let mut reference = Engine::on(&deployment);
        reference.run_step(&step(), &mut reference_state).unwrap();
        let reference_stats = reference.into_stats();

        for workers in [1, 3, 8, 200] {
            let mut state = init.clone();
            let counted = step();
            let mut engine = Engine::on(&deployment).with_gather_workers(workers);
            engine.run_step(&counted, &mut state).unwrap();
            let stats = engine.into_stats();
            assert_eq!(state, reference_state, "{workers} workers diverged");
            let (s, r) = (&stats.steps[0], &reference_stats.steps[0]);
            assert_same_step(s, r, &format!("{workers} workers"));
            let apply_threads = counted.threads.lock().unwrap().len();
            assert!(
                apply_threads <= workers,
                "{workers} workers, {apply_threads} apply threads"
            );
        }
    }

    #[test]
    fn gather_worker_cap_surfaces_the_lowest_failing_partition() {
        // Memory exhaustion must name the same node regardless of the cap.
        let g = ring(200);
        let cluster = ClusterSpec {
            memory_per_node: 64,
            ..ClusterSpec::type_i(16)
        };
        let deployment =
            Deployment::new(&g, cluster, PartitionStrategy::RandomVertexCut, 1).unwrap();
        let mut errors = Vec::new();
        for workers in [1, 4, 64] {
            let mut state = vec![1u64; 200];
            let err = Engine::on(&deployment)
                .with_gather_workers(workers)
                .run_step(&SumNeighbors, &mut state)
                .unwrap_err();
            errors.push(err);
        }
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "{errors:?}");
    }

    /// [`SumNeighbors`] with a hand-batched `gather_run` that replays the
    /// budget protocol, exercising the override contract end to end.
    struct BatchedSumNeighbors;
    impl GasStep for BatchedSumNeighbors {
        type Vertex = u64;
        type Gather = u64;
        fn name(&self) -> &str {
            "sum-neighbors"
        }
        fn gather(
            &self,
            _: &GatherCtx<'_>,
            _u: VertexId,
            _ud: &u64,
            _v: VertexId,
            vd: &u64,
            _w: &mut WorkTally,
        ) -> Option<u64> {
            Some(*vd)
        }
        fn sum(&self, a: u64, b: u64, _w: &mut WorkTally) -> u64 {
            a + b
        }
        #[allow(clippy::too_many_arguments)]
        fn gather_run(
            &self,
            _ctx: &GatherCtx<'_>,
            _u: VertexId,
            _u_data: &u64,
            neighbors: &[VertexId],
            states: &crate::program::NeighborStates<'_, u64>,
            budget: &mut crate::program::RunBudget<'_>,
            _scratch: &mut crate::scratch::ScratchArena,
            work: &mut WorkTally,
        ) -> Result<Option<(u64, u64)>, crate::program::GatherOverflow> {
            let mut acc = 0u64;
            let mut bytes = 0u64;
            for (i, &v) in neighbors.iter().enumerate() {
                budget.count_gather();
                work.add(1);
                let item = *states.get(v);
                let b = item.estimated_bytes();
                budget.charge(b)?;
                if i > 0 {
                    budget.count_sum();
                    work.add(1);
                }
                acc += item;
                bytes += b;
            }
            if neighbors.is_empty() {
                Ok(None)
            } else {
                Ok(Some((acc, bytes)))
            }
        }
        fn apply(
            &self,
            _: &GatherCtx<'_>,
            _u: VertexId,
            data: &mut u64,
            acc: Option<u64>,
            _w: &mut WorkTally,
        ) {
            *data = acc.unwrap_or(0);
        }
    }

    #[test]
    fn batched_gather_run_override_is_byte_identical_to_default() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = gen::erdos_renyi(350, 4_000, &mut rng).into_symmetric_graph();
        let deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            7,
        )
        .unwrap();
        let init: Vec<u64> = (0..350).map(|i| i * 19 % 61).collect();
        let mask = VertexMask::from_vertices(350, (0..200).map(|i| VertexId::new(i * 7 % 350)));

        for m in [None, Some(&mask)] {
            let mut reference_state = init.clone();
            let mut reference = Engine::on(&deployment);
            reference
                .run_step_masked(&SumNeighbors, &mut reference_state, m)
                .unwrap();
            let reference_stats = reference.into_stats();

            let mut state = init.clone();
            let mut engine = Engine::on(&deployment);
            engine
                .run_step_masked(&BatchedSumNeighbors, &mut state, m)
                .unwrap();
            let stats = engine.into_stats();
            let masked = m.is_some();
            assert_eq!(state, reference_state, "masked={masked}");
            let (s, r) = (&stats.steps[0], &reference_stats.steps[0]);
            assert_eq!(s.gather_calls, r.gather_calls, "masked={masked}");
            assert_eq!(s.sum_calls, r.sum_calls, "masked={masked}");
            assert_eq!(s.apply_calls, r.apply_calls, "masked={masked}");
            assert_eq!(s.work_ops, r.work_ops, "masked={masked}");
            assert_eq!(s.broadcast_bytes, r.broadcast_bytes, "masked={masked}");
            assert_eq!(s.partial_bytes, r.partial_bytes, "masked={masked}");
            for (n, (sn, rn)) in s.per_node.iter().zip(&r.per_node).enumerate() {
                assert_eq!(sn.compute_ops, rn.compute_ops, "node {n}");
                assert_eq!(sn.net_bytes, rn.net_bytes, "node {n}");
                assert_eq!(sn.memory_peak, rn.memory_peak, "node {n}");
            }
            assert_eq!(s.simulated_seconds, r.simulated_seconds);
        }
    }

    #[test]
    fn batched_override_surfaces_the_same_memory_exhaustion() {
        let g = ring(200);
        let cluster = ClusterSpec {
            memory_per_node: 64,
            ..ClusterSpec::type_i(8)
        };
        let deployment =
            Deployment::new(&g, cluster, PartitionStrategy::RandomVertexCut, 1).unwrap();
        let mut a = vec![1u64; 200];
        let default_err = Engine::on(&deployment)
            .run_step(&SumNeighbors, &mut a)
            .unwrap_err();
        let mut b = vec![1u64; 200];
        let batched_err = Engine::on(&deployment)
            .run_step(&BatchedSumNeighbors, &mut b)
            .unwrap_err();
        assert_eq!(default_err, batched_err);
    }

    /// Accumulator that charges an arbitrary byte size, so a test can make
    /// chosen edges overflow a node's memory.
    struct Charged {
        sum: u64,
        bytes: u64,
    }
    impl SizeEstimate for Charged {
        fn estimated_bytes(&self) -> u64 {
            self.bytes
        }
    }

    /// Gathers the neighbors' input field `.0` and writes only the output
    /// field `.1`: a step that honours the blockable contract, run either
    /// declared (blocked) or undeclared (one block). `heavy` edges charge
    /// `heavy_bytes` instead of 8.
    struct SplitState {
        declared: bool,
        heavy: Vec<(VertexId, VertexId)>,
        heavy_bytes: u64,
    }
    impl GasStep for SplitState {
        type Vertex = (u64, u64);
        type Gather = Charged;
        fn name(&self) -> &str {
            "split-state"
        }
        fn apply_disjoint_from_gather(&self) -> bool {
            self.declared
        }
        fn gather(
            &self,
            _: &GatherCtx<'_>,
            u: VertexId,
            ud: &(u64, u64),
            v: VertexId,
            vd: &(u64, u64),
            w: &mut WorkTally,
        ) -> Option<Charged> {
            w.add(vd.0 % 3);
            let bytes = if self.heavy.contains(&(u, v)) {
                self.heavy_bytes
            } else {
                8
            };
            Some(Charged {
                sum: vd.0 + ud.0 % 7,
                bytes,
            })
        }
        fn sum(&self, a: Charged, b: Charged, _w: &mut WorkTally) -> Charged {
            Charged {
                sum: a.sum + b.sum,
                bytes: a.bytes + b.bytes,
            }
        }
        fn apply(
            &self,
            _: &GatherCtx<'_>,
            u: VertexId,
            data: &mut (u64, u64),
            acc: Option<Charged>,
            w: &mut WorkTally,
        ) {
            let a = acc.map_or(0, |c| c.sum);
            w.add(a % 5 + u.as_u32() as u64 % 3);
            data.1 = a * 3 + u.as_u32() as u64;
        }
    }

    /// A directed graph whose every 20th vertex is a hub of out-degree
    /// 200 (the rest have 4), so both the graph and its hubs alone span
    /// many gatherer blocks.
    fn hub_graph() -> CsrGraph {
        let n = 8_000u64;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| {
                let degree = if u % 20 == 0 { 200 } else { 4 };
                (0..degree).map(move |i| (u as u32, (hash2(u, i, 5) % n) as u32))
            })
            .filter(|(u, v)| u != v)
            .collect();
        CsrGraph::from_edges(n as usize, &edges)
    }

    /// Out-edges of the gatherers below `v`.
    fn edges_before(g: &CsrGraph, v: VertexId) -> usize {
        (0..v.as_u32())
            .map(|u| g.out_degree(VertexId::new(u)))
            .sum()
    }

    #[test]
    fn gatherer_blocks_are_bit_identical_to_one_block() {
        let g = hub_graph();
        let n = g.num_vertices();
        let hubs = VertexMask::from_vertices(n, (0..n as u32).step_by(20).map(VertexId::new));
        let hub_edges: usize = hubs.iter().map(|u| g.out_degree(u)).sum();
        assert!(g.num_edges() >= 8 * BLOCK_EDGES, "{} edges", g.num_edges());
        assert!(hub_edges >= 8 * BLOCK_EDGES, "{hub_edges} hub edges");
        let deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            3,
        )
        .unwrap();
        let init: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 29 % 83, 0)).collect();
        let full = VertexMask::full(n);
        let run = |declared: bool, mask: Option<&VertexMask>| {
            let step = SplitState {
                declared,
                heavy: Vec::new(),
                heavy_bytes: 0,
            };
            let mut state = init.clone();
            let mut engine = Engine::on(&deployment);
            engine.run_step_masked(&step, &mut state, mask).unwrap();
            (state, engine.into_stats())
        };
        for (what, mask) in [
            ("unmasked", None),
            ("5% mask", Some(&hubs)),
            ("full mask", Some(&full)),
        ] {
            let (one_state, one) = run(false, mask);
            let (blocked_state, blocked) = run(true, mask);
            assert_eq!(blocked_state, one_state, "{what}");
            assert_same_step(&blocked.steps[0], &one.steps[0], what);
        }
    }

    #[test]
    fn gatherer_blocks_surface_the_lowest_failing_partition() {
        // The highest partition overflows on an edge of the first block,
        // the lowest one only on an edge of a later block. An unblocked
        // gather reports the lowest failing partition, so must a blocked
        // one — with the `required` bytes of its carried budget.
        let g = hub_graph();
        let n = g.num_vertices();
        let fits = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            3,
        )
        .unwrap();
        let init: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 29 % 83, 0)).collect();
        let mut state = init.clone();
        let light = SplitState {
            declared: false,
            heavy: Vec::new(),
            heavy_bytes: 0,
        };
        let stats = Engine::on(&fits)
            .run_step(&light, &mut state)
            .unwrap()
            .clone();
        let cap = stats.per_node.iter().map(|s| s.memory_peak).max().unwrap() + 1;
        let cluster = ClusterSpec {
            memory_per_node: cap,
            ..ClusterSpec::type_i(8)
        };
        let deployment =
            Deployment::new(&g, cluster, PartitionStrategy::RandomVertexCut, 3).unwrap();
        // Vertex 0 opens the first block whatever the block size; the
        // last vertices lie in a later one.
        let part = deployment.partitioned();
        let edges_of = |p: usize| part.node_edges(NodeId::new(p as u16));
        let low = (0..part.num_nodes())
            .find(|&p| !edges_of(p).is_empty())
            .unwrap();
        let high = (0..part.num_nodes())
            .rev()
            .find(|&p| edges_of(p).first().is_some_and(|e| e.0.index() == 0))
            .unwrap();
        assert!(low < high, "partitions {low} and {high}");
        let early = edges_of(high)[0];
        let late = *edges_of(low).last().unwrap();
        assert!(edges_before(&g, late.0) >= BLOCK_EDGES);

        let mut errors = Vec::new();
        for declared in [false, true] {
            let step = SplitState {
                declared,
                heavy: vec![early, late],
                heavy_bytes: cap,
            };
            let mut state = init.clone();
            errors.push(
                Engine::on(&deployment)
                    .run_step(&step, &mut state)
                    .unwrap_err(),
            );
        }
        assert_eq!(errors[0], errors[1]);
        assert!(
            matches!(&errors[0], EngineError::ResourceExhausted { node, .. } if node.index() == low),
            "{:?}",
            errors[0]
        );
    }

    #[test]
    fn overflow_is_exact_when_its_charges_span_gatherer_ranges() {
        // Node 0 overflows at the edge that brings its gather charges past
        // 3/4 of its edges, which lies in the second half of the gatherers:
        // with 2 or 4 workers the range that crosses the cap did not see
        // the charges of the ranges before it. The error must still name
        // node 0 with the bytes of that very charge, as one worker does.
        let g = hub_graph();
        let n = g.num_vertices();
        let init: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 29 % 83, 0)).collect();
        let deployment_with = |memory_per_node: u64| {
            let cluster = ClusterSpec {
                memory_per_node,
                ..ClusterSpec::type_i(8)
            };
            Deployment::new(&g, cluster, PartitionStrategy::RandomVertexCut, 3).unwrap()
        };
        let run = |dep: &Deployment<'_>, declared: bool, workers: usize| {
            let step = SplitState {
                declared,
                heavy: Vec::new(),
                heavy_bytes: 0,
            };
            let mut state = init.clone();
            Engine::on(dep)
                .with_gather_workers(workers)
                .run_step(&step, &mut state)
                .unwrap_err()
        };
        // A one-byte cap fails the broadcast on node 0 with its base bytes.
        let base = match run(&deployment_with(1), false, 1) {
            EngineError::ResourceExhausted { node, required, .. } if node.index() == 0 => required,
            other => panic!("{other:?}"),
        };
        let deployment = deployment_with(1);
        let node0 = deployment.partitioned().node_edges(NodeId::new(0));
        // Every edge charges 8 bytes, so the `crossing`-th edge of node 0
        // (in gatherer order) is the first past the cap.
        let crossing = node0.len() * 3 / 4;
        let cap = base + 8 * crossing as u64;
        assert!(edges_before(&g, node0[crossing].0) >= g.num_edges() / 2);

        let deployment = deployment_with(cap);
        for declared in [false, true] {
            let one = run(&deployment, declared, 1);
            assert_eq!(
                one,
                EngineError::ResourceExhausted {
                    node: NodeId::new(0),
                    required: cap + 8,
                    capacity: cap,
                    step: "split-state".into(),
                },
                "declared={declared}"
            );
            for workers in [2, 4] {
                assert_eq!(
                    run(&deployment, declared, workers),
                    one,
                    "declared={declared}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_across_steps() {
        let g = ring(10);
        let dep = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut engine = Engine::on(&dep);
        let mut state = vec![1u64; 10];
        engine.run_step(&SumNeighbors, &mut state).unwrap();
        engine.run_step(&SumNeighbors, &mut state).unwrap();
        assert_eq!(engine.stats().steps.len(), 2);
        assert!(engine.simulated_seconds() > 0.0);
        let run = engine.into_stats();
        assert_eq!(run.steps.len(), 2);
    }
}
