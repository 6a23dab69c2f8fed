//! The GAS superstep executor.

use std::thread;

use snaple_graph::hash::hash2;
use snaple_graph::{store, Direction, GraphStore, RankedMask, VertexId, VertexMask};

use crate::cluster::{ClusterSpec, NodeId};
use crate::cost::CostModel;
use crate::deploy::Deployment;
use crate::error::EngineError;
use crate::partition::{gather_runs, PartitionStrategy, PartitionedGraph};
use crate::program::{GasStep, GatherCtx, NeighborStates, RunBudget, WorkTally};
use crate::scratch::WorkerScratch;
use crate::size::SizeEstimate;
use crate::stats::{NodeStats, RunStats, StepStats};

/// Framing overhead charged per partial-gather message (vertex id + length).
const MESSAGE_OVERHEAD: u64 = 8;

/// Masked steps whose active gatherers hold fewer edges than this gather
/// and apply on the calling thread. Spawning a `thread::scope` pool costs
/// ≈25 µs per thread (≈60 µs for two, measured on a 2-core x86-64 VM),
/// while the cheapest gather — the neighborhood step's — takes ≈15–30 ns
/// per edge, so below a few thousand edges a split cannot repay its pool.
const INLINE_ACTIVE_EDGES: usize = 4096;

/// The host's available hardware parallelism, with a conservative
/// fallback of 2 when the platform cannot report it — the one worker-count
/// policy shared by the engine's phase pools and the serving layers above.
pub fn host_parallelism() -> usize {
    thread::available_parallelism().map_or(2, |p| p.get())
}

/// The deployment an engine runs on: built for this engine alone, or
/// borrowed from a prepared, shared [`Deployment`].
#[derive(Debug)]
enum DeploymentRef<'d> {
    /// Boxed: a deployment is several hundred bytes and the shared
    /// variant is one pointer.
    Owned(Box<Deployment<'d>>),
    Shared(&'d Deployment<'d>),
}

impl<'d> DeploymentRef<'d> {
    fn get(&self) -> &Deployment<'d> {
        match self {
            DeploymentRef::Owned(d) => d,
            DeploymentRef::Shared(d) => d,
        }
    }
}

/// Executes GAS programs over a partitioned graph on a simulated cluster.
///
/// The immutable heavy state (partition, cost model) lives in a
/// [`Deployment`]; per-run accounting ([`RunStats`], the step counter,
/// injected failures) lives here. [`Engine::new`] builds a private
/// deployment — the historical one-shot path — while [`Engine::on`] borrows
/// a prepared one, so repeated runs over the same graph/cluster reuse the
/// O(edges) partition instead of re-hashing every edge.
///
/// See the [crate docs](crate) for the execution and accounting model and a
/// complete example.
#[derive(Debug)]
pub struct Engine<'d> {
    deployment: DeploymentRef<'d>,
    cost_override: Option<CostModel>,
    run: RunStats,
    seed: u64,
    step_counter: usize,
    injected_failure: Option<(NodeId, usize)>,
    /// Host-thread cap of the gather and apply phases (`None`: the
    /// host's parallelism).
    workers: Option<usize>,
    /// One scratch slot per gather worker, kept across supersteps so the
    /// hot path reuses its edge/run/stripe buffers instead of
    /// re-allocating them per partition.
    worker_scratch: Vec<WorkerScratch>,
}

impl<'d> Engine<'d> {
    /// Partitions `graph` over `cluster` and prepares an engine owning the
    /// resulting deployment.
    ///
    /// The partition build time is recorded in the run's
    /// [`RunStats::partition_build_seconds`]; engines created with
    /// [`Engine::on`] report zero there because their deployment was
    /// prepared ahead of time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for unusable cluster shapes
    /// (zero nodes, more than [`crate::partition::MAX_NODES`] nodes).
    pub fn new(
        graph: &'d dyn GraphStore,
        cluster: ClusterSpec,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Result<Self, EngineError> {
        let deployment = Deployment::new(graph, cluster, strategy, seed)?;
        let partition_build_seconds = deployment.partition_build_seconds();
        Ok(Engine::assemble(
            DeploymentRef::Owned(Box::new(deployment)),
            partition_build_seconds,
        ))
    }

    /// Creates an engine running on a prepared, shared [`Deployment`] —
    /// the *execute* half of prepare-once/execute-many serving.
    ///
    /// The engine inherits the deployment's seed for per-step randomness
    /// (override with [`Engine::with_seed`]); its [`RunStats`] report a
    /// partition build time of zero since setup was paid at prepare time.
    pub fn on(deployment: &'d Deployment<'d>) -> Self {
        Engine::assemble(DeploymentRef::Shared(deployment), 0.0)
    }

    fn assemble(deployment: DeploymentRef<'d>, partition_build_seconds: f64) -> Self {
        let dep = deployment.get();
        let replication_factor = dep.replication_factor();
        let seed = dep.seed();
        let delta_apply_seconds = dep.delta_apply_seconds();
        let delta_touched_partitions = dep.delta_touched_partitions();
        Engine {
            deployment,
            cost_override: None,
            run: RunStats {
                steps: Vec::new(),
                replication_factor,
                partition_build_seconds,
                delta_apply_seconds,
                delta_touched_partitions,
            },
            seed,
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
    /// Simulated partitions (gather) and vertex ranges (apply) are
    /// *chunked* across the workers, so any cap produces bit-identical
    /// results and byte-identical cost accounting — the per-partition and
    /// per-vertex tallies are computed the same way no matter which host
    /// thread runs them. Exposed for tests and benchmarks that pin host
    /// parallelism; a 64-partition cluster never spawns 64 threads on a
    /// 4-core host either way.
    pub fn with_gather_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The deployment this engine runs on.
    pub fn deployment(&self) -> &Deployment<'d> {
        self.deployment.get()
    }

    /// The graph this engine executes over — the deployment's *current*
    /// graph, reflecting any deltas applied before this engine was made.
    pub fn graph(&self) -> &dyn GraphStore {
        self.deployment.get().graph()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        self.deployment.get().cluster()
    }

    /// The vertex-cut partition.
    pub fn partitioned(&self) -> &PartitionedGraph {
        self.deployment.get().partitioned()
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

    /// Replaces the cost model for this engine's runs (e.g. for
    /// sensitivity analyses); the shared deployment's model is untouched.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost_override = Some(cost);
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
    /// # Errors
    ///
    /// * [`EngineError::InvalidConfig`] if `state` does not match the graph.
    /// * [`EngineError::ResourceExhausted`] if any simulated node exceeds
    ///   its memory capacity while holding replicas and gather partials.
    /// * [`EngineError::NodeFailure`] if a failure was injected at this step.
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
    /// plus its gather-direction frontier, the *read set*) is charged for
    /// broadcast traffic and replica memory. A full mask is exactly
    /// equivalent to `None`, byte for byte.
    ///
    /// A masked step costs its frontier, not the graph: gather walks only
    /// the active vertices' edge runs (found by galloping through each
    /// partition's gatherer-sorted edge list), broadcast accounting visits
    /// only the read set, merge accumulators exist per active vertex, and
    /// apply visits only active vertices. What remains proportional to the
    /// graph is a few passes over mask bitset words (`|V| / 64` each:
    /// expanding the read set, listing and ranking the active set). Steps
    /// whose active gatherers hold few edges run on the calling thread
    /// instead of spawning phase pools. The dense `state` slice is still
    /// vertex-long; [`Engine::run_step_sparse`] drops that too.
    ///
    /// This is the engine half of targeted prediction: callers that only
    /// need results for a query subset run each step under a mask covering
    /// the vertices that can still influence those queries.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_step`], plus [`EngineError::InvalidConfig`] if the
    /// mask does not range over exactly the graph's vertices.
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
    /// gather-direction neighbors). A multi-step program whose masks
    /// shrink step by step allocates one slot set — the first step's read
    /// set — and runs every step on it. Results and every accounted
    /// counter are identical to [`Engine::run_step_masked`] over a dense
    /// state whose slotted entries equal `state`.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_step_masked`], plus
    /// [`EngineError::InvalidConfig`] if `state` and `slots` differ in
    /// length or `slots` misses part of the read set.
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
        let dep = self.deployment.get();
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
        let dir = step.gather_direction();
        // Read set of a masked step: active vertices plus the neighbors
        // their gathers read. Only this state needs replicas this step.
        let read_mask: Option<VertexMask> = mask.map(|m| m.expand(graph, dir));
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

        // The active vertices of a masked step, ascending: gather, apply
        // and the threading decision all walk this list, not the mask.
        let active: Option<Vec<VertexId>> = mask.map(|m| m.iter().collect());
        // Host threads per phase: the worker cap, or just the calling
        // thread when the active gatherers hold too few edges to repay
        // spawning a pool.
        let inline = active.as_ref().is_some_and(|active| {
            let mut active_edges = 0usize;
            active.iter().all(|&u| {
                active_edges += match dir {
                    Direction::Out => graph.out_degree(u),
                    Direction::In => graph.in_degree(u),
                };
                active_edges < INLINE_ACTIVE_EDGES
            })
        });
        let worker_cap = if inline {
            1
        } else {
            self.workers.unwrap_or_else(host_parallelism)
        };

        // --- Gather phase: per-node local gathers (parallel). ------------
        struct NodeGather<G> {
            node: usize,
            partials: Vec<(VertexId, G, u64)>,
            gather_calls: u64,
            sum_calls: u64,
            ops: u64,
            mem_peak: u64,
        }

        let state_ro: &[S::Vertex] = state;
        let mem_base_ref = &mem_base;

        // The whole gather work of one simulated partition, runnable on
        // any host thread: the per-partition tallies depend only on the
        // partition's edge list, so the chunking below cannot change the
        // accounting. Each active gatherer's edges form one contiguous
        // run of the gatherer-sorted list, handed to the program's
        // `gather_run` in one call.
        let gather_node =
            |n: usize, ws: &mut WorkerScratch| -> Result<NodeGather<S::Gather>, EngineError> {
                let ctx = GatherCtx::new(graph, step_seed);
                let node = NodeId::new(n as u16);
                let stored = part.node_edges(node);
                let WorkerScratch {
                    edges: sorted,
                    neighbors,
                    arena,
                } = ws;
                let edges: &[(VertexId, VertexId)] = if dir == Direction::In {
                    sorted.clear();
                    sorted.extend_from_slice(stored);
                    sorted.sort_unstable_by_key(|&(s, d)| (d, s));
                    sorted
                } else {
                    stored
                };
                let states = NeighborStates::new(state_ro, slots);
                let mut tally = WorkTally::new();
                let mut partials: Vec<(VertexId, S::Gather, u64)> = Vec::new();
                let mut gather_calls = 0u64;
                let mut sum_calls = 0u64;
                let mut mem = mem_base_ref.get(n).copied().unwrap_or_default();
                let mut mem_peak = mem;
                let active_gatherers = active.as_deref().map(|a| a.iter().copied());
                for (gatherer, run) in gather_runs(edges, dir, active_gatherers) {
                    neighbors.clear();
                    neighbors.extend(run.iter().map(|&(s, d)| match dir {
                        Direction::Out => d,
                        Direction::In => s,
                    }));
                    let gatherer_data = slot_of(gatherer)
                        .and_then(|i| state_ro.get(i))
                        .ok_or_else(|| missing_slot(gatherer))?;
                    let mut budget = RunBudget::new(
                        &mut gather_calls,
                        &mut sum_calls,
                        &mut mem,
                        &mut mem_peak,
                        cap,
                    );
                    let run = step
                        .gather_run(
                            &ctx,
                            gatherer,
                            gatherer_data,
                            neighbors,
                            &states,
                            &mut budget,
                            arena,
                            &mut tally,
                        )
                        .map_err(|overflow| EngineError::ResourceExhausted {
                            node,
                            required: overflow.required,
                            capacity: cap,
                            step: step.name().to_owned(),
                        })?;
                    if let Some((g, bytes)) = run {
                        partials.push((gatherer, g, bytes));
                    }
                }
                Ok(NodeGather {
                    node: n,
                    partials,
                    gather_calls,
                    sum_calls,
                    ops: tally.ops(),
                    mem_peak,
                })
            };

        // Gather only over partitions that actually hold edges: on small
        // or skewed graphs many simulated nodes are empty, and gathering
        // an empty edge list is pure overhead. Empty nodes contribute an
        // empty tally directly.
        let nonempty: Vec<usize> = (0..nodes)
            .filter(|&n| !part.node_edges(NodeId::new(n as u16)).is_empty())
            .collect();
        // Chunk the partitions across at most `worker_cap` host threads: a
        // 64-partition cluster on a 4-core host gets 4 workers with 16
        // partitions each, not 64 oversubscribed threads. Each worker
        // stops at its chunk's first error, so the surfaced error is the
        // lowest-numbered failing partition's — exactly what the
        // thread-per-partition layout reported.
        let gather_workers = worker_cap.min(nonempty.len()).max(1);
        let chunk_len = nonempty.len().div_ceil(gather_workers).max(1);
        // Each worker borrows one persistent scratch slot; slots outlive
        // the step, so buffers grown on superstep k are reused on k+1.
        let scratch_pool = &mut self.worker_scratch;
        if scratch_pool.len() < gather_workers {
            scratch_pool.resize_with(gather_workers, WorkerScratch::default);
        }
        let gather_chunk = |chunk: &[usize], ws: &mut WorkerScratch| {
            chunk
                .iter()
                .map(|&n| gather_node(n, ws))
                .collect::<Result<Vec<_>, _>>()
        };
        let gather_results: Vec<Result<Vec<NodeGather<S::Gather>>, EngineError>> =
            match scratch_pool.first_mut() {
                Some(ws) if gather_workers == 1 => vec![gather_chunk(&nonempty, ws)],
                _ => thread::scope(|scope| {
                    let gather_chunk = &gather_chunk;
                    let handles: Vec<_> = nonempty
                        .chunks(chunk_len)
                        .zip(scratch_pool.iter_mut())
                        .map(|(chunk, ws)| scope.spawn(move || gather_chunk(chunk, ws)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                }),
            };

        let mut node_ops = vec![0u64; nodes];
        let mut mem_peaks = mem_base.clone();
        let mut gather_calls = 0u64;
        let mut sum_calls = 0u64;
        let mut partial_total = 0u64;

        // --- Merge partials at masters (deterministic node order). -------
        // One accumulator per active vertex, in ascending id order:
        // `acc[v]` unmasked, `acc[rank of v among the active set]` masked.
        let active_ranks: Option<RankedMask> = mask.map(|m| RankedMask::new(m.clone()));
        let num_active = mask.map_or(num_vertices, VertexMask::len);
        let mut acc: Vec<Option<(S::Gather, u64)>> = (0..num_active).map(|_| None).collect();
        let mut master_extra = vec![0u64; nodes];
        let mut merge_tallies: Vec<WorkTally> = vec![WorkTally::new(); nodes];
        let mut ordered: Vec<NodeGather<S::Gather>> = (0..nodes)
            .filter(|&n| part.node_edges(NodeId::new(n as u16)).is_empty())
            .map(|n| NodeGather {
                node: n,
                partials: Vec::new(),
                gather_calls: 0,
                sum_calls: 0,
                ops: 0,
                // snaple-lint: allow(index) — n comes from 0..nodes and mem_base has len nodes
                mem_peak: mem_base[n],
            })
            .collect();
        for r in gather_results {
            ordered.extend(r?);
        }
        ordered.sort_by_key(|g| g.node);

        // Gathers produce `node` from 0..nodes and `v` from the partition's
        // edge lists, so every index below is in bounds by construction.
        for ng in ordered {
            // snaple-lint: allow(index) — ng.node < nodes by construction
            node_ops[ng.node] += ng.ops;
            // snaple-lint: allow(index) — same bound as node_ops above
            mem_peaks[ng.node] = mem_peaks[ng.node].max(ng.mem_peak);
            gather_calls += ng.gather_calls;
            sum_calls += ng.sum_calls;
            for (v, g, bytes) in ng.partials {
                let master = part.master(v).index();
                if master != ng.node {
                    let framed = bytes + MESSAGE_OVERHEAD;
                    // snaple-lint: allow(index) — ng.node and master are partition ids < nodes
                    net[ng.node] += framed;
                    // snaple-lint: allow(index) — same bound as above
                    net[master] += framed;
                    partial_total += framed;
                    // snaple-lint: allow(index) — same bound as above
                    master_extra[master] += bytes;
                }
                let slot = match &active_ranks {
                    None => Some(v.index()),
                    Some(r) => r.rank(v),
                }
                .and_then(|i| acc.get_mut(i))
                .ok_or_else(|| missing_slot(v))?;
                *slot = Some(match slot.take() {
                    None => (g, bytes),
                    Some((prev, pb)) => {
                        sum_calls += 1;
                        // snaple-lint: allow(index) — master is a partition id < nodes
                        let t = &mut merge_tallies[master];
                        t.add(1);
                        (step.sum(prev, g, t), pb + bytes)
                    }
                });
            }
        }
        for n in 0..nodes {
            // snaple-lint: allow(index) — every per-node vec here has len nodes and n < nodes
            node_ops[n] += merge_tallies[n].ops();
            // snaple-lint: allow(index) — same bound as above
            let with_partials = mem_base[n] + master_extra[n];
            // snaple-lint: allow(index) — same bound as above
            mem_peaks[n] = mem_peaks[n].max(with_partials);
            if with_partials > cap {
                return Err(EngineError::ResourceExhausted {
                    node: NodeId::new(n as u16),
                    required: with_partials,
                    capacity: cap,
                    step: step.name().to_owned(),
                });
            }
        }

        // --- Apply phase at masters (parallel over active-vertex ranges). -
        // The `i`-th active vertex, and where its state lives. Both grow
        // with `i`, so contiguous active ranges own disjoint state ranges.
        let vertex_at = |i: usize| match &active {
            None => Some(VertexId::new(i as u32)),
            Some(a) => a.get(i).copied(),
        };
        let slot_at = |i: usize| vertex_at(i).and_then(slot_of);
        let apply_workers = worker_cap.min(num_active).max(1);
        let chunk = num_active.div_ceil(apply_workers).max(1);
        // Applies the active vertices `first..first + accs.len()`, whose
        // states are `states[slot - base]`.
        let apply_range = |first: usize,
                           accs: &mut [Option<(S::Gather, u64)>],
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
        // Split the state where each range's next range starts, so every
        // worker owns exactly the states of its own active vertices.
        type Range<'r, G, V> = (usize, &'r mut [Option<(G, u64)>], usize, &'r mut [V]);
        let mut ranges: Vec<Range<'_, S::Gather, S::Vertex>> = Vec::with_capacity(apply_workers);
        let mut rest = state;
        let mut base = 0usize;
        for (ci, accs) in acc.chunks_mut(chunk).enumerate() {
            let first = ci * chunk;
            let rest_len = rest.len();
            let end = slot_at(first + accs.len()).map_or(rest_len, |next| next - base);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(end.min(rest_len));
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
            gather_calls,
            sum_calls,
            apply_calls: num_active as u64,
            work_ops: node_ops.iter().sum(),
            broadcast_bytes: broadcast_total,
            partial_bytes: partial_total,
            per_node,
            simulated_seconds: 0.0,
        };
        let cost = self.cost_override.as_ref().unwrap_or_else(|| dep.cost());
        stats.simulated_seconds =
            cost.step_seconds(stats.max_node_ops(), stats.max_node_net_bytes());
        self.run.steps.push(stats);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            3,
        )
        .unwrap();
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
        let mut one = Engine::new(
            &g,
            ClusterSpec::type_i(1),
            PartitionStrategy::RandomVertexCut,
            3,
        )
        .unwrap();
        one.run_step(&SumNeighbors, &mut reference).unwrap();
        for nodes in [2, 8, 32] {
            let mut state: Vec<u64> = (0..300).map(|i| i * 17 % 101).collect();
            let mut engine = Engine::new(
                &g,
                ClusterSpec::type_i(nodes),
                PartitionStrategy::GreedyVertexCut,
                99,
            )
            .unwrap();
            engine.run_step(&SumNeighbors, &mut state).unwrap();
            assert_eq!(state, reference, "cluster of {nodes} nodes diverged");
        }
    }

    #[test]
    fn single_node_has_no_network_traffic() {
        let g = ring(20);
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(1),
            PartitionStrategy::RandomVertexCut,
            5,
        )
        .unwrap();
        let mut state = vec![1u64; 20];
        let stats = engine.run_step(&SumNeighbors, &mut state).unwrap();
        assert_eq!(stats.network_bytes(), 0);
        assert_eq!(stats.gather_calls, 20);
        assert_eq!(stats.apply_calls, 20);
    }

    #[test]
    fn multi_node_runs_account_network_traffic() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::erdos_renyi(200, 2_000, &mut rng).into_symmetric_graph();
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            5,
        )
        .unwrap();
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
        let mut engine = Engine::new(&g, cluster, PartitionStrategy::RandomVertexCut, 1).unwrap();
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut state = vec![0u64; 9];
        assert!(matches!(
            engine.run_step(&SumNeighbors, &mut state),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    /// Sums neighbor values along either direction and charges apply-side
    /// work, so apply-phase accounting shows up in per-node ops.
    struct SumAlong(Direction);
    impl GasStep for SumAlong {
        type Vertex = u64;
        type Gather = u64;
        fn name(&self) -> &str {
            "sum-along"
        }
        fn gather_direction(&self) -> Direction {
            self.0
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
        // A directed graph too, so In- and Out-gathers see different runs.
        let edges: Vec<(u32, u32)> = (0..1_500u64)
            .map(|i| ((hash2(3, i, 0) % 250) as u32, (hash2(3, i, 1) % 250) as u32))
            .filter(|(u, v)| u != v)
            .collect();
        let directed = CsrGraph::from_edges(250, &edges);
        for (g, dir) in [
            (&sym, Direction::Out),
            (&sym, Direction::In),
            (&directed, Direction::Out),
            (&directed, Direction::In),
        ] {
            let init: Vec<u64> = (0..250).map(|i| i * 31 % 97).collect();
            let mut unmasked = init.clone();
            let mut engine = Engine::new(
                g,
                ClusterSpec::type_i(4),
                PartitionStrategy::RandomVertexCut,
                9,
            )
            .unwrap();
            engine.run_step(&SumAlong(dir), &mut unmasked).unwrap();
            let reference = engine.into_stats();

            let mut masked = init;
            let mut engine = Engine::new(
                g,
                ClusterSpec::type_i(4),
                PartitionStrategy::RandomVertexCut,
                9,
            )
            .unwrap();
            let full = VertexMask::full(g.num_vertices());
            engine
                .run_step_masked(&SumAlong(dir), &mut masked, Some(&full))
                .unwrap();
            let stats = engine.into_stats();
            assert_eq!(masked, unmasked, "{dir:?}");
            assert_same_step(&stats.steps[0], &reference.steps[0], &format!("{dir:?}"));
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
        for dir in [Direction::Out, Direction::In] {
            for queries in [
                vec![],
                vec![5],
                (0..400).step_by(17).collect(),
                (0..400).collect(),
            ] {
                // Two shrinking steps, like a targeted program: the slots
                // are the first step's read set.
                let inner = VertexMask::from_vertices(400, queries.into_iter().map(VertexId::new));
                let outer = inner.expand(&g, dir);
                let slots = RankedMask::new(outer.expand(&g, dir));

                let mut dense: Vec<u64> = (0..400).map(init).collect();
                let mut engine = Engine::on(&deployment);
                engine
                    .run_step_masked(&SumAlong(dir), &mut dense, Some(&outer))
                    .unwrap();
                engine
                    .run_step_masked(&SumAlong(dir), &mut dense, Some(&inner))
                    .unwrap();
                let reference = engine.into_stats();

                let mut sparse: Vec<u64> = slots.mask().iter().map(|v| init(v.as_u32())).collect();
                let mut engine = Engine::on(&deployment);
                engine
                    .run_step_sparse(&SumAlong(dir), &mut sparse, &slots, &outer)
                    .unwrap();
                engine
                    .run_step_sparse(&SumAlong(dir), &mut sparse, &slots, &inner)
                    .unwrap();
                let stats = engine.into_stats();
                for v in slots.mask().iter() {
                    assert_eq!(
                        sparse[slots.rank(v).unwrap()],
                        dense[v.index()],
                        "{dir:?} vertex {v}"
                    );
                }
                for (s, r) in stats.steps.iter().zip(&reference.steps) {
                    assert_same_step(s, r, &format!("{dir:?} |Q|={}", inner.len()));
                }
            }
        }
    }

    #[test]
    fn sparse_slots_must_cover_the_read_set() {
        let g = ring(10);
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            2,
        )
        .unwrap();
        engine.run_step(&SumNeighbors, &mut full_state).unwrap();
        let full = engine.into_stats();

        let mask = VertexMask::from_vertices(400, (0..4).map(VertexId::new));
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            2,
        )
        .unwrap();
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut state = vec![0u64; 10];
        let mask = VertexMask::full(9);
        assert!(matches!(
            engine.run_step_masked(&SumNeighbors, &mut state, Some(&mask)),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shared_deployment_runs_match_owned_engines() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::erdos_renyi(300, 2_500, &mut rng).into_symmetric_graph();
        let init: Vec<u64> = (0..300).map(|i| i * 13 % 89).collect();

        let mut owned_state = init.clone();
        let mut owned = Engine::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
        owned.run_step(&SumNeighbors, &mut owned_state).unwrap();
        let owned_stats = owned.into_stats();
        assert!(
            owned_stats.partition_build_seconds > 0.0,
            "one-shot engines pay the partition build"
        );

        let deployment = Deployment::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
        for _ in 0..3 {
            let mut state = init.clone();
            let mut engine = Engine::on(&deployment);
            engine.run_step(&SumNeighbors, &mut state).unwrap();
            let stats = engine.into_stats();
            assert_eq!(state, owned_state);
            assert_eq!(stats.steps[0].work_ops, owned_stats.steps[0].work_ops);
            assert_eq!(
                stats.total_network_bytes(),
                owned_stats.total_network_bytes()
            );
            assert_eq!(stats.peak_memory(), owned_stats.peak_memory());
            assert_eq!(
                stats.partition_build_seconds, 0.0,
                "prepared deployments amortize the partition build"
            );
        }
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
        let mut cold = Engine::new(
            &mutated,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
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
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(32),
            PartitionStrategy::RandomVertexCut,
            2,
        )
        .unwrap();
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
            inner: SumAlong(Direction::Out),
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

    #[test]
    fn stats_accumulate_across_steps() {
        let g = ring(10);
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut state = vec![1u64; 10];
        engine.run_step(&SumNeighbors, &mut state).unwrap();
        engine.run_step(&SumNeighbors, &mut state).unwrap();
        assert_eq!(engine.stats().steps.len(), 2);
        assert!(engine.simulated_seconds() > 0.0);
        let run = engine.into_stats();
        assert_eq!(run.steps.len(), 2);
    }
}
