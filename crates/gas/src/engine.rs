//! The GAS superstep executor.

use std::thread;

use snaple_graph::hash::hash2;
use snaple_graph::{store, Direction, GraphStore, VertexId, VertexMask};

use crate::cluster::{ClusterSpec, NodeId};
use crate::cost::CostModel;
use crate::deploy::Deployment;
use crate::error::EngineError;
use crate::partition::{PartitionStrategy, PartitionedGraph};
use crate::program::{GasStep, GatherCtx, NeighborStates, RunBudget, WorkTally};
use crate::scratch::WorkerScratch;
use crate::size::SizeEstimate;
use crate::stats::{NodeStats, RunStats, StepStats};

/// Framing overhead charged per partial-gather message (vertex id + length).
const MESSAGE_OVERHEAD: u64 = 8;

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
    gather_workers: Option<usize>,
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
            gather_workers: None,
            worker_scratch: Vec::new(),
        }
    }

    /// Overrides the seed driving per-step randomness (partition placement
    /// is fixed by the deployment and unaffected).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of OS threads the gather phase uses (default: the
    /// host's `available_parallelism`).
    ///
    /// Simulated partitions are *chunked* across the workers, so any cap
    /// produces bit-identical results and byte-identical cost accounting —
    /// the per-partition tallies are computed the same way no matter which
    /// host thread runs them. Exposed for tests and benchmarks that pin
    /// host parallelism; a 64-partition cluster no longer spawns 64
    /// threads on a 4-core host either way.
    pub fn with_gather_workers(mut self, workers: usize) -> Self {
        self.gather_workers = Some(workers.max(1));
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
    /// plus its gather-direction frontier) is charged for broadcast
    /// traffic and replica memory. A full mask is exactly equivalent to
    /// `None`, byte for byte.
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
        self.run_step_inner(step, state, mask)?;
        self.run
            .steps
            .last()
            .ok_or_else(|| EngineError::InvalidConfig("step record missing after run".to_string()))
    }

    fn run_step_inner<S: GasStep>(
        &mut self,
        step: &S,
        state: &mut [S::Vertex],
        mask: Option<&VertexMask>,
    ) -> Result<(), EngineError> {
        let dep = self.deployment.get();
        let graph = dep.graph();
        let part = dep.partitioned();
        if state.len() != graph.num_vertices() {
            return Err(EngineError::InvalidConfig(format!(
                "state has {} entries but the graph has {} vertices",
                state.len(),
                graph.num_vertices()
            )));
        }
        if let Some(m) = mask {
            if m.num_vertices() != graph.num_vertices() {
                return Err(EngineError::InvalidConfig(format!(
                    "mask ranges over {} vertices but the graph has {}",
                    m.num_vertices(),
                    graph.num_vertices()
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
        let dir = step.gather_direction();
        // Read set of a masked step: active vertices plus the neighbors
        // their gathers read. Only this state needs replicas this step.
        let read_mask: Option<VertexMask> = mask.map(|m| m.expand(graph, dir));

        // --- Broadcast phase: replicate vertex state to mirrors. ---------
        let state_bytes: Vec<u64> = state.iter().map(SizeEstimate::estimated_bytes).collect();
        let mut mem_base = vec![0u64; nodes];
        let mut net = vec![0u64; nodes];
        let mut broadcast_total = 0u64;
        // Static CSR share of each node (8 bytes per stored edge), read
        // from the deployment's per-partition cache — maintained
        // incrementally across delta applies instead of recounted here.
        mem_base.copy_from_slice(dep.node_static_bytes());
        for v in store::vertices(graph) {
            if let Some(rm) = &read_mask {
                if !rm.contains(v) {
                    continue;
                }
            }
            // snaple-lint: allow(index) — state_bytes has one entry per graph vertex (validated above)
            let sb = state_bytes[v.index()];
            let master = part.master(v).index();
            let mut mask = part.presence_mask(v);
            while mask != 0 {
                let n = mask.trailing_zeros() as usize;
                mask &= mask - 1;
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
        // accounting. Edges are walked as *runs* — maximal stretches of
        // active same-gatherer edges (inactive edges never break a run,
        // exactly as the historical per-edge loop's flush behaved) — and
        // each run is handed to the program's `gather_run` in one call.
        let gather_node =
            |n: usize, ws: &mut WorkerScratch| -> Result<NodeGather<S::Gather>, EngineError> {
                let ctx = GatherCtx::new(graph, step_seed);
                let node = NodeId::new(n as u16);
                let stored = part.node_edges(node);
                let edges: &[(VertexId, VertexId)] = if dir == Direction::In {
                    ws.edges.clear();
                    ws.edges.extend_from_slice(stored);
                    ws.edges.sort_unstable_by_key(|&(s, d)| (d, s));
                    &ws.edges
                } else {
                    stored
                };
                let orient = |e: (VertexId, VertexId)| match dir {
                    Direction::Out => (e.0, e.1),
                    Direction::In => (e.1, e.0),
                };
                let states = NeighborStates::new(state_ro);
                let mut tally = WorkTally::new();
                let mut partials: Vec<(VertexId, S::Gather, u64)> = Vec::new();
                let mut gather_calls = 0u64;
                let mut sum_calls = 0u64;
                // snaple-lint: allow(index) — n comes from 0..nodes and mem_base has len nodes
                let mut mem = mem_base_ref[n];
                let mut mem_peak = mem;
                let mut i = 0usize;
                while i < edges.len() {
                    // snaple-lint: allow(index) — loop guard keeps i < edges.len()
                    let (gatherer, neighbor) = orient(edges[i]);
                    if let Some(m) = mask {
                        if !m.contains(gatherer) {
                            i += 1;
                            continue;
                        }
                    }
                    ws.neighbors.clear();
                    ws.neighbors.push(neighbor);
                    let mut j = i + 1;
                    while j < edges.len() {
                        // snaple-lint: allow(index) — loop guard keeps j < edges.len()
                        let (g, nb) = orient(edges[j]);
                        if let Some(m) = mask {
                            if !m.contains(g) {
                                j += 1;
                                continue;
                            }
                        }
                        if g != gatherer {
                            break;
                        }
                        ws.neighbors.push(nb);
                        j += 1;
                    }
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
                            // snaple-lint: allow(index) — gatherer is a partition-edge endpoint < num_vertices = state len
                            &state_ro[gatherer.index()],
                            &ws.neighbors,
                            &states,
                            &mut budget,
                            &mut ws.arena,
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
                    i = j;
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
        // Cap host threads at the hardware parallelism and chunk the
        // partitions across them: a 64-partition cluster on a 4-core host
        // gets 4 workers with 16 partitions each, not 64 oversubscribed
        // threads. Each worker stops at its chunk's first error, so the
        // surfaced error is the lowest-numbered failing partition's —
        // exactly what the thread-per-partition layout reported.
        let gather_worker_cap = self.gather_workers.unwrap_or_else(host_parallelism);
        let gather_workers = gather_worker_cap.min(nonempty.len()).max(1);
        let chunk_len = nonempty.len().div_ceil(gather_workers).max(1);
        // Each worker borrows one persistent scratch slot; slots outlive
        // the step, so buffers grown on superstep k are reused on k+1.
        let scratch_pool = &mut self.worker_scratch;
        if scratch_pool.len() < gather_workers {
            scratch_pool.resize_with(gather_workers, WorkerScratch::default);
        }
        let gather_results: Vec<Result<Vec<NodeGather<S::Gather>>, EngineError>> =
            thread::scope(|scope| {
                let gather_node = &gather_node;
                let handles: Vec<_> = nonempty
                    .chunks(chunk_len)
                    .zip(scratch_pool.iter_mut())
                    .map(|(chunk, ws)| {
                        scope.spawn(move || {
                            chunk
                                .iter()
                                .map(|&n| gather_node(n, ws))
                                .collect::<Result<Vec<_>, _>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });

        let mut node_ops = vec![0u64; nodes];
        let mut mem_peaks = mem_base.clone();
        let mut gather_calls = 0u64;
        let mut sum_calls = 0u64;
        let mut partial_total = 0u64;

        // --- Merge partials at masters (deterministic node order). -------
        let mut acc: Vec<Option<(S::Gather, u64)>> =
            (0..graph.num_vertices()).map(|_| None).collect();
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
                // snaple-lint: allow(index) — v < num_vertices: v is a partition-edge endpoint
                let slot = &mut acc[v.index()];
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

        // --- Apply phase at masters (parallel over vertex shards). --------
        let workers = host_parallelism().min(graph.num_vertices().max(1));
        let chunk = graph.num_vertices().div_ceil(workers).max(1);
        let apply_calls = mask.map_or(graph.num_vertices(), VertexMask::len) as u64;
        let apply_node_ops: Vec<Vec<u64>> = thread::scope(|scope| {
            let handles: Vec<_> = state
                .chunks_mut(chunk)
                .zip(acc.chunks_mut(chunk))
                .enumerate()
                .map(|(ci, (state_chunk, acc_chunk))| {
                    scope.spawn(move || {
                        let ctx = GatherCtx::new(graph, step_seed);
                        let mut ops = vec![0u64; nodes];
                        let base = ci * chunk;
                        let mut tally = WorkTally::new();
                        for (i, (data, a)) in
                            state_chunk.iter_mut().zip(acc_chunk.iter_mut()).enumerate()
                        {
                            let u = VertexId::new((base + i) as u32);
                            if let Some(m) = mask {
                                if !m.contains(u) {
                                    continue;
                                }
                            }
                            let before = tally.ops();
                            tally.add(1);
                            step.apply(&ctx, u, data, a.take().map(|(g, _)| g), &mut tally);
                            // snaple-lint: allow(index) — master partition ids are < nodes and ops has len nodes
                            ops[part.master(u).index()] += tally.ops() - before;
                        }
                        ops
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        for per_worker in apply_node_ops {
            for (total, o) in node_ops.iter_mut().zip(per_worker) {
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
            apply_calls,
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

    #[test]
    fn full_mask_is_bit_identical_to_unmasked() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = gen::erdos_renyi(250, 2_000, &mut rng).into_symmetric_graph();
        let init: Vec<u64> = (0..250).map(|i| i * 31 % 97).collect();
        let mut unmasked = init.clone();
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
        engine.run_step(&SumNeighbors, &mut unmasked).unwrap();
        let reference = engine.into_stats();

        let mut masked = init;
        let mut engine = Engine::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            9,
        )
        .unwrap();
        let full = VertexMask::full(g.num_vertices());
        engine
            .run_step_masked(&SumNeighbors, &mut masked, Some(&full))
            .unwrap();
        let stats = engine.into_stats();
        assert_eq!(masked, unmasked);
        assert_eq!(stats.steps[0].gather_calls, reference.steps[0].gather_calls);
        assert_eq!(stats.steps[0].apply_calls, reference.steps[0].apply_calls);
        assert_eq!(stats.steps[0].work_ops, reference.steps[0].work_ops);
        assert_eq!(
            stats.steps[0].broadcast_bytes,
            reference.steps[0].broadcast_bytes
        );
        assert_eq!(
            stats.steps[0].partial_bytes,
            reference.steps[0].partial_bytes
        );
        assert_eq!(stats.total_network_bytes(), reference.total_network_bytes());
        assert_eq!(stats.peak_memory(), reference.peak_memory());
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

    #[test]
    fn gather_worker_cap_keeps_results_and_cost_accounting_byte_identical() {
        // Regression for the oversubscription fix: a 64-partition cluster
        // used to spawn one thread per non-empty partition. Partitions are
        // now chunked over a capped worker pool — and because each
        // partition's tallies are computed identically no matter which
        // host thread runs them, every cap must produce bit-identical
        // state and byte-identical simulated-cost accounting.
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

        let mut reference_state = init.clone();
        let mut reference = Engine::on(&deployment);
        reference
            .run_step(&SumNeighbors, &mut reference_state)
            .unwrap();
        let reference_stats = reference.into_stats();

        for workers in [1, 3, 8, 200] {
            let mut state = init.clone();
            let mut engine = Engine::on(&deployment).with_gather_workers(workers);
            engine.run_step(&SumNeighbors, &mut state).unwrap();
            let stats = engine.into_stats();
            assert_eq!(state, reference_state, "{workers} workers diverged");
            let (s, r) = (&stats.steps[0], &reference_stats.steps[0]);
            assert_eq!(s.gather_calls, r.gather_calls, "{workers} workers");
            assert_eq!(s.sum_calls, r.sum_calls, "{workers} workers");
            assert_eq!(s.apply_calls, r.apply_calls, "{workers} workers");
            assert_eq!(s.work_ops, r.work_ops, "{workers} workers");
            assert_eq!(s.broadcast_bytes, r.broadcast_bytes, "{workers} workers");
            assert_eq!(s.partial_bytes, r.partial_bytes, "{workers} workers");
            assert_eq!(s.per_node.len(), r.per_node.len());
            for (n, (sn, rn)) in s.per_node.iter().zip(&r.per_node).enumerate() {
                assert_eq!(sn.compute_ops, rn.compute_ops, "node {n}");
                assert_eq!(sn.net_bytes, rn.net_bytes, "node {n}");
                assert_eq!(sn.memory_peak, rn.memory_peak, "node {n}");
            }
            assert_eq!(s.simulated_seconds, r.simulated_seconds);
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
