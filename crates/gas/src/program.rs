//! The GAS program interface.

use snaple_graph::{Direction, GraphStore, RankedMask, VertexId};

use crate::scratch::ScratchArena;
use crate::size::SizeEstimate;

/// Work counter threaded through a GAS step.
///
/// The engine automatically counts one operation per `gather`, `sum` and
/// `apply` invocation; programs report *additional* units of work (e.g. one
/// unit per Jaccard merge step, one per path combination) via
/// [`WorkTally::add`]. These units feed the [cost model](crate::cost) that
/// converts executions into simulated cluster seconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkTally {
    ops: u64,
}

impl WorkTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` additional units of work.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    /// Total units recorded so far.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &WorkTally) {
        self.ops += other.ops;
    }
}

/// Read-only execution context available to `gather` and `apply`.
///
/// Mirrors what GraphLab exposes to vertex programs: the degrees of the
/// vertex being processed (`num_out_edges` in GraphLab's API), edge weights,
/// and a per-run seed for deterministic randomized decisions (such as the
/// probabilistic neighborhood truncation of the paper's Algorithm 2,
/// line 3). Full topology is deliberately *not* exposed — that is the GAS
/// restriction the paper works within.
#[derive(Debug)]
pub struct GatherCtx<'a> {
    graph: &'a dyn GraphStore,
    seed: u64,
}

impl<'a> GatherCtx<'a> {
    pub(crate) fn new(graph: &'a dyn GraphStore, seed: u64) -> Self {
        GatherCtx { graph, seed }
    }

    /// Out-degree `|Γ(u)|` of a vertex.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.graph.out_degree(u)
    }

    /// In-degree `|Γ⁻¹(u)|` of a vertex.
    #[inline]
    pub fn in_degree(&self, u: VertexId) -> usize {
        self.graph.in_degree(u)
    }

    /// Number of vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Weight of the edge `(u, v)` (1.0 for unweighted graphs), or `None`
    /// if no such edge exists.
    #[inline]
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f32> {
        self.graph.edge_weight(u, v)
    }

    /// Per-run seed for deterministic hash-based randomness.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A simulated node ran out of memory while accumulating gather partials.
///
/// Produced by [`RunBudget::charge`]; batched [`GasStep::gather_run`]
/// implementations propagate it with `?` and the engine converts it into
/// [`EngineError::ResourceExhausted`](crate::EngineError::ResourceExhausted)
/// naming the failing partition.
#[derive(Debug)]
pub struct GatherOverflow {
    pub(crate) required: u64,
}

/// Accounting ledger of one gather run, threaded through
/// [`GasStep::gather_run`].
///
/// The budget mirrors the engine's historical per-edge protocol: one
/// [`count_gather`](RunBudget::count_gather) per gathered edge, one
/// [`charge`](RunBudget::charge) per accumulator contribution (checked
/// against the simulated node's memory capacity), and one
/// [`count_sum`](RunBudget::count_sum) per fold. A batched implementation
/// that replays these calls in edge order produces byte-identical run
/// statistics to the default per-edge path.
#[derive(Debug)]
pub struct RunBudget<'a> {
    gather_calls: &'a mut u64,
    sum_calls: &'a mut u64,
    /// The node's gather memory so far. Charges only add, so this is also
    /// its high-water mark.
    mem: &'a mut u64,
    cap: u64,
}

impl<'a> RunBudget<'a> {
    pub(crate) fn new(
        gather_calls: &'a mut u64,
        sum_calls: &'a mut u64,
        mem: &'a mut u64,
        cap: u64,
    ) -> Self {
        RunBudget {
            gather_calls,
            sum_calls,
            mem,
            cap,
        }
    }

    /// Records one gather invocation (the engine's implicit op per edge).
    #[inline]
    pub fn count_gather(&mut self) {
        *self.gather_calls += 1;
    }

    /// Records one sum fold (the engine's implicit op per fold).
    #[inline]
    pub fn count_sum(&mut self) {
        *self.sum_calls += 1;
    }

    /// Charges `bytes` of accumulator memory against the node's capacity.
    ///
    /// # Errors
    ///
    /// Returns [`GatherOverflow`] when the node's cumulative gather memory
    /// exceeds its capacity — propagate it, do not swallow it.
    #[inline]
    pub fn charge(&mut self, bytes: u64) -> Result<(), GatherOverflow> {
        *self.mem += bytes;
        if *self.mem > self.cap {
            Err(GatherOverflow {
                required: *self.mem,
            })
        } else {
            Ok(())
        }
    }
}

/// Read access to the vertex states a gather run may consult, indexed by
/// neighbor id. Wraps the step's state slice without exposing mutation:
/// dense (`states[v]`) or sparse over ranked slots (`states[rank(v)]`).
#[derive(Debug)]
pub struct NeighborStates<'a, V> {
    states: &'a [V],
    slots: Option<&'a RankedMask>,
}

impl<'a, V> NeighborStates<'a, V> {
    pub(crate) fn new(states: &'a [V], slots: Option<&'a RankedMask>) -> Self {
        NeighborStates { states, slots }
    }

    /// The program state of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` has no state in this step: out of range, or, in a
    /// sparse step, outside the slots (which cover every vertex a gather
    /// along the step's edges can reach).
    #[inline]
    pub fn get(&self, v: VertexId) -> &'a V {
        match self.slots {
            None => &self.states[v.index()],
            Some(slots) => match slots.rank(v) {
                Some(i) => &self.states[i],
                None => panic!("vertex {v} has no state slot in this step"),
            },
        }
    }
}

/// One gather-apply superstep of a GAS program.
///
/// A multi-step program (like SNAPLE's Algorithm 2) is expressed as a
/// sequence of `GasStep` values sharing a vertex state type, executed in
/// order via [`Engine::run_step`](crate::Engine::run_step).
///
/// Semantics, following the paper's §2.3 (notation of PowerGraph):
///
/// 1. **gather** runs once per edge adjacent to the accumulating vertex `u`
///    in [`gather_direction`](GasStep::gather_direction), on whichever
///    simulated node stores the edge. It may read both endpoint states.
/// 2. **sum** folds gather results into per-node partial accumulators;
///    partials cross the (accounted) network to `u`'s master replica,
///    which folds them in node order. It must be commutative and
///    associative up to the tolerance the program cares about; the engine
///    fixes the fold order (see [`sum`](GasStep::sum)), so floating-point
///    results are bit-identical anyway.
/// 3. **apply** runs at the master with the fully merged accumulator
///    (`None` if no edge produced a gather value) and may rewrite `u`'s
///    state. The new state is broadcast to mirrors before the next step
///    (also accounted).
///
/// The scatter phase of the full GAS model is intentionally absent: neither
/// SNAPLE nor the paper's baselines use it (paper §4: "We do not use any
/// scatter phase"), and omitting it keeps accounting exact.
pub trait GasStep: Sync {
    /// Per-vertex program state, shared across all steps of a program.
    type Vertex: Send + Sync + SizeEstimate;
    /// Per-step accumulator type.
    type Gather: Send + SizeEstimate;

    /// Human-readable step name (used in stats and error reports).
    fn name(&self) -> &str;

    /// Which adjacent edges `u` gathers over. Defaults to out-edges, the
    /// direction used throughout the paper.
    fn gather_direction(&self) -> Direction {
        Direction::Out
    }

    /// Produces an accumulator contribution for one edge.
    ///
    /// `u` is the accumulating vertex, `v` the neighbor along the gathered
    /// edge ((u, v) for [`Direction::Out`], (v, u) for [`Direction::In`]).
    /// Returning `None` contributes nothing (and transfers nothing).
    fn gather(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        u_data: &Self::Vertex,
        v: VertexId,
        v_data: &Self::Vertex,
        work: &mut WorkTally,
    ) -> Option<Self::Gather>;

    /// Folds two accumulators. Must be commutative and associative.
    ///
    /// The engine folds in one fixed order, so a program whose `sum` is
    /// only associative up to rounding still gets bit-identical results
    /// on any cluster and worker count: within a run, contributions fold
    /// in neighbor order (`a` is the run so far, `b` the next edge's);
    /// across partitions, a gatherer's run partials fold in node order
    /// (`a` is the fold of the lower-numbered nodes' partials, `b` the
    /// next node's), right after each run is gathered, by the host worker
    /// that owns the gatherer.
    fn sum(&self, a: Self::Gather, b: Self::Gather, work: &mut WorkTally) -> Self::Gather;

    /// Gathers one *run* — a maximal stretch of same-vertex edges on one
    /// simulated node — in a single call, returning the folded accumulator
    /// and its accounted byte size (`None` if every edge contributed
    /// nothing).
    ///
    /// The engine calls it gatherer-major: for one gatherer, once per
    /// partition holding its edges, in node order, folding each returned
    /// partial into the gatherer's accumulator with [`sum`](GasStep::sum)
    /// before it moves on to the next partition. An override must fold
    /// its neighbors in the order given, as the default does, so that
    /// the result matches the per-edge protocol bit for bit.
    ///
    /// The default implementation replays the engine's per-edge protocol —
    /// [`gather`](GasStep::gather) / [`SizeEstimate`] charge /
    /// [`sum`](GasStep::sum) per neighbor — and is byte-identical to the
    /// historical edge loop. Batched programs override it to consume the
    /// whole neighbor stripe at once (vectorized kernels, pooled buffers
    /// and a scratch value of their own from `scratch`, the worker's
    /// engine-owned arena), and **must replicate the same accounting**: per
    /// neighbor one [`RunBudget::count_gather`] plus `work.add(1)`, one
    /// [`RunBudget::charge`] per contribution, and per fold one
    /// [`RunBudget::count_sum`] plus `work.add(1)` on top of whatever
    /// `sum` itself would tally — otherwise run statistics (and the
    /// simulated cost model built on them) diverge from the per-edge path.
    ///
    /// # Errors
    ///
    /// Propagates [`GatherOverflow`] from [`RunBudget::charge`] when the
    /// simulated node exceeds its memory capacity.
    #[allow(unused_variables, clippy::too_many_arguments)]
    fn gather_run(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        u_data: &Self::Vertex,
        neighbors: &[VertexId],
        states: &NeighborStates<'_, Self::Vertex>,
        budget: &mut RunBudget<'_>,
        scratch: &mut ScratchArena,
        work: &mut WorkTally,
    ) -> Result<Option<(Self::Gather, u64)>, GatherOverflow> {
        let mut cur: Option<(Self::Gather, u64)> = None;
        for &v in neighbors {
            budget.count_gather();
            work.add(1);
            let Some(item) = self.gather(ctx, u, u_data, v, states.get(v), work) else {
                continue;
            };
            let bytes = item.estimated_bytes();
            budget.charge(bytes)?;
            cur = Some(match cur.take() {
                None => (item, bytes),
                Some((acc, b)) => {
                    budget.count_sum();
                    work.add(1);
                    (self.sum(acc, item, work), b + bytes)
                }
            });
        }
        Ok(cur)
    }

    /// Declares that [`apply`](GasStep::apply) writes no vertex state that
    /// [`gather`](GasStep::gather) (or [`gather_run`](GasStep::gather_run))
    /// reads, so the engine may run the step in **gatherer blocks**.
    ///
    /// A blocked step gathers, folds and applies one block of consecutive
    /// gatherers at a time, and a block applies before later blocks
    /// gather: a later gather may see an earlier block's applied state.
    /// That is only equivalent to one all-at-once superstep when the
    /// fields `apply` writes are disjoint from the fields any gather reads
    /// — e.g. a step that gathers neighbor sets and writes similarity
    /// tables. Each gatherer's partials fold in node order either way, so
    /// results and every accounted counter are then identical to the
    /// unblocked step, while the host holds one block's accumulators at a
    /// time instead of the whole graph's.
    ///
    /// Defaults to `false`: an undeclared step runs as a single block,
    /// exactly as one superstep always has. Steps that gather along
    /// [`Direction::In`] run as a single block whatever they declare.
    fn apply_disjoint_from_gather(&self) -> bool {
        false
    }

    /// Consumes the merged accumulator and updates the vertex state.
    fn apply(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        data: &mut Self::Vertex,
        acc: Option<Self::Gather>,
        work: &mut WorkTally,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_graph::CsrGraph;

    #[test]
    fn tally_accumulates_and_merges() {
        let mut a = WorkTally::new();
        a.add(3);
        a.add(4);
        let mut b = WorkTally::new();
        b.add(10);
        a.merge(&b);
        assert_eq!(a.ops(), 17);
        assert_eq!(WorkTally::default().ops(), 0);
    }

    #[test]
    fn ctx_exposes_degrees_weights_and_seed() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 0)]);
        let ctx = GatherCtx::new(&g, 99);
        assert_eq!(ctx.out_degree(VertexId::new(0)), 2);
        assert_eq!(ctx.in_degree(VertexId::new(0)), 1);
        assert_eq!(ctx.num_vertices(), 3);
        assert_eq!(
            ctx.edge_weight(VertexId::new(0), VertexId::new(1)),
            Some(1.0)
        );
        assert_eq!(ctx.edge_weight(VertexId::new(2), VertexId::new(0)), None);
        assert_eq!(ctx.seed(), 99);
    }
}
