//! Vertex-cut graph partitioning.
//!
//! GAS engines in the PowerGraph tradition split the *edges* of a graph
//! across machines and replicate vertices wherever their edges land; one
//! replica per vertex is designated the **master**. The number of replicas
//! per vertex (the *replication factor*) determines the communication cost
//! of a GAS step, which is why the choice of partitioner matters.
//!
//! Three strategies are provided:
//!
//! * [`PartitionStrategy::RandomVertexCut`] — each edge is hashed to a node
//!   (PowerGraph's default; predictable balance, higher replication).
//! * [`PartitionStrategy::SourceHash1D`] — all out-edges of a vertex land on
//!   one node (low replication for sources, but hubs skew load).
//! * [`PartitionStrategy::GreedyVertexCut`] — PowerGraph's greedy heuristic:
//!   place each edge on a node that already hosts its endpoints, breaking
//!   ties by load.

use snaple_graph::hash::{hash1, hash2};
use snaple_graph::{store, GraphStore, VertexId};

use crate::error::EngineError;
use crate::NodeId;

/// Maximum number of simulated nodes (presence sets are 64-bit masks).
pub const MAX_NODES: usize = 64;

/// Edge-placement strategy; see the [module docs](self).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum PartitionStrategy {
    /// Hash each edge `(u, v)` to a node.
    #[default]
    RandomVertexCut,
    /// Hash the source vertex: all of `Γ(u)` is stored on one node.
    SourceHash1D,
    /// PowerGraph's greedy placement heuristic.
    GreedyVertexCut,
}

impl PartitionStrategy {
    /// All strategies, for suites that sweep every partitioner.
    pub fn all() -> [PartitionStrategy; 3] {
        [
            PartitionStrategy::RandomVertexCut,
            PartitionStrategy::SourceHash1D,
            PartitionStrategy::GreedyVertexCut,
        ]
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::RandomVertexCut => "random",
            PartitionStrategy::SourceHash1D => "source-1d",
            PartitionStrategy::GreedyVertexCut => "greedy",
        }
    }
}

/// A graph split across simulated nodes by a vertex-cut.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    num_nodes: usize,
    /// Per node: its edges, in global `(src, dst)` sorted order.
    node_edges: Vec<Vec<(VertexId, VertexId)>>,
    /// Per vertex: the node holding the master replica.
    master: Vec<NodeId>,
    /// Per vertex: bitmask of nodes where a replica exists (master included).
    presence: Vec<u64>,
    /// Set bits across `presence`, kept current by every update so the
    /// replication factor (read once per engine, so once per served
    /// request) costs O(1), not a pass over every vertex.
    replicas: u64,
}

impl PartitionedGraph {
    /// Partitions `graph` across `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] if `num_nodes` is zero or
    /// exceeds [`MAX_NODES`].
    pub fn build(
        graph: &dyn GraphStore,
        num_nodes: usize,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Result<Self, EngineError> {
        if num_nodes == 0 || num_nodes > MAX_NODES {
            return Err(EngineError::InvalidConfig(format!(
                "num_nodes must be in 1..={MAX_NODES}, got {num_nodes}"
            )));
        }
        let n = graph.num_vertices();
        let master: Vec<NodeId> = (0..n as u32)
            .map(|u| master_node(seed, num_nodes, u))
            .collect();
        let mut presence: Vec<u64> = (0..n).map(|u| 1u64 << master[u].index()).collect();
        let mut node_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); num_nodes];
        let mut loads = vec![0u64; num_nodes];

        for (u, v) in store::edges(graph) {
            let node = match strategy {
                PartitionStrategy::RandomVertexCut => {
                    (hash2(seed, u.as_u32() as u64, v.as_u32() as u64) % num_nodes as u64) as usize
                }
                PartitionStrategy::SourceHash1D => {
                    (hash1(seed, u.as_u32() as u64) % num_nodes as u64) as usize
                }
                PartitionStrategy::GreedyVertexCut => greedy_pick(
                    presence[u.index()],
                    presence[v.index()],
                    &loads,
                    hash2(seed, u.as_u32() as u64, v.as_u32() as u64),
                ),
            };
            node_edges[node].push((u, v));
            loads[node] += 1;
            presence[u.index()] |= 1 << node;
            presence[v.index()] |= 1 << node;
        }
        let replicas = presence.iter().map(|m| m.count_ones() as u64).sum();
        Ok(PartitionedGraph {
            num_nodes,
            node_edges,
            master,
            presence,
            replicas,
        })
    }

    /// Number of simulated nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Node holding the master replica of `v`.
    pub fn master(&self, v: VertexId) -> NodeId {
        self.master[v.index()]
    }

    /// Number of replicas of `v` (at least 1: the master).
    pub fn replica_count(&self, v: VertexId) -> u32 {
        self.presence[v.index()].count_ones()
    }

    /// Whether a replica of `v` lives on `node`.
    pub fn is_present(&self, v: VertexId, node: NodeId) -> bool {
        self.presence[v.index()] & (1 << node.index()) != 0
    }

    /// Bitmask of nodes hosting `v`.
    pub fn presence_mask(&self, v: VertexId) -> u64 {
        self.presence[v.index()]
    }

    /// Edges assigned to `node`, in `(src, dst)` sorted order.
    pub fn node_edges(&self, node: NodeId) -> &[(VertexId, VertexId)] {
        &self.node_edges[node.index()]
    }

    /// Average number of replicas per vertex — PowerGraph's replication
    /// factor, the key metric a vertex-cut partitioner minimizes.
    pub fn replication_factor(&self) -> f64 {
        if self.presence.is_empty() {
            return 1.0;
        }
        self.replicas as f64 / self.presence.len() as f64
    }

    /// Total number of edges across all nodes.
    pub fn total_edges(&self) -> usize {
        self.node_edges.iter().map(Vec::len).sum()
    }

    /// Grows the partition's vertex range to `n`, assigning masters to the
    /// new vertices with the same salted hash a cold build uses (so a
    /// grown partition and a cold build on the grown graph agree on
    /// master placement).
    ///
    /// `seed` must be the seed the partition was built with.
    pub fn ensure_vertices(&mut self, n: usize, seed: u64) {
        for u in self.master.len() as u32..n as u32 {
            let node = master_node(seed, self.num_nodes, u);
            self.master.push(node);
            self.presence.push(1u64 << node.index());
            self.replicas += 1;
        }
    }

    /// Routes a new edge onto a node with the partition's placement
    /// `strategy` (the same formula a cold build applies, so hash-based
    /// strategies place incrementally-added edges exactly where a rebuild
    /// would) and inserts it into that node's sorted edge list. Returns
    /// the chosen node.
    ///
    /// `seed` must be the seed the partition was built with. The edge's
    /// endpoints must already be covered by the vertex range (see
    /// [`PartitionedGraph::ensure_vertices`]); inserting a duplicate edge
    /// is the caller's bug and leaves the list with two copies.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> NodeId {
        let loads: Vec<u64> = self.node_edges.iter().map(|e| e.len() as u64).collect();
        let node = self.placement(u, v, strategy, seed, &loads);
        let list = &mut self.node_edges[node];
        let pos = list.partition_point(|&e| e < (u, v));
        list.insert(pos, (u, v));
        let node = NodeId::new(node as u16);
        self.mark_present(u, node);
        self.mark_present(v, node);
        node
    }

    /// The node `strategy` routes edge `(u, v)` onto, given the current
    /// per-node `loads` (only consulted by the greedy heuristic). Pure:
    /// nothing is inserted.
    pub(crate) fn placement(
        &self,
        u: VertexId,
        v: VertexId,
        strategy: PartitionStrategy,
        seed: u64,
        loads: &[u64],
    ) -> usize {
        match strategy {
            PartitionStrategy::RandomVertexCut => {
                (hash2(seed, u.as_u32() as u64, v.as_u32() as u64) % self.num_nodes as u64) as usize
            }
            PartitionStrategy::SourceHash1D => {
                (hash1(seed, u.as_u32() as u64) % self.num_nodes as u64) as usize
            }
            PartitionStrategy::GreedyVertexCut => greedy_pick(
                self.presence[u.index()],
                self.presence[v.index()],
                loads,
                hash2(seed, u.as_u32() as u64, v.as_u32() as u64),
            ),
        }
    }

    /// Finds the node holding edge `(u, v)` without removing it.
    ///
    /// Hash-placed strategies compute the node directly (their placement
    /// is a pure function of the edge); the greedy strategy — whose
    /// placement depends on build history — falls back to scanning the
    /// per-node sorted lists.
    pub fn locate_edge(
        &self,
        u: VertexId,
        v: VertexId,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Option<NodeId> {
        if !matches!(strategy, PartitionStrategy::GreedyVertexCut) {
            let node = self.placement(u, v, strategy, seed, &[]);
            return self.node_edges[node]
                .binary_search(&(u, v))
                .ok()
                .map(|_| NodeId::new(node as u16));
        }
        for (n, list) in self.node_edges.iter().enumerate() {
            if list.binary_search(&(u, v)).is_ok() {
                return Some(NodeId::new(n as u16));
            }
        }
        None
    }

    /// Records that a replica of `v` lives on `node` (used when batching
    /// edge insertions outside [`PartitionedGraph::insert_edge`]).
    pub(crate) fn mark_present(&mut self, v: VertexId, node: NodeId) {
        let mask = &mut self.presence[v.index()];
        let bit = 1 << node.index();
        if *mask & bit == 0 {
            *mask |= bit;
            self.replicas += 1;
        }
    }

    /// Splices every touched node's edge list — each list is rebuilt by
    /// copying the unchanged runs between its (sorted) `removed` and
    /// `added` entries, so the cost is O(list bytes) memcpy plus
    /// O(delta log list) search work; untouched nodes are skipped
    /// entirely.
    pub(crate) fn splice_nodes(
        &mut self,
        removed_by_node: &[Vec<(VertexId, VertexId)>],
        added_by_node: &[Vec<(VertexId, VertexId)>],
    ) {
        for ((list, removed), added) in self
            .node_edges
            .iter_mut()
            .zip(removed_by_node)
            .zip(added_by_node)
        {
            if removed.is_empty() && added.is_empty() {
                continue;
            }
            splice_list(list, removed, added);
        }
    }

    /// Removes edge `(u, v)` from whichever node holds it, returning that
    /// node, or `None` when no node does.
    ///
    /// Replica presence is left untouched: a vertex may keep a (now
    /// edge-less) replica on the node, so the replication factor becomes
    /// an upper bound until the next full rebuild. Program results are
    /// unaffected — gathers iterate edge lists, not presence — only the
    /// simulated memory/broadcast accounting is slightly pessimistic.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Option<NodeId> {
        for (n, list) in self.node_edges.iter_mut().enumerate() {
            if let Ok(pos) = list.binary_search(&(u, v)) {
                list.remove(pos);
                return Some(NodeId::new(n as u16));
            }
        }
        None
    }
}

/// PowerGraph greedy heuristic: prefer nodes already hosting both endpoints,
/// then either endpoint, then the least-loaded node; ties break by load and
/// then by hash.
fn greedy_pick(mask_u: u64, mask_v: u64, loads: &[u64], tiebreak: u64) -> usize {
    let both = mask_u & mask_v;
    let either = mask_u | mask_v;
    let candidates = if both != 0 {
        both
    } else if either != 0 {
        either
    } else {
        u64::MAX
    };
    let mut best = usize::MAX;
    let mut best_load = u64::MAX;
    for (node, &load) in loads.iter().enumerate() {
        if candidates & (1u64 << node) == 0 {
            continue;
        }
        // Deterministic tie-break: rotate preference by the edge hash.
        let better = load < best_load
            || (load == best_load
                && (tiebreak as usize % loads.len()).abs_diff(node)
                    < (tiebreak as usize % loads.len()).abs_diff(best));
        if better {
            best = node;
            best_load = load;
        }
    }
    best
}

/// One sorted splice: `removed` dropped from and `added` woven into the
/// sorted `list`.
///
/// Instead of a per-element merge, the (few) change points are located
/// with binary searches and the unchanged runs between them are copied
/// as whole slices — the splice is memcpy-bound, O(list) bytes moved
/// with O(delta log list) search work.
fn splice_list(
    list: &mut Vec<(VertexId, VertexId)>,
    removed: &[(VertexId, VertexId)],
    added: &[(VertexId, VertexId)],
) {
    let old = std::mem::take(list);
    // Change events in `old`-index order: a removal skips the element at
    // its index, an insertion emits before it. Same-index events stay in
    // value order because `removed`/`added` are sorted and the sort is
    // stable on the index.
    enum Change {
        Skip,
        Emit((VertexId, VertexId)),
    }
    let mut events: Vec<(usize, Change)> = Vec::with_capacity(removed.len() + added.len());
    // Emits are pushed before skips so that at equal indices the stable
    // sort keeps the insertion (whose value is smaller than the removed
    // element at that index) ahead of the skip.
    for &a in added {
        events.push((old.partition_point(|&e| e < a), Change::Emit(a)));
    }
    for &r in removed {
        if let Ok(i) = old.binary_search(&r) {
            events.push((i, Change::Skip));
        }
    }
    events.sort_by_key(|&(i, _)| i);

    let mut merged = Vec::with_capacity(old.len() + added.len() - removed.len().min(old.len()));
    let mut pos = 0usize;
    for (idx, change) in events {
        merged.extend_from_slice(&old[pos..idx]);
        pos = idx;
        match change {
            Change::Skip => pos += 1,
            Change::Emit(a) => merged.push(a),
        }
    }
    merged.extend_from_slice(&old[pos..]);
    *list = merged;
}

/// Salt separating master assignment from edge placement hashing.
const MASTER_SALT: u64 = 0xAB5E;

/// The node holding the master replica of `vertex` in any partition built
/// over `num_nodes` nodes with `seed` — the pure placement function both
/// [`PartitionedGraph::build`] and [`PartitionedGraph::ensure_vertices`]
/// apply.
///
/// Exposed so layers that route work by master ownership (the shard
/// router) can compute placement without holding a partition — including
/// for vertices a future delta will introduce.
pub fn master_node(seed: u64, num_nodes: usize, vertex: u32) -> NodeId {
    NodeId::new((hash1(seed ^ MASTER_SALT, vertex as u64) % num_nodes as u64) as u16)
}

/// The gather runs of one partition's edge list: per gatherer, in
/// ascending id order, the contiguous stretch of edges it gathers over.
///
/// `edges` must be sorted in `(src, dst)` order, how [`PartitionedGraph`]
/// keeps every node's list, so a gatherer's run is its out-edges. With
/// `active` set, only the listed gatherers (ascending) yield runs, and
/// each run is found by galloping from the previous run's end: a step
/// costs O(active gatherers + their edges) on sparse frontiers and
/// O(edges) on a full one. Without it, every gatherer present in the
/// list yields its run.
pub(crate) fn gather_runs<I: Iterator<Item = VertexId>>(
    edges: &[(VertexId, VertexId)],
    active: Option<I>,
) -> GatherRuns<'_, I> {
    GatherRuns { edges, active }
}

/// Iterator of [`gather_runs`].
pub(crate) struct GatherRuns<'e, I> {
    /// The edges not yet consumed.
    edges: &'e [(VertexId, VertexId)],
    active: Option<I>,
}

impl<'e, I: Iterator<Item = VertexId>> Iterator for GatherRuns<'e, I> {
    type Item = (VertexId, &'e [(VertexId, VertexId)]);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let first = self.edges.first()?;
            let u = match &mut self.active {
                None => first.0,
                Some(active) => {
                    let u = active.next()?;
                    let skip = gallop(self.edges, |e| e.0 < u);
                    self.edges = self.edges.get(skip..).unwrap_or_default();
                    u
                }
            };
            let len = self.edges.iter().take_while(|e| e.0 == u).count();
            let (run, rest) = self.edges.split_at(len);
            self.edges = rest;
            if !run.is_empty() {
                return Some((u, run));
            }
        }
    }
}

/// `s.partition_point(pred)` for a monotone `pred`, found by exponential
/// search from the front: O(log k) for an answer of k.
fn gallop<T>(s: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut bound = 1;
    while bound < s.len() && pred(&s[bound]) {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + s[lo..bound.min(s.len())].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snaple_graph::{gen, CsrGraph};

    fn test_graph() -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(5);
        gen::erdos_renyi(200, 800, &mut rng).into_symmetric_graph()
    }

    #[test]
    fn every_strategy_covers_all_edges_exactly_once() {
        let g = test_graph();
        for strategy in PartitionStrategy::all() {
            let p = PartitionedGraph::build(&g, 8, strategy, 42).unwrap();
            assert_eq!(p.total_edges(), g.num_edges(), "{strategy:?}");
            let mut collected: Vec<(u32, u32)> = (0..8)
                .flat_map(|n| {
                    p.node_edges(NodeId::new(n))
                        .iter()
                        .map(|&(u, v)| (u.as_u32(), v.as_u32()))
                })
                .collect();
            collected.sort_unstable();
            let expected: Vec<(u32, u32)> =
                g.edges().map(|(u, v)| (u.as_u32(), v.as_u32())).collect();
            assert_eq!(collected, expected, "{strategy:?}");
        }
    }

    #[test]
    fn node_edge_lists_stay_sorted() {
        let g = test_graph();
        let p = PartitionedGraph::build(&g, 4, PartitionStrategy::RandomVertexCut, 1).unwrap();
        for n in 0..4 {
            let edges = p.node_edges(NodeId::new(n));
            assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn masters_are_present_and_replication_at_least_one() {
        let g = test_graph();
        let p = PartitionedGraph::build(&g, 8, PartitionStrategy::GreedyVertexCut, 9).unwrap();
        for v in g.vertices() {
            assert!(p.is_present(v, p.master(v)), "{v}");
            assert!(p.replica_count(v) >= 1);
        }
        assert!(p.replication_factor() >= 1.0);
    }

    #[test]
    fn endpoints_are_present_where_their_edges_live() {
        let g = test_graph();
        let p = PartitionedGraph::build(&g, 8, PartitionStrategy::RandomVertexCut, 3).unwrap();
        for n in 0..8 {
            let node = NodeId::new(n);
            for &(u, v) in p.node_edges(node) {
                assert!(p.is_present(u, node));
                assert!(p.is_present(v, node));
            }
        }
    }

    #[test]
    fn source_hash_keeps_out_edges_together() {
        let g = test_graph();
        let p = PartitionedGraph::build(&g, 8, PartitionStrategy::SourceHash1D, 3).unwrap();
        // Each vertex's out-edges must all live on a single node.
        for u in g.vertices() {
            let mut nodes: Vec<u16> = (0..8u16)
                .filter(|&n| p.node_edges(NodeId::new(n)).iter().any(|&(s, _)| s == u))
                .collect();
            nodes.dedup();
            assert!(nodes.len() <= 1, "vertex {u} spread over {nodes:?}");
        }
    }

    #[test]
    fn greedy_beats_random_on_replication() {
        let g = test_graph();
        let random =
            PartitionedGraph::build(&g, 16, PartitionStrategy::RandomVertexCut, 11).unwrap();
        let greedy =
            PartitionedGraph::build(&g, 16, PartitionStrategy::GreedyVertexCut, 11).unwrap();
        assert!(
            greedy.replication_factor() < random.replication_factor(),
            "greedy {} vs random {}",
            greedy.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn single_node_partition_has_replication_one() {
        let g = test_graph();
        let p = PartitionedGraph::build(&g, 1, PartitionStrategy::RandomVertexCut, 0).unwrap();
        assert!((p.replication_factor() - 1.0).abs() < 1e-12);
        assert_eq!(p.total_edges(), g.num_edges());
    }

    #[test]
    fn rejects_invalid_node_counts() {
        let g = test_graph();
        assert!(matches!(
            PartitionedGraph::build(&g, 0, PartitionStrategy::RandomVertexCut, 0),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            PartitionedGraph::build(&g, 65, PartitionStrategy::RandomVertexCut, 0),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn partitioning_is_deterministic() {
        let g = test_graph();
        let a = PartitionedGraph::build(&g, 8, PartitionStrategy::GreedyVertexCut, 7).unwrap();
        let b = PartitionedGraph::build(&g, 8, PartitionStrategy::GreedyVertexCut, 7).unwrap();
        for n in 0..8 {
            assert_eq!(a.node_edges(NodeId::new(n)), b.node_edges(NodeId::new(n)));
        }
    }

    #[test]
    fn hash_strategies_place_incremental_edges_like_a_cold_build() {
        // Build a graph missing a few edges, insert them incrementally,
        // and compare against a cold partition of the complete graph:
        // hash-placed strategies must land every edge on the same node.
        let complete = test_graph();
        let all: Vec<(u32, u32)> = complete
            .edges()
            .map(|(u, v)| (u.as_u32(), v.as_u32()))
            .collect();
        let (held_out, kept) = all.split_at(10);
        let base = CsrGraph::from_edges(complete.num_vertices(), kept);
        for strategy in [
            PartitionStrategy::RandomVertexCut,
            PartitionStrategy::SourceHash1D,
        ] {
            let mut incremental = PartitionedGraph::build(&base, 8, strategy, 42).unwrap();
            for &(u, v) in held_out {
                incremental.insert_edge(VertexId::new(u), VertexId::new(v), strategy, 42);
            }
            let cold = PartitionedGraph::build(&complete, 8, strategy, 42).unwrap();
            for n in 0..8 {
                let node = NodeId::new(n);
                assert_eq!(
                    incremental.node_edges(node),
                    cold.node_edges(node),
                    "{strategy:?} node {n}"
                );
            }
        }
    }

    #[test]
    fn incremental_inserts_keep_lists_sorted_and_presence_consistent() {
        let g = test_graph();
        let mut p = PartitionedGraph::build(&g, 6, PartitionStrategy::GreedyVertexCut, 5).unwrap();
        let before = p.total_edges();
        let node = p.insert_edge(
            VertexId::new(0),
            VertexId::new(199),
            PartitionStrategy::GreedyVertexCut,
            5,
        );
        assert_eq!(p.total_edges(), before + 1);
        assert!(p.is_present(VertexId::new(0), node));
        assert!(p.is_present(VertexId::new(199), node));
        for n in 0..6 {
            let edges = p.node_edges(NodeId::new(n));
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "node {n} unsorted");
        }
        // The running replica count matches a recount after growth too.
        p.ensure_vertices(205, 5);
        p.insert_edge(
            VertexId::new(3),
            VertexId::new(204),
            PartitionStrategy::GreedyVertexCut,
            5,
        );
        let recount: u32 = (0..205).map(|v| p.replica_count(VertexId::new(v))).sum();
        assert_eq!(p.replication_factor(), recount as f64 / 205.0);
    }

    #[test]
    fn batched_splices_match_per_edge_mutations() {
        let g = test_graph();
        let strategy = PartitionStrategy::RandomVertexCut;
        let mut batched = PartitionedGraph::build(&g, 8, strategy, 3).unwrap();
        let mut one_by_one = batched.clone();

        let removals: Vec<(VertexId, VertexId)> = g.edges().step_by(7).collect();
        let additions: Vec<(VertexId, VertexId)> = (0..12u32)
            .map(|i| (VertexId::new(i), VertexId::new(199 - i)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .collect();

        let mut removed_by_node = vec![Vec::new(); 8];
        for &(u, v) in &removals {
            let node = batched.locate_edge(u, v, strategy, 3).unwrap();
            removed_by_node[node.index()].push((u, v));
        }
        let mut added_by_node = vec![Vec::new(); 8];
        for &(u, v) in &additions {
            let node = batched.placement(u, v, strategy, 3, &[]);
            added_by_node[node].push((u, v));
        }
        for n in 0..8 {
            removed_by_node[n].sort_unstable();
            added_by_node[n].sort_unstable();
        }
        batched.splice_nodes(&removed_by_node, &added_by_node);

        for &(u, v) in &removals {
            one_by_one.remove_edge(u, v).unwrap();
        }
        for &(u, v) in &additions {
            one_by_one.insert_edge(u, v, strategy, 3);
        }
        for n in 0..8 {
            assert_eq!(
                batched.node_edges(NodeId::new(n)),
                one_by_one.node_edges(NodeId::new(n)),
                "node {n}"
            );
        }
    }

    #[test]
    fn remove_edge_finds_and_drops_exactly_one_copy() {
        let g = test_graph();
        let mut p = PartitionedGraph::build(&g, 8, PartitionStrategy::RandomVertexCut, 3).unwrap();
        let (u, v) = g.edges().next().unwrap();
        let before = p.total_edges();
        let node = p.remove_edge(u, v).expect("edge must be found");
        assert_eq!(p.total_edges(), before - 1);
        assert!(!p.node_edges(node).contains(&(u, v)));
        // Absent edges are reported as such.
        assert_eq!(p.remove_edge(u, v), None);
    }

    #[test]
    fn ensure_vertices_matches_cold_master_assignment() {
        let g = test_graph();
        let mut small =
            PartitionedGraph::build(&g, 8, PartitionStrategy::RandomVertexCut, 7).unwrap();
        small.ensure_vertices(g.num_vertices() + 30, 7);
        let bigger_edges: Vec<(u32, u32)> =
            g.edges().map(|(u, v)| (u.as_u32(), v.as_u32())).collect();
        let big_graph = CsrGraph::from_edges(g.num_vertices() + 30, &bigger_edges);
        let cold =
            PartitionedGraph::build(&big_graph, 8, PartitionStrategy::RandomVertexCut, 7).unwrap();
        for u in 0..(g.num_vertices() + 30) as u32 {
            assert_eq!(
                small.master(VertexId::new(u)),
                cold.master(VertexId::new(u)),
                "vertex {u}"
            );
        }
    }

    #[test]
    fn empty_graph_partitions_cleanly() {
        let g = CsrGraph::from_edges(0, &[]);
        let p = PartitionedGraph::build(&g, 4, PartitionStrategy::RandomVertexCut, 0).unwrap();
        assert_eq!(p.total_edges(), 0);
        assert!((p.replication_factor() - 1.0).abs() < 1e-12);
    }
    #[test]
    fn gallop_matches_partition_point() {
        let s: Vec<u32> = (0..300).map(|i| i / 3).collect();
        for t in 0..105 {
            assert_eq!(gallop(&s, |&x| x < t), s.partition_point(|&x| x < t), "{t}");
        }
        assert_eq!(gallop(&[] as &[u32], |_| true), 0);
    }

    #[test]
    fn gather_runs_split_sorted_edges_by_gatherer() {
        let e = |s: u32, d: u32| (VertexId::new(s), VertexId::new(d));
        let out = [
            e(0, 1),
            e(0, 4),
            e(2, 0),
            e(5, 1),
            e(5, 2),
            e(5, 3),
            e(9, 0),
        ];
        let all: Vec<(u32, usize)> = gather_runs(&out, None::<std::iter::Empty<_>>)
            .map(|(u, run)| (u.as_u32(), run.len()))
            .collect();
        assert_eq!(all, vec![(0, 2), (2, 1), (5, 3), (9, 1)]);
        // Active gatherers without edges here yield nothing; the rest
        // yield exactly their dense runs.
        let active = [1u32, 2, 5, 7, 9, 11].map(VertexId::new);
        let some: Vec<(u32, usize)> = gather_runs(&out, Some(active.into_iter()))
            .map(|(u, run)| (u.as_u32(), run.len()))
            .collect();
        assert_eq!(some, vec![(2, 1), (5, 3), (9, 1)]);
    }
}
