//! Prepared deployments: the shareable half of an engine, now refreshable
//! in place.
//!
//! Building a vertex-cut partition is O(edges) — by far the most expensive
//! part of setting up a GAS run. A [`Deployment`] bundles that partition
//! with the cluster description and its calibrated [`CostModel`] so the
//! whole package can be built **once** and then shared by any number of
//! [`Engine`](crate::Engine)s (see [`Engine::on`](crate::Engine::on)):
//!
//! ```
//! use snaple_gas::{ClusterSpec, Deployment, Engine, PartitionStrategy};
//! use snaple_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
//! let deployment = Deployment::new(&g, ClusterSpec::type_i(2),
//!                                  PartitionStrategy::RandomVertexCut, 7)?;
//! // Many engines, one partition: per-run accounting stays per-engine,
//! // the O(edges) partition build is paid exactly once.
//! let first = Engine::on(&deployment);
//! let second = Engine::on(&deployment);
//! assert_eq!(first.graph().num_edges(), second.graph().num_edges());
//! # Ok::<(), snaple_gas::EngineError>(())
//! ```
//!
//! # The delta lifecycle: prepare → execute → `apply_delta` → execute
//!
//! A serving deployment over a *growing* graph must not repartition
//! O(edges) state whenever a follow edge arrives.
//! [`Deployment::apply_delta`] ingests a
//! [`snaple_graph::GraphDelta`] incrementally: the deployment holds its
//! graph in a [`LiveGraph`], whose
//! [`fold`](snaple_graph::LiveGraph::fold) runs the one linear
//! CSR merge in place (after materializing a borrowed or file-backed
//! graph once, on the first delta), removed
//! edges are dropped from — and inserted edges routed onto — only the
//! partitions that actually hold them, and the per-partition cost-model
//! entries (static CSR bytes per node) are rebuilt for the touched
//! partitions alone. Engines created after the apply observe the mutated
//! graph; program results are bit-identical to a cold rebuild on that
//! graph, because GAS program output never depends on edge placement
//! (the engine's cross-cluster determinism guarantee).
//!
//! ```
//! use snaple_gas::{ClusterSpec, Deployment, PartitionStrategy};
//! use snaple_graph::{CsrGraph, GraphDelta};
//!
//! let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
//! let mut deployment = Deployment::new(&g, ClusterSpec::type_i(2),
//!                                      PartitionStrategy::RandomVertexCut, 7)?;
//! let mut delta = GraphDelta::new();
//! delta.insert(0, 2).remove(1, 2);
//! let applied = deployment.apply_delta(&delta)?;
//! assert_eq!(applied.inserted_edges, 1);
//! assert_eq!(applied.removed_edges, 1);
//! assert_eq!(deployment.graph().num_edges(), 3);
//! # Ok::<(), snaple_gas::EngineError>(())
//! ```
//!
//! This split is what turns a one-shot predictor into a *prepare once,
//! execute many* server: the serving layers upstream
//! (`snaple_core::Predictor::prepare`, `snaple_core::serve::Server`) hold a
//! `Deployment` per graph/cluster pair, spin up a fresh engine per request
//! stream step, and refresh the deployment in place when update batches
//! interleave with prediction batches.

use std::time::Instant;

use snaple_graph::{GraphDelta, GraphStore, LiveGraph, VertexId};

use crate::cluster::{ClusterSpec, NodeId};
use crate::cost::CostModel;
use crate::error::EngineError;
use crate::partition::{PartitionStrategy, PartitionedGraph};

/// What one [`Deployment::apply_delta`] call did, and what it cost.
#[derive(Clone, Debug, Default)]
pub struct DeltaStats {
    /// Effective edge insertions applied (no-ops already dropped).
    pub inserted_edges: usize,
    /// Effective edge removals applied.
    pub removed_edges: usize,
    /// Vertices the graph grew by (insertions referencing new ids).
    pub grown_vertices: usize,
    /// Distinct partitions whose edge lists (and cached cost-model
    /// entries) were touched — the incremental win: a small delta touches
    /// a handful of partitions, a full rebuild touches all of them.
    pub touched_partitions: usize,
    /// Host wall-clock seconds the whole apply took (compact + re-route).
    pub apply_wall_seconds: f64,
}

/// The immutable-between-updates heavy state of a GAS run: graph, cluster,
/// vertex-cut partition and cost model.
///
/// The graph can be either [`GraphStore`] backend — an in-memory
/// `CsrGraph` or a file-backed `snaple_graph::v2::FileCsr` — and
/// partitioning, supersteps and delta applies behave identically over
/// both. It is held in a [`LiveGraph`]: the caller's borrow until the
/// first applied delta, an owned in-memory CSR afterwards (the mutated
/// graph no longer matches the caller's graph or the on-disk bytes), and
/// a shared handle in a [`detach`](Deployment::detach)ed fork of a
/// file-backed graph.
///
/// See the [module docs](self) for why this exists, how it is shared, and
/// how [`Deployment::apply_delta`] refreshes it in place.
#[derive(Clone, Debug)]
pub struct Deployment<'g> {
    graph: LiveGraph<'g>,
    cluster: ClusterSpec,
    strategy: PartitionStrategy,
    seed: u64,
    part: PartitionedGraph,
    cost: CostModel,
    /// Per-node static CSR share in bytes (8 per stored edge) — the
    /// partition-local cost-model entry engines charge as each node's
    /// memory base. Rebuilt only for touched partitions on delta applies.
    node_static_bytes: Vec<u64>,
    partition_build_seconds: f64,
    deltas_applied: usize,
    delta_apply_seconds: f64,
    delta_touched_partitions: usize,
}

impl<'g> Deployment<'g> {
    /// Partitions `graph` over `cluster` and derives the cluster's cost
    /// model, recording how long the partition build took on the host.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for unusable cluster shapes
    /// (zero nodes, more than [`crate::partition::MAX_NODES`] nodes), and
    /// [`EngineError::GraphFault`] when a section the partition build
    /// read failed to load.
    pub fn new(
        graph: &'g dyn GraphStore,
        cluster: ClusterSpec,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Result<Self, EngineError> {
        let started = Instant::now();
        let part = PartitionedGraph::build(graph, cluster.nodes, strategy, seed)?;
        graph.check_fault()?;
        let partition_build_seconds = started.elapsed().as_secs_f64();
        let cost = CostModel::for_cluster(&cluster);
        let node_static_bytes = (0..part.num_nodes())
            .map(|n| part.node_edges(NodeId::new(n as u16)).len() as u64 * 8)
            .collect();
        Ok(Deployment {
            graph: LiveGraph::Borrowed(graph),
            cluster,
            strategy,
            seed,
            part,
            cost,
            node_static_bytes,
            partition_build_seconds,
            deltas_applied: 0,
            delta_apply_seconds: 0.0,
            delta_touched_partitions: 0,
        })
    }

    /// Ingests a batch of edge insertions/removals *incrementally*: the
    /// graph is compacted with a linear merge, and only the vertex-cut
    /// partitions holding a removed edge or receiving an inserted one are
    /// re-routed — partitions the delta does not touch keep their edge
    /// lists and cached cost entries byte-for-byte.
    ///
    /// Engines created on this deployment after the call run on the
    /// mutated graph; their results are bit-identical to a cold
    /// [`Deployment::new`] on that graph. The cumulative apply time and
    /// touched-partition count are surfaced in every subsequent run's
    /// [`RunStats`](crate::RunStats).
    ///
    /// A delta whose every operation is a no-op against the current graph
    /// (inserting present edges, removing absent ones) returns zeroed
    /// counts without rebuilding anything.
    ///
    /// # Errors
    ///
    /// [`EngineError::GraphFault`] when a section of a file-backed graph
    /// failed to load; the deployment is then left unchanged.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, EngineError> {
        let started = Instant::now();
        let overlay = delta.resolve(self.graph.store());
        self.graph.store().check_fault()?;
        if overlay.is_noop() {
            let stats = DeltaStats {
                apply_wall_seconds: started.elapsed().as_secs_f64(),
                ..DeltaStats::default()
            };
            self.deltas_applied += 1;
            self.delta_apply_seconds += stats.apply_wall_seconds;
            return Ok(stats);
        }
        let grown_vertices = overlay.num_vertices() - self.graph.store().num_vertices();

        // Fold the overlay in before the partition is touched, so a
        // file-backed graph whose sections fail to load leaves the
        // deployment unchanged.
        self.graph.fold(&overlay)?;
        self.part.ensure_vertices(overlay.num_vertices(), self.seed);

        // Route the whole batch first, then splice each touched node's
        // edge list in one merge pass — O(delta + touched lists), instead
        // of one O(list) shift per edge.
        let nodes = self.part.num_nodes();
        let removed: Vec<_> = overlay
            .removed_edges()
            .filter_map(|(u, v)| {
                let node = self.part.locate_edge(u, v, self.strategy, self.seed)?;
                Some((node.index(), (u, v)))
            })
            .collect();
        let removed_by_node = group_by_node(nodes, removed);
        // Greedy placement consults live state: loads net of the edges
        // queued for removal, and presence bits updated as each insert
        // lands — so a batch routes exactly like a sequence of per-edge
        // `insert_edge` calls preceded by the removals.
        let mut loads: Vec<u64> = removed_by_node
            .iter()
            .enumerate()
            .map(|(n, gone)| {
                (self.part.node_edges(NodeId::new(n as u16)).len() - gone.len()) as u64
            })
            .collect();
        let mut added = Vec::with_capacity(overlay.num_inserted());
        for (u, v, _) in overlay.inserted_edges() {
            let node = self.part.placement(u, v, self.strategy, self.seed, &loads);
            if let Some(load) = loads.get_mut(node) {
                *load += 1;
            }
            added.push((node, (u, v)));
            self.part.mark_present(u, NodeId::new(node as u16));
            self.part.mark_present(v, NodeId::new(node as u16));
        }
        let added_by_node = group_by_node(nodes, added);
        // Bitmask over MAX_NODES ≤ 64 partitions.
        let touched = removed_by_node
            .iter()
            .zip(&added_by_node)
            .enumerate()
            .filter(|(_, (gone, new))| !gone.is_empty() || !new.is_empty())
            .fold(0u64, |mask, (n, _)| mask | 1 << n);

        self.part.splice_nodes(&removed_by_node, &added_by_node);
        // Refresh the touched partitions' cached cost-model entries;
        // untouched entries are already exact.
        for (n, bytes) in self.node_static_bytes.iter_mut().enumerate() {
            if touched >> n & 1 == 1 {
                *bytes = self.part.node_edges(NodeId::new(n as u16)).len() as u64 * 8;
            }
        }

        let stats = DeltaStats {
            inserted_edges: overlay.num_inserted(),
            removed_edges: overlay.num_removed(),
            grown_vertices,
            touched_partitions: touched.count_ones() as usize,
            apply_wall_seconds: started.elapsed().as_secs_f64(),
        };
        self.deltas_applied += 1;
        self.delta_apply_seconds += stats.apply_wall_seconds;
        self.delta_touched_partitions += stats.touched_partitions;
        Ok(stats)
    }

    /// Clones the deployment into a `'static` snapshot, detached from the
    /// caller's borrow.
    ///
    /// This is the building block of *epoch-based* serving
    /// (`snaple_core::concurrent`): a concurrent server forks the current
    /// deployment off to the side, applies a delta to the fork, and
    /// atomically publishes it — readers keep executing on the old epoch
    /// and never observe a half-applied update. The graph detaches by
    /// [`LiveGraph::detach`]: an in-memory graph is copied, a file-backed
    /// one is shared behind an `Arc` (the fork's first
    /// [`Deployment::apply_delta`] materializes it). The partition edge
    /// lists are copied; the apply on the fork is still incremental.
    pub fn detach(&self) -> Deployment<'static> {
        Deployment {
            graph: self.graph.detach(),
            cluster: self.cluster.clone(),
            strategy: self.strategy,
            seed: self.seed,
            part: self.part.clone(),
            cost: self.cost.clone(),
            node_static_bytes: self.node_static_bytes.clone(),
            partition_build_seconds: self.partition_build_seconds,
            deltas_applied: self.deltas_applied,
            delta_apply_seconds: self.delta_apply_seconds,
            delta_touched_partitions: self.delta_touched_partitions,
        }
    }

    /// The graph this deployment partitions — the *current* graph,
    /// reflecting every applied delta.
    pub fn graph(&self) -> &dyn GraphStore {
        self.graph.store()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The edge-placement strategy the partition was built with.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The seed the partition was built with (also the default step seed of
    /// engines running on this deployment).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The vertex-cut partition.
    pub fn partitioned(&self) -> &PartitionedGraph {
        &self.part
    }

    /// The cluster's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Per-node static CSR bytes — the partition-local cost entries,
    /// maintained incrementally across delta applies.
    pub fn node_static_bytes(&self) -> &[u64] {
        &self.node_static_bytes
    }

    /// Host wall-clock seconds spent building the partition — the setup
    /// cost that sharing a deployment amortizes away.
    pub fn partition_build_seconds(&self) -> f64 {
        self.partition_build_seconds
    }

    /// Number of [`Deployment::apply_delta`] calls absorbed so far.
    pub fn deltas_applied(&self) -> usize {
        self.deltas_applied
    }

    /// Cumulative host wall-clock seconds spent applying deltas.
    pub fn delta_apply_seconds(&self) -> f64 {
        self.delta_apply_seconds
    }

    /// Cumulative count of partitions touched by applied deltas.
    pub fn delta_touched_partitions(&self) -> usize {
        self.delta_touched_partitions
    }

    /// Replication factor of the partition.
    ///
    /// After removals this is an upper bound: replicas stranded on
    /// partitions that lost their last edge are not reclaimed until a
    /// full rebuild (see
    /// [`PartitionedGraph::remove_edge`]).
    pub fn replication_factor(&self) -> f64 {
        self.part.replication_factor()
    }
}

/// Groups node-tagged edges into one list per node, each sorted by
/// `(src, dst)` as [`PartitionedGraph::splice_nodes`] needs. Edges are
/// tagged by `placement`/`locate_edge`, so every tag is below `nodes`.
fn group_by_node(
    nodes: usize,
    mut routed: Vec<(usize, (VertexId, VertexId))>,
) -> Vec<Vec<(VertexId, VertexId)>> {
    routed.sort_unstable();
    let mut routed = routed.into_iter().peekable();
    (0..nodes)
        .map(|n| {
            std::iter::from_fn(|| routed.next_if(|&(m, _)| m == n))
                .map(|(_, edge)| edge)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use snaple_graph::CsrGraph;

    fn ring(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn deployment_captures_partition_and_timing() {
        let g = ring(50);
        let d =
            Deployment::new(&g, ClusterSpec::type_i(4), PartitionStrategy::default(), 3).unwrap();
        assert_eq!(d.partitioned().total_edges(), g.num_edges());
        assert!(d.partition_build_seconds() >= 0.0);
        assert!(d.replication_factor() >= 1.0);
        assert_eq!(d.cluster().nodes, 4);
        assert_eq!(d.seed(), 3);
        assert_eq!(d.strategy(), PartitionStrategy::RandomVertexCut);
        assert_eq!(d.deltas_applied(), 0);
        assert_eq!(d.delta_apply_seconds(), 0.0);
    }

    #[test]
    fn deployment_rejects_invalid_clusters() {
        let g = ring(10);
        let starved = ClusterSpec {
            nodes: 0,
            ..ClusterSpec::type_i(1)
        };
        assert!(matches!(
            Deployment::new(&g, starved, PartitionStrategy::default(), 0),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn deployment_partition_matches_a_direct_build() {
        let g = ring(64);
        let d = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::GreedyVertexCut,
            9,
        )
        .unwrap();
        let direct = PartitionedGraph::build(&g, 8, PartitionStrategy::GreedyVertexCut, 9).unwrap();
        for n in 0..8 {
            let node = NodeId::new(n);
            assert_eq!(d.partitioned().node_edges(node), direct.node_edges(node));
        }
    }

    #[test]
    fn apply_delta_mutates_graph_and_partition_consistently() {
        let g = ring(40);
        let mut d = Deployment::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            7,
        )
        .unwrap();
        let mut delta = GraphDelta::new();
        delta
            .insert(0, 20)
            .insert(5, 30)
            .remove(0, 1)
            .remove(10, 11);
        let stats = d.apply_delta(&delta).unwrap();
        assert_eq!(stats.inserted_edges, 2);
        assert_eq!(stats.removed_edges, 2);
        assert_eq!(stats.grown_vertices, 0);
        assert!(stats.touched_partitions >= 1 && stats.touched_partitions <= 4);
        assert!(stats.apply_wall_seconds >= 0.0);

        // Graph and partition agree on the mutated edge set.
        assert_eq!(d.graph().num_edges(), 40);
        assert_eq!(d.partitioned().total_edges(), 40);
        use snaple_graph::VertexId;
        assert!(d.graph().has_edge(VertexId::new(0), VertexId::new(20)));
        assert!(!d.graph().has_edge(VertexId::new(0), VertexId::new(1)));
        let mut collected: Vec<(u32, u32)> = (0..4)
            .flat_map(|n| {
                d.partitioned()
                    .node_edges(NodeId::new(n))
                    .iter()
                    .map(|&(u, v)| (u.as_u32(), v.as_u32()))
            })
            .collect();
        collected.sort_unstable();
        let expected: Vec<(u32, u32)> = snaple_graph::store::edges(d.graph())
            .map(|(u, v)| (u.as_u32(), v.as_u32()))
            .collect();
        assert_eq!(collected, expected);

        // Cumulative accounting carried by the deployment.
        assert_eq!(d.deltas_applied(), 1);
        assert!(d.delta_apply_seconds() > 0.0);
        assert_eq!(d.delta_touched_partitions(), stats.touched_partitions);
    }

    #[test]
    fn greedy_batched_routing_matches_per_edge_mutations() {
        // The batched routing must see live greedy state: loads net of
        // pending removals, presence updated insert-by-insert. Compare
        // against a literal sequence of remove_edge/insert_edge calls.
        let g = ring(60);
        let strategy = PartitionStrategy::GreedyVertexCut;
        let mut deployment = Deployment::new(&g, ClusterSpec::type_i(6), strategy, 11).unwrap();
        let mut delta = GraphDelta::new();
        delta.remove(0, 1).remove(10, 11).remove(20, 21);
        // Inserts sharing endpoints: the second placement must observe
        // the replica the first created.
        delta
            .insert(7, 30)
            .insert(7, 31)
            .insert(7, 32)
            .insert(30, 7);
        let overlay = delta.resolve(&g);

        let mut manual = PartitionedGraph::build(&g, 6, strategy, 11).unwrap();
        for (u, v) in overlay.removed_edges() {
            manual.remove_edge(u, v).unwrap();
        }
        for (u, v, _) in overlay.inserted_edges() {
            manual.insert_edge(u, v, strategy, 11);
        }

        deployment.apply_delta(&delta).unwrap();
        for n in 0..6 {
            let node = NodeId::new(n);
            assert_eq!(
                deployment.partitioned().node_edges(node),
                manual.node_edges(node),
                "greedy batch diverged from per-edge path on node {n}"
            );
        }
        for v in g.vertices() {
            assert_eq!(
                deployment.partitioned().presence_mask(v),
                manual.presence_mask(v),
                "presence of {v}"
            );
        }
    }

    #[test]
    fn apply_delta_grows_the_vertex_range() {
        let g = ring(10);
        let mut d = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let mut delta = GraphDelta::new();
        delta.insert(3, 14).insert(12, 0);
        let stats = d.apply_delta(&delta).unwrap();
        assert_eq!(stats.grown_vertices, 5);
        assert_eq!(d.graph().num_vertices(), 15);
        use snaple_graph::VertexId;
        // New vertices got masters and are present where their edges live.
        let p = d.partitioned();
        for v in [12u32, 14] {
            assert!(p.is_present(VertexId::new(v), p.master(VertexId::new(v))));
        }
    }

    #[test]
    fn noop_deltas_change_nothing_but_are_counted() {
        let g = ring(10);
        let mut d = Deployment::new(
            &g,
            ClusterSpec::type_i(2),
            PartitionStrategy::RandomVertexCut,
            1,
        )
        .unwrap();
        let before: Vec<u64> = d.node_static_bytes().to_vec();
        let mut delta = GraphDelta::new();
        delta.insert(0, 1).remove(5, 7); // present insert, absent removal
        let stats = d.apply_delta(&delta).unwrap();
        assert_eq!(stats.inserted_edges, 0);
        assert_eq!(stats.removed_edges, 0);
        assert_eq!(stats.touched_partitions, 0);
        assert_eq!(d.node_static_bytes(), &before[..]);
        assert_eq!(d.graph().num_edges(), 10);
        assert_eq!(d.deltas_applied(), 1);
    }

    #[test]
    fn detached_forks_apply_deltas_without_touching_the_original() {
        let g = ring(40);
        let original = Deployment::new(
            &g,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            7,
        )
        .unwrap();
        let mut fork: Deployment<'static> = original.detach();
        // The fork is byte-identical to its source...
        assert_eq!(fork.graph().num_edges(), original.graph().num_edges());
        for n in 0..4 {
            let node = NodeId::new(n);
            assert_eq!(
                fork.partitioned().node_edges(node),
                original.partitioned().node_edges(node)
            );
        }
        assert_eq!(fork.node_static_bytes(), original.node_static_bytes());
        // ...and mutating it leaves the original untouched.
        let mut delta = GraphDelta::new();
        delta.insert(0, 20).remove(0, 1);
        fork.apply_delta(&delta).unwrap();
        use snaple_graph::VertexId;
        assert!(fork.graph().has_edge(VertexId::new(0), VertexId::new(20)));
        assert!(!original
            .graph()
            .has_edge(VertexId::new(0), VertexId::new(20)));
        assert!(original
            .graph()
            .has_edge(VertexId::new(0), VertexId::new(1)));
        assert_eq!(original.deltas_applied(), 0);
        assert_eq!(fork.deltas_applied(), 1);
        // A fork of a fork keeps working (owned graphs detach too).
        let refork = fork.detach();
        assert_eq!(refork.graph().num_edges(), fork.graph().num_edges());
    }

    #[test]
    fn static_byte_cache_tracks_touched_partitions_exactly() {
        let g = ring(60);
        let mut d = Deployment::new(
            &g,
            ClusterSpec::type_i(8),
            PartitionStrategy::RandomVertexCut,
            4,
        )
        .unwrap();
        let mut delta = GraphDelta::new();
        delta.insert(0, 30).remove(20, 21);
        d.apply_delta(&delta).unwrap();
        for n in 0..8 {
            assert_eq!(
                d.node_static_bytes()[n],
                d.partitioned().node_edges(NodeId::new(n as u16)).len() as u64 * 8,
                "node {n} cache diverged"
            );
        }
    }

    /// A file-backed graph whose weights fail their checksum deploys
    /// (the partition build reads the rows only), but a delta that must
    /// materialize the graph is refused with the fault and leaves the
    /// graph, the partition and the counters as they were.
    #[test]
    fn apply_delta_on_a_faulted_file_graph_leaves_the_deployment_unchanged() {
        use snaple_graph::{io, v2, GraphBuilder};
        let mut b = GraphBuilder::new();
        for i in 0..40 {
            b.add_weighted_edge(i, (i + 1) % 40, 1.0 + i as f32);
        }
        let g = b.build();
        let mut bytes = Vec::new();
        io::write_binary(&g, &mut bytes).unwrap();
        let header = v2::parse_header(&bytes, bytes.len() as u64).unwrap();
        let at = header.section(v2::SEC_OUT_WEIGHTS).unwrap().offset as usize + 1;
        bytes[at] ^= 0xff;
        let path =
            std::env::temp_dir().join(format!("snaple-deploy-fault-{}.snplg", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = v2::FileCsr::open(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut d = Deployment::new(
            &file,
            ClusterSpec::type_i(4),
            PartitionStrategy::RandomVertexCut,
            7,
        )
        .unwrap();
        let before: Vec<Vec<_>> = (0..4)
            .map(|n| d.partitioned().node_edges(NodeId::new(n)).to_vec())
            .collect();
        let static_bytes = d.node_static_bytes().to_vec();

        let mut delta = GraphDelta::new();
        delta.insert(0, 20).remove(0, 1);
        let err = d.apply_delta(&delta).unwrap_err();
        assert!(matches!(err, EngineError::GraphFault(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_eq!(d.graph().backend_name(), "file-csr");
        assert_eq!(d.graph().num_edges(), g.num_edges());
        for (n, edges) in before.iter().enumerate() {
            assert_eq!(
                d.partitioned().node_edges(NodeId::new(n as u16)),
                &edges[..]
            );
        }
        assert_eq!(d.node_static_bytes(), &static_bytes[..]);
        assert_eq!(d.deltas_applied(), 0);
        assert_eq!(d.delta_touched_partitions(), 0);
    }
}
