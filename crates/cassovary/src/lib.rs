#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Single-machine random-walk link prediction — the reproduction's stand-in
//! for **Cassovary**, Twitter's multithreaded in-memory graph library
//! (paper §5.9).
//!
//! The paper's strongest single-machine comparator approximates
//! personalized PageRank with bounded random walks: for every vertex `u` it
//! runs `w` walks of depth `d` (following uniformly random out-edges,
//! restarting at `u` on dead ends), counts visits, and predicts the `k`
//! most-visited vertices outside `Γ(u)`. Increasing `w` and `d` widens the
//! explored neighborhood exactly like SNAPLE's `klocal` does.
//!
//! The predictor executes for real (multithreaded over vertex shards) and
//! returns the shared [`snaple_core::Prediction`] type, with simulated time
//! derived from the same [`snaple_gas::CostModel`] as the distributed runs
//! — one work unit per walk hop — so Table 6 and Figure 11 compare like
//! with like.
//!
//! Random walks are sourced per vertex, which makes this backend the
//! natural fit for targeted prediction: with
//! [`PredictRequest::queries`](snaple_core::PredictRequest::queries) only
//! the queried vertices walk, and the hop budget shrinks proportionally.
//!
//! # Example
//!
//! ```
//! use snaple_cassovary::{RandomWalkConfig, RandomWalkPpr};
//! use snaple_core::{PredictRequest, Predictor};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
//! let machine = ClusterSpec::single_machine(20, 128 << 30);
//! let ppr = RandomWalkPpr::new(RandomWalkConfig::new().walks(50).depth(3));
//! let p = Predictor::predict(&ppr, &PredictRequest::new(&g, &machine))?;
//! assert_eq!(p.num_vertices(), 4);
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use std::thread;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snaple_core::topk::top_k_by_score;
use snaple_core::{
    ExecuteRequest, Prediction, Predictor, PrepareRequest, PreparedPredictor, SetupStats,
    SnapleError,
};
use snaple_gas::stats::{NodeStats, RunStats, StepStats};
use snaple_gas::CostModel;
use snaple_graph::hash::hash2;
use snaple_graph::{GraphStore, LiveGraph, VertexId};

/// Cost of one random-walk hop, in seconds.
///
/// A hop is a uniformly random neighbor lookup plus a visit-counter
/// update — a DRAM-latency-bound operation, unlike SNAPLE's sequential
/// merge primitives. Calibrated against the paper's own Cassovary
/// measurements (§5.9: livejournal w = 100, d = 3 takes 93 s on 20 cores
/// ≈ 0.96×10⁹ hops; twitter-rv w = 1000, d = 3 takes 5 420 s ≈ 83×10⁹
/// hops), both of which give ≈ 1.9 µs per hop on the paper's JVM stack.
pub const WALK_HOP_COST: f64 = 1.9e-6;

/// Configuration of the random-walk PPR predictor.
///
/// Defaults mirror the paper's best trade-off (`w = 100`, `d = 3`,
/// `k = 5`).
#[derive(Clone, Debug)]
pub struct RandomWalkConfig {
    /// Predictions per vertex.
    pub k: usize,
    /// Number of walks per vertex (`w`).
    pub walks: usize,
    /// Walk depth (`d`): the paper's convention where `d = 2` reaches
    /// direct neighbors and `d = 3` reaches neighbors of neighbors, i.e. a
    /// walk takes `d − 1` hops.
    pub depth: usize,
    /// Random seed.
    pub seed: u64,
    /// Worker threads; `None` uses the host's available parallelism.
    pub threads: Option<usize>,
}

impl RandomWalkConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        RandomWalkConfig {
            k: 5,
            walks: 100,
            depth: 3,
            seed: 0xca550,
            threads: None,
        }
    }

    /// Sets the number of predictions per vertex.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the number of walks per vertex.
    pub fn walks(mut self, w: usize) -> Self {
        self.walks = w;
        self
    }

    /// Sets the walk depth.
    pub fn depth(mut self, d: usize) -> Self {
        self.depth = d;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, t: Option<usize>) -> Self {
        self.threads = t;
        self
    }
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Multithreaded random-walk personalized-PageRank link predictor.
#[derive(Clone, Debug)]
pub struct RandomWalkPpr {
    config: RandomWalkConfig,
}

impl RandomWalkPpr {
    /// Creates a predictor.
    pub fn new(config: RandomWalkConfig) -> Self {
        RandomWalkPpr { config }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &RandomWalkConfig {
        &self.config
    }

    fn validate_config(&self) -> Result<(), SnapleError> {
        if self.config.k == 0 {
            return Err(SnapleError::InvalidConfig(
                "k must be at least 1".to_owned(),
            ));
        }
        if self.config.walks == 0 {
            return Err(SnapleError::InvalidConfig(
                "walks must be at least 1".to_owned(),
            ));
        }
        if self.config.depth == 0 {
            return Err(SnapleError::InvalidConfig(
                "depth must be at least 1 (d = 2 reaches direct neighbors)".to_owned(),
            ));
        }
        Ok(())
    }

    /// Runs the walks for `queries` (every vertex when `None`) and
    /// assembles the shared result type: one row per vertex for an
    /// all-vertices run, the queried rows only otherwise.
    fn walk(
        &self,
        graph: &dyn GraphStore,
        cost: &CostModel,
        queries: Option<&[VertexId]>,
        seed: u64,
    ) -> Prediction {
        let n = graph.num_vertices();
        let all: Vec<VertexId>;
        let targets = match queries {
            Some(q) => q,
            None => {
                all = snaple_graph::store::vertices(graph).collect();
                &all
            }
        };
        let workers = self
            .config
            .threads
            .unwrap_or_else(snaple_gas::host_parallelism)
            .max(1);
        let chunk = targets.len().div_ceil(workers).max(1);
        let hops = self.config.depth.saturating_sub(1);

        // One shard's output: per-source prediction rows plus hops taken.
        type ShardResult = (Vec<(VertexId, Vec<(VertexId, f32)>)>, u64);
        let shard_results: Vec<ShardResult> = thread::scope(|scope| {
            let handles: Vec<_> = targets
                .chunks(chunk)
                .map(|shard| {
                    let config = &self.config;
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(shard.len());
                        let mut hop_count = 0u64;
                        let mut visits: std::collections::HashMap<VertexId, u32> =
                            std::collections::HashMap::new();
                        for &u in shard {
                            // Per-vertex RNG: results do not depend on
                            // how vertices are sharded across threads —
                            // or on which vertices are queried at all.
                            let mut rng =
                                StdRng::seed_from_u64(hash2(seed, u.as_u32() as u64, 0xca55));
                            visits.clear();
                            for _ in 0..config.walks {
                                let mut cur = u;
                                for _ in 0..hops {
                                    let nbrs = graph.out_neighbors(cur);
                                    cur = if nbrs.is_empty() {
                                        u // dead end: restart at the source
                                    } else {
                                        nbrs[rng.gen_range(0..nbrs.len())]
                                    };
                                    hop_count += 1;
                                    if cur != u {
                                        *visits.entry(cur).or_insert(0) += 1;
                                    }
                                }
                            }
                            let scored: Vec<(VertexId, f32)> = visits
                                .iter()
                                .filter(|(z, _)| !graph.has_edge(u, **z))
                                .map(|(&z, &c)| (z, c as f32))
                                .collect();
                            out.push((u, top_k_by_score(scored, config.k)));
                        }
                        (out, hop_count)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("walk worker panicked"))
                .collect()
        });
        let total_hops = shard_results.iter().map(|(_, hops_done)| hops_done).sum();
        let rows = shard_results.into_iter().flat_map(|(shard, _)| shard);
        let sources = targets.len() as u64;

        let step = StepStats {
            name: "cassovary-random-walk-ppr".to_owned(),
            gather_calls: 0,
            sum_calls: 0,
            apply_calls: sources,
            work_ops: total_hops,
            broadcast_bytes: 0,
            partial_bytes: 0,
            per_node: vec![NodeStats {
                compute_ops: total_hops,
                net_bytes: 0,
                memory_peak: graph.storage_bytes(),
            }],
            simulated_seconds: cost.step_seconds(total_hops, 0),
        };
        let stats = RunStats {
            steps: vec![step],
            replication_factor: 1.0,
            ..RunStats::default()
        };
        match queries {
            Some(_) => Prediction::from_rows(n, rows, stats),
            None => Prediction::from_parts(rows.map(|(_, preds)| preds).collect(), stats),
        }
    }
}

/// A random-walk predictor with its per-graph state precomputed: the
/// hop-calibrated cost model.
///
/// Random walks need no partition, so `prepare` is cheap here — but going
/// through the same lifecycle lets the serving layer treat every backend
/// uniformly. The graph is held in a [`LiveGraph`]: the caller's borrow
/// until a delta is applied (see [`PreparedPredictor::apply_delta`]), an
/// owned CSR afterwards, so a served stream can keep mutating it in
/// place.
pub struct PreparedWalk<'a> {
    ppr: RandomWalkPpr,
    graph: LiveGraph<'a>,
    cost: CostModel,
    delta_apply_seconds: f64,
    setup: SetupStats,
}

impl PreparedPredictor for PreparedWalk<'_> {
    fn execute(&self, req: &ExecuteRequest<'_>) -> Result<Prediction, SnapleError> {
        req.validate_for(self.graph.store())?;
        if req.attributes().is_some() {
            return Err(SnapleError::InvalidConfig(
                "random-walk PPR scores structure only and accepts no content attributes"
                    .to_owned(),
            ));
        }
        let mut prediction = self.ppr.walk(
            self.graph.store(),
            &self.cost,
            req.queries().map(|q| q.as_slice()),
            req.seed().unwrap_or(self.ppr.config.seed),
        );
        // A section that failed to load during the walks was read as
        // empty lists, so the rows cannot be trusted.
        self.graph.store().check_fault()?;
        prediction.stats.delta_apply_seconds = self.delta_apply_seconds;
        Ok(prediction)
    }

    /// Folds the delta into the owned graph. Partition-free: the
    /// touched-partition count is always zero.
    fn apply_delta(
        &mut self,
        delta: &snaple_graph::GraphDelta,
    ) -> Result<snaple_gas::DeltaStats, SnapleError> {
        let started = Instant::now();
        let overlay = delta.resolve(self.graph.store());
        self.graph.store().check_fault()?;
        let grown_vertices = overlay.num_vertices() - self.graph.store().num_vertices();
        if !overlay.is_noop() {
            self.graph.fold(&overlay)?;
        }
        let apply_wall_seconds = started.elapsed().as_secs_f64();
        self.delta_apply_seconds += apply_wall_seconds;
        Ok(snaple_gas::DeltaStats {
            inserted_edges: overlay.num_inserted(),
            removed_edges: overlay.num_removed(),
            grown_vertices,
            touched_partitions: 0,
            apply_wall_seconds,
        })
    }

    /// Detaches a copy of the walk state and folds the delta into it,
    /// leaving `self` untouched — the epoch-snapshot path of concurrent
    /// serving. A file-backed graph is shared, not copied, until the
    /// fold needs it in RAM.
    fn fork_with_delta(
        &self,
        delta: &snaple_graph::GraphDelta,
    ) -> Result<(Box<dyn PreparedPredictor>, snaple_gas::DeltaStats), SnapleError> {
        let mut fork = PreparedWalk {
            ppr: self.ppr.clone(),
            graph: self.graph.detach(),
            cost: self.cost.clone(),
            delta_apply_seconds: self.delta_apply_seconds,
            setup: self.setup.clone(),
        };
        let applied = fork.apply_delta(delta)?;
        Ok((Box::new(fork), applied))
    }

    fn setup(&self) -> &SetupStats {
        &self.setup
    }
}

impl Predictor for RandomWalkPpr {
    /// Precomputes the walk state (the hop-calibrated cost model); the
    /// returned [`PreparedWalk`] runs `w` random walks
    /// of depth `d` from every requested source and predicts the `k`
    /// most-visited non-neighbors per source.
    ///
    /// With [`ExecuteRequest::queries`], only the queried vertices walk —
    /// the hop budget (and therefore the simulated time) shrinks linearly
    /// with the query count, and per-source seeding keeps each queried row
    /// bit-identical to an all-vertices run.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] if `k`, `walks` or `depth` is zero
    /// (matching the GAS backends' validation).
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        self.validate_config()?;
        let started = Instant::now();
        let cost = CostModel::for_cluster(req.cluster()).with_op_cost(WALK_HOP_COST);
        let setup = SetupStats {
            prepare_wall_seconds: started.elapsed().as_secs_f64(),
            partition_build_seconds: 0.0,
            replication_factor: 1.0,
        };
        Ok(Box::new(PreparedWalk {
            ppr: self.clone(),
            graph: LiveGraph::Borrowed(req.graph()),
            cost,
            delta_apply_seconds: 0.0,
            setup,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_core::{PredictRequest, QuerySet};
    use snaple_gas::ClusterSpec;
    use snaple_graph::gen::datasets;
    use snaple_graph::CsrGraph;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn machine() -> ClusterSpec {
        ClusterSpec::single_machine(20, 128 << 30)
    }

    fn run(config: RandomWalkConfig, graph: &CsrGraph) -> Prediction {
        let machine = machine();
        Predictor::predict(
            &RandomWalkPpr::new(config),
            &PredictRequest::new(graph, &machine),
        )
        .unwrap()
    }

    #[test]
    fn walks_find_the_obvious_two_hop_candidate() {
        // 0 → 1 → 2, plus return edges so walks keep moving.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 1), (1, 0)]);
        let p = run(RandomWalkConfig::new().walks(200).depth(3), &g);
        let preds = p.for_vertex(v(0));
        assert_eq!(preds.first().map(|p| p.0), Some(v(2)));
    }

    #[test]
    fn never_predicts_self_or_existing_neighbors() {
        let g = datasets::GOWALLA.emulate(0.004, 21);
        let p = run(RandomWalkConfig::new().walks(20).depth(4), &g);
        for (u, preds) in p.iter() {
            for &(z, score) in preds {
                assert_ne!(z, u);
                assert!(!g.has_edge(u, z));
                assert!(score >= 1.0, "visit counts are positive integers");
            }
        }
    }

    #[test]
    fn deeper_and_wider_walks_cost_more_simulated_time() {
        let g = datasets::GOWALLA.emulate(0.002, 5);
        let cheap = run(RandomWalkConfig::new().walks(10).depth(3), &g);
        let deep = run(RandomWalkConfig::new().walks(10).depth(10), &g);
        let wide = run(RandomWalkConfig::new().walks(100).depth(3), &g);
        assert!(deep.simulated_seconds() > cheap.simulated_seconds());
        assert!(wide.simulated_seconds() > cheap.simulated_seconds());
        // Work scales linearly in w and in (d-1).
        let ratio = wide.stats.total_work_ops() as f64 / cheap.stats.total_work_ops() as f64;
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn depth_two_reaches_only_direct_neighbors() {
        // Paper convention: d = 2 visits Γ(u) only, so no predictions
        // outside existing neighbors are possible in a tree.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
        let p = run(RandomWalkConfig::new().walks(50).depth(2), &g);
        assert!(p.for_vertex(v(0)).is_empty());
    }

    #[test]
    fn deterministic_under_seed_regardless_of_thread_count() {
        let g = datasets::GOWALLA.emulate(0.002, 5);
        let a = run(RandomWalkConfig::new().seed(7).threads(Some(1)), &g);
        let b = run(RandomWalkConfig::new().seed(7).threads(Some(4)), &g);
        for (u, preds) in a.iter() {
            assert_eq!(preds, b.for_vertex(u), "vertex {u}");
        }
        let c = run(RandomWalkConfig::new().seed(8).threads(Some(1)), &g);
        let differing = a.iter().zip(c.iter()).filter(|(x, y)| x.1 != y.1).count();
        assert!(differing > 0, "different seeds should walk differently");
    }

    #[test]
    fn isolated_vertices_get_no_predictions() {
        let g = CsrGraph::from_edges(3, &[(1, 2)]);
        let p = run(RandomWalkConfig::new(), &g);
        assert!(p.for_vertex(v(0)).is_empty());
    }

    #[test]
    fn targeted_walks_match_the_full_run_and_hop_less() {
        let g = datasets::GOWALLA.emulate(0.004, 21);
        let machine = machine();
        let ppr = RandomWalkPpr::new(RandomWalkConfig::new().walks(20).depth(4).seed(3));
        let full = Predictor::predict(&ppr, &PredictRequest::new(&g, &machine)).unwrap();
        let queries = QuerySet::sample(g.num_vertices(), g.num_vertices() / 25, 13);
        let targeted = Predictor::predict(
            &ppr,
            &PredictRequest::new(&g, &machine).with_queries(&queries),
        )
        .unwrap();
        for (u, preds) in targeted.iter() {
            if queries.contains(u) {
                assert_eq!(preds, full.for_vertex(u), "queried row {u}");
            } else {
                assert!(preds.is_empty(), "non-queried row {u}");
            }
        }
        // Hop budget (and simulated time) scales with the query count.
        let expect = full.stats.total_work_ops() * queries.len() as u64 / g.num_vertices() as u64;
        let got = targeted.stats.total_work_ops();
        assert_eq!(got, expect, "hops must scale exactly with the query count");
        assert!(targeted.simulated_seconds() < full.simulated_seconds());
    }

    #[test]
    fn zero_walks_depth_or_k_are_rejected() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let machine = machine();
        for config in [
            RandomWalkConfig::new().walks(0),
            RandomWalkConfig::new().depth(0),
            RandomWalkConfig::new().k(0),
        ] {
            let err = Predictor::predict(
                &RandomWalkPpr::new(config),
                &PredictRequest::new(&g, &machine),
            )
            .unwrap_err();
            assert!(matches!(err, SnapleError::InvalidConfig(_)));
        }
    }

    #[test]
    fn prepared_walks_match_one_shot_predicts_and_reject_bad_configs() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let machine = machine();
        let ppr = RandomWalkPpr::new(RandomWalkConfig::new().walks(30).depth(3));
        let prepared = ppr.prepare(&PrepareRequest::new(&g, &machine)).unwrap();
        let one_shot = Predictor::predict(&ppr, &PredictRequest::new(&g, &machine)).unwrap();
        for _ in 0..2 {
            let executed = prepared.execute(&ExecuteRequest::new()).unwrap();
            for (u, preds) in executed.iter() {
                assert_eq!(preds, one_shot.for_vertex(u));
            }
        }
        // Walks need no partition: setup costs are all-zero except the
        // wall clock spent precomputing.
        assert_eq!(prepared.setup().partition_build_seconds, 0.0);
        assert_eq!(prepared.setup().replication_factor, 1.0);
        // Invalid configurations are rejected at prepare time.
        let bad = RandomWalkPpr::new(RandomWalkConfig::new().walks(0));
        assert!(matches!(
            bad.prepare(&PrepareRequest::new(&g, &machine)),
            Err(SnapleError::InvalidConfig(_))
        ));
    }
}
