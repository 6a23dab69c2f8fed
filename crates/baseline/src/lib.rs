#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! **BASELINE** — the paper's direct GAS implementation of 2-hop
//! link prediction (§5.3).
//!
//! BASELINE scores every candidate `z ∈ Γ²(u) \ Γ(u)` with a plain Jaccard
//! similarity `sim(Γ(u), Γ(z))`, exactly as Algorithm 1 with the K = 2
//! neighborhood optimization. Because the GAS model only exposes direct
//! neighbors, reaching `Γ(z)` for vertices two hops away forces BASELINE to
//! *propagate and store neighborhoods along every 2-hop path*:
//!
//! 1. step 1 collects `Γ(u)` at every vertex;
//! 2. step 2 replicates each neighbor's neighborhood, giving
//!    `Du.nbr2 = {(v, Γ(v)) | v ∈ Γ(u)}` (paper eq. 7);
//! 3. step 3 pulls those tables across a second hop so `u` finally holds
//!    `Γ(z)` for every `z ∈ Γ²(u)`, then scores and keeps the top-`k`.
//!
//! The nested tables make both state size and gather traffic explode
//! combinatorially — which is precisely the pathology the paper reports:
//! BASELINE is 1.6–4.6× slower than SNAPLE on the small datasets and dies
//! of memory exhaustion on *orkut* and *twitter-rv*. The engine's
//! byte-accurate accounting reproduces both effects
//! ([`snaple_gas::EngineError::ResourceExhausted`]).
//!
//! # Example
//!
//! ```
//! use snaple_baseline::{Baseline, BaselineConfig};
//! use snaple_core::{PredictRequest, Predictor};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::CsrGraph;
//!
//! let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)]);
//! let cluster = ClusterSpec::type_ii(2);
//! let baseline = Baseline::new(BaselineConfig::new().k(2));
//! let p = Predictor::predict(&baseline, &PredictRequest::new(&g, &cluster))?;
//! assert!(!p.for_vertex(snaple_graph::VertexId::new(0)).is_empty());
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use snaple_core::similarity::{Jaccard, Similarity};
use snaple_core::topk::top_k_by_score;
use snaple_core::{
    ExecuteRequest, NeighborhoodView, Prediction, Predictor, PrepareRequest, Prepared,
    PreparedPredictor, ScoringProgram, SnapleError,
};
use snaple_gas::size::COLLECTION_OVERHEAD;
use snaple_gas::{
    Deployment, Engine, GasStep, GatherCtx, PartitionStrategy, SizeEstimate, WorkTally,
};
use snaple_graph::VertexId;

/// Configuration of a BASELINE run.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Predictions returned per vertex.
    pub k: usize,
    /// Random seed (drives partitioning).
    pub seed: u64,
    /// Edge placement strategy.
    pub partition: PartitionStrategy,
}

impl BaselineConfig {
    /// Creates a configuration with the paper's defaults (`k = 5`).
    pub fn new() -> Self {
        BaselineConfig {
            k: 5,
            seed: 0xba5e,
            partition: PartitionStrategy::RandomVertexCut,
        }
    }

    /// Sets the number of predictions per vertex.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the partition strategy.
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = strategy;
        self
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-vertex state of the BASELINE program.
#[derive(Clone, Debug, Default)]
pub struct BaselineVertex {
    /// Full neighborhood `Γ(u)`, sorted.
    pub gamma: Vec<VertexId>,
    /// Neighbor-of-neighbor tables `{(v, Γ(v))}` — the memory hog.
    pub nbr2: Vec<(VertexId, Vec<VertexId>)>,
    /// Final top-`k` predictions.
    pub predictions: Vec<(VertexId, f32)>,
}

impl SizeEstimate for BaselineVertex {
    fn estimated_bytes(&self) -> u64 {
        let nested: u64 = self
            .nbr2
            .iter()
            .map(|(_, g)| 4 + COLLECTION_OVERHEAD + g.len() as u64 * 4)
            .sum();
        3 * COLLECTION_OVERHEAD
            + self.gamma.len() as u64 * 4
            + nested
            + self.predictions.len() as u64 * 8
    }
}

/// Step 1: collect the full neighborhood `Γ(u)`.
#[derive(Clone, Debug)]
struct CollectStep;

impl GasStep for CollectStep {
    type Vertex = BaselineVertex;
    type Gather = Vec<VertexId>;

    fn name(&self) -> &str {
        "baseline-1-collect"
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        _ud: &BaselineVertex,
        v: VertexId,
        _vd: &BaselineVertex,
        _work: &mut WorkTally,
    ) -> Option<Vec<VertexId>> {
        Some(vec![v])
    }

    fn sum(&self, mut a: Vec<VertexId>, b: Vec<VertexId>, work: &mut WorkTally) -> Vec<VertexId> {
        work.add(b.len() as u64);
        a.extend(b);
        a
    }

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut BaselineVertex,
        acc: Option<Vec<VertexId>>,
        work: &mut WorkTally,
    ) {
        let mut gamma = acc.unwrap_or_default();
        gamma.sort_unstable();
        gamma.dedup();
        work.add(gamma.len() as u64);
        data.gamma = gamma;
    }
}

/// Step 2: replicate each neighbor's neighborhood (paper eq. 7).
#[derive(Clone, Debug)]
struct PropagateStep;

impl GasStep for PropagateStep {
    type Vertex = BaselineVertex;
    type Gather = Vec<(VertexId, Vec<VertexId>)>;

    fn name(&self) -> &str {
        "baseline-2-propagate"
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        _ud: &BaselineVertex,
        v: VertexId,
        vd: &BaselineVertex,
        work: &mut WorkTally,
    ) -> Option<Vec<(VertexId, Vec<VertexId>)>> {
        work.add(vd.gamma.len() as u64);
        Some(vec![(v, vd.gamma.clone())])
    }

    fn sum(
        &self,
        mut a: Vec<(VertexId, Vec<VertexId>)>,
        b: Vec<(VertexId, Vec<VertexId>)>,
        work: &mut WorkTally,
    ) -> Vec<(VertexId, Vec<VertexId>)> {
        work.add(b.len() as u64);
        a.extend(b);
        a
    }

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut BaselineVertex,
        acc: Option<Vec<(VertexId, Vec<VertexId>)>>,
        work: &mut WorkTally,
    ) {
        let mut tables = acc.unwrap_or_default();
        tables.sort_unstable_by_key(|&(v, _)| v);
        tables.dedup_by_key(|t| t.0);
        work.add(tables.len() as u64);
        data.nbr2 = tables;
    }
}

/// Step 3: pull neighbor tables across the second hop and score candidates
/// with Jaccard over full neighborhoods.
#[derive(Clone, Debug)]
struct ScoreStep {
    k: usize,
}

impl GasStep for ScoreStep {
    type Vertex = BaselineVertex;
    type Gather = Vec<(VertexId, Vec<VertexId>)>;

    fn name(&self) -> &str {
        "baseline-3-score"
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        _ud: &BaselineVertex,
        _v: VertexId,
        vd: &BaselineVertex,
        work: &mut WorkTally,
    ) -> Option<Vec<(VertexId, Vec<VertexId>)>> {
        // Forward v's entire neighbor-of-neighbor table: Γ(z) for z ∈ Γ(v).
        let total: usize = vd.nbr2.iter().map(|(_, g)| g.len() + 1).sum();
        work.add(total as u64);
        if vd.nbr2.is_empty() {
            None
        } else {
            Some(vd.nbr2.clone())
        }
    }

    fn sum(
        &self,
        a: Vec<(VertexId, Vec<VertexId>)>,
        b: Vec<(VertexId, Vec<VertexId>)>,
        work: &mut WorkTally,
    ) -> Vec<(VertexId, Vec<VertexId>)> {
        work.add((a.len() + b.len()) as u64);
        // Sorted merge keyed by candidate id; duplicate candidates carry
        // identical neighbor lists, keep the first.
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        u: VertexId,
        data: &mut BaselineVertex,
        acc: Option<Vec<(VertexId, Vec<VertexId>)>>,
        work: &mut WorkTally,
    ) {
        let candidates = acc.unwrap_or_default();
        let u_view = NeighborhoodView::new(&data.gamma, data.gamma.len());
        let mut scored: Vec<(VertexId, f32)> = Vec::with_capacity(candidates.len());
        for (z, gamma_z) in &candidates {
            if *z == u || data.gamma.binary_search(z).is_ok() {
                continue;
            }
            work.add((data.gamma.len() + gamma_z.len()) as u64);
            let z_view = NeighborhoodView::new(gamma_z, gamma_z.len());
            scored.push((*z, Jaccard.score(u_view, z_view)));
        }
        data.predictions = top_k_by_score(scored, self.k);
        // Free the tables: a real implementation would too, after scoring.
        data.nbr2 = Vec::new();
    }
}

/// The BASELINE link predictor.
#[derive(Clone, Debug)]
pub struct Baseline {
    config: BaselineConfig,
}

impl Baseline {
    /// Creates a predictor.
    pub fn new(config: BaselineConfig) -> Self {
        Baseline { config }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    fn validate_config(&self) -> Result<(), SnapleError> {
        if self.config.k == 0 {
            return Err(SnapleError::InvalidConfig(
                "k must be at least 1".to_owned(),
            ));
        }
        Ok(())
    }
}

impl ScoringProgram for Baseline {
    /// Runs the three BASELINE steps on a prepared [`Deployment`],
    /// answering one [`ExecuteRequest`] — the *execute* half of the
    /// serving lifecycle, reusing the deployment's partition.
    ///
    /// With [`ExecuteRequest::queries`], the steps execute under
    /// shrinking active-vertex masks (neighborhoods two hops out,
    /// neighbor tables one hop out, scores for the queries alone), which
    /// also shrinks the replicated neighbor-of-neighbor tables — the
    /// memory hog that makes all-vertices BASELINE die on large graphs.
    /// Queried rows are bit-identical to an all-vertices run; all other
    /// rows are empty.
    ///
    /// # Errors
    ///
    /// [`SnapleError::Engine`] on resource exhaustion — expected on large
    /// graphs, which is the paper's headline observation about this
    /// approach; [`SnapleError::InvalidConfig`] if `k` is zero, a query
    /// id is out of range, or attributes are attached (BASELINE is
    /// structural only).
    fn execute_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<Prediction, SnapleError> {
        self.validate_config()?;
        let graph = deployment.graph();
        req.validate_for(graph)?;
        if req.attributes().is_some() {
            return Err(SnapleError::InvalidConfig(
                "BASELINE scores structure only and accepts no content attributes".to_owned(),
            ));
        }
        let mut engine = Engine::on(deployment).with_seed(req.seed().unwrap_or(self.config.seed));
        // Shrinking lookahead masks for targeted runs: scores need the
        // queries, neighbor tables their direct neighbors, neighborhoods
        // everything two hops out.
        let score_mask = req.query_mask(graph);
        let propagate_mask = score_mask.as_ref().map(|m| m.expand_out(graph));
        let collect_mask = propagate_mask.as_ref().map(|m| m.expand_out(graph));
        let mut state = vec![BaselineVertex::default(); graph.num_vertices()];
        engine.run_step_masked(&CollectStep, &mut state, collect_mask.as_ref())?;
        engine.run_step_masked(&PropagateStep, &mut state, propagate_mask.as_ref())?;
        engine.run_step_masked(
            &ScoreStep { k: self.config.k },
            &mut state,
            score_mask.as_ref(),
        )?;
        let predictions: Vec<Vec<(VertexId, f32)>> =
            state.into_iter().map(|s| s.predictions).collect();
        Ok(Prediction::from_parts(predictions, engine.into_stats()))
    }
}

impl Predictor for Baseline {
    /// Builds the vertex-cut partition once; the returned [`Prepared`]
    /// answers any number of [`ExecuteRequest`]s against it.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] if `k` is zero or the cluster shape
    /// is unusable.
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        self.validate_config()?;
        let config = &self.config;
        let prepared = Prepared::new(self.clone(), req, config.partition, config.seed)?;
        Ok(Box::new(prepared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_core::{PredictRequest, QuerySet};
    use snaple_gas::{ClusterSpec, EngineError};
    use snaple_graph::gen::datasets;
    use snaple_graph::CsrGraph;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn run(config: BaselineConfig, graph: &CsrGraph, cluster: &ClusterSpec) -> Prediction {
        Predictor::predict(&Baseline::new(config), &PredictRequest::new(graph, cluster)).unwrap()
    }

    #[test]
    fn scores_two_hop_candidates_with_jaccard() {
        // 0 → {1, 2}; 1 → {3}; 2 → {3, 4}; 3 → {1}; 4 → {1, 2}
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 1),
                (4, 1),
                (4, 2),
            ],
        );
        let p = run(BaselineConfig::new().k(3), &g, &ClusterSpec::type_ii(2));
        let preds = p.for_vertex(v(0));
        // Candidates of 0: 3 (Γ = {1}) and 4 (Γ = {1, 2}).
        // Jaccard(Γ0, Γ3) = |{1}| / |{1,2}| = 0.5
        // Jaccard(Γ0, Γ4) = |{1,2}| / |{1,2}| = 1.0
        assert_eq!(preds[0].0, v(4));
        assert!((preds[0].1 - 1.0).abs() < 1e-6);
        assert_eq!(preds[1].0, v(3));
        assert!((preds[1].1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn never_predicts_existing_neighbors_or_self() {
        let g = datasets::GOWALLA.emulate(0.004, 17);
        let p = run(BaselineConfig::new(), &g, &ClusterSpec::type_ii(4));
        for (u, preds) in p.iter() {
            for &(z, _) in preds {
                assert_ne!(z, u);
                assert!(!g.has_edge(u, z));
            }
        }
    }

    #[test]
    fn exhausts_memory_on_starved_clusters() {
        let g = datasets::GOWALLA.emulate(0.01, 3);
        let starved = ClusterSpec {
            memory_per_node: 200_000, // 200 kB: state fits, tables do not
            ..ClusterSpec::type_i(4)
        };
        let err = Predictor::predict(
            &Baseline::new(BaselineConfig::new()),
            &PredictRequest::new(&g, &starved),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SnapleError::Engine(EngineError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn targeted_rows_match_the_full_run_and_cost_less() {
        let g = datasets::GOWALLA.emulate(0.004, 17);
        let cluster = ClusterSpec::type_ii(4);
        let full = run(BaselineConfig::new(), &g, &cluster);
        let queries = QuerySet::sample(g.num_vertices(), g.num_vertices() / 50, 5);
        let baseline = Baseline::new(BaselineConfig::new());
        let targeted = Predictor::predict(
            &baseline,
            &PredictRequest::new(&g, &cluster).with_queries(&queries),
        )
        .unwrap();
        for (u, preds) in targeted.iter() {
            if queries.contains(u) {
                assert_eq!(preds, full.for_vertex(u), "queried row {u}");
            } else {
                assert!(preds.is_empty(), "non-queried row {u}");
            }
        }
        assert!(targeted.stats.total_work_ops() < full.stats.total_work_ops());
        assert!(targeted.stats.peak_memory() < full.stats.peak_memory());
    }

    #[test]
    fn targeted_runs_survive_clusters_that_oom_in_batch_mode() {
        // The serving payoff: a memory budget too small for the full
        // neighbor-table replication still answers small query sets.
        let g = datasets::GOWALLA.emulate(0.01, 3);
        let starved = ClusterSpec {
            memory_per_node: 200_000,
            ..ClusterSpec::type_i(4)
        };
        let baseline = Baseline::new(BaselineConfig::new());
        assert!(matches!(
            Predictor::predict(&baseline, &PredictRequest::new(&g, &starved)),
            Err(SnapleError::Engine(EngineError::ResourceExhausted { .. }))
        ));
        let queries = QuerySet::sample(g.num_vertices(), 5, 1);
        let p = Predictor::predict(
            &baseline,
            &PredictRequest::new(&g, &starved).with_queries(&queries),
        )
        .unwrap();
        assert!(p.total_predictions() > 0);
    }

    #[test]
    fn rejects_content_attributes() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let cluster = ClusterSpec::type_i(1);
        let attrs = vec![vec![1u32]; 2];
        let err = Predictor::predict(
            &Baseline::new(BaselineConfig::new()),
            &PredictRequest::new(&g, &cluster).with_attributes(&attrs),
        )
        .unwrap_err();
        assert!(matches!(err, SnapleError::InvalidConfig(_)));
    }

    #[test]
    fn uses_far_more_memory_and_traffic_than_snaple() {
        use snaple_core::{NamedScore, Snaple, SnapleConfig};
        let g = datasets::GOWALLA.emulate(0.004, 3);
        let cluster = ClusterSpec::type_ii(4);
        let base = run(BaselineConfig::new(), &g, &cluster);
        let snaple = Predictor::predict(
            &Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20))),
            &PredictRequest::new(&g, &cluster),
        )
        .unwrap();
        assert!(
            base.stats.peak_memory() > 3 * snaple.stats.peak_memory(),
            "baseline {} vs snaple {}",
            base.stats.peak_memory(),
            snaple.stats.peak_memory()
        );
        assert!(
            base.stats.total_network_bytes() > 3 * snaple.stats.total_network_bytes(),
            "baseline {} vs snaple {}",
            base.stats.total_network_bytes(),
            snaple.stats.total_network_bytes()
        );
    }

    #[test]
    fn zero_k_is_rejected() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let cluster = ClusterSpec::type_i(1);
        assert!(matches!(
            Predictor::predict(
                &Baseline::new(BaselineConfig::new().k(0)),
                &PredictRequest::new(&g, &cluster),
            ),
            Err(SnapleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn prepared_execution_matches_one_shot_predicts() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 0)]);
        let cluster = ClusterSpec::type_ii(2);
        let baseline = Baseline::new(BaselineConfig::new().k(2));
        let prepared = baseline
            .prepare(&PrepareRequest::new(&g, &cluster))
            .unwrap();
        let one_shot = Predictor::predict(&baseline, &PredictRequest::new(&g, &cluster)).unwrap();
        for _ in 0..2 {
            let executed = prepared.execute(&ExecuteRequest::new()).unwrap();
            for (u, preds) in executed.iter() {
                assert_eq!(preds, one_shot.for_vertex(u));
            }
            assert_eq!(executed.stats.partition_build_seconds, 0.0);
        }
        assert!(one_shot.stats.partition_build_seconds > 0.0);
        // Structural-only: attributes are rejected at execute time too.
        let attrs = vec![vec![1u32]; 4];
        assert!(matches!(
            prepared.execute(&ExecuteRequest::new().with_attributes(&attrs)),
            Err(SnapleError::InvalidConfig(_))
        ));
    }
}
