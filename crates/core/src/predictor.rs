//! The public SNAPLE predictor.

use std::time::Instant;

use snaple_gas::{Deployment, Engine, RunStats};
use snaple_graph::{GraphStore, VertexId, VertexMask};

use crate::config::{PathLength, ScoreComponents, SnapleConfig};
use crate::error::SnapleError;
use crate::predictor_api::{
    ExecuteRequest, Predictor, PrepareRequest, PreparedPredictor, SetupStats,
};
use crate::state::SnapleVertex;
use crate::steps::{NeighborhoodStep, PromoteScoresStep, ScoreStep, SecondHop, SimilarityStep};

/// Per-step active-vertex masks of a targeted SNAPLE run.
///
/// Masks shrink as information flows toward the queries: the first step
/// must materialize neighborhoods for every vertex within lookahead of a
/// query, the last step only scores the queries themselves.
pub(crate) struct StepMasks {
    /// [`NeighborhoodStep`] — queries plus every vertex within the
    /// program's full hop lookahead.
    pub(crate) neighborhood: VertexMask,
    /// [`SimilarityStep`] — queries plus the vertices whose similarity
    /// tables later steps read.
    pub(crate) similarity: VertexMask,
    /// The 3-hop extension's extra score + promote pass (`None` for
    /// standard 2-hop runs) — queries plus their direct out-neighbors.
    pub(crate) promote: Option<VertexMask>,
    /// The final [`ScoreStep`] — exactly the queries.
    pub(crate) score: VertexMask,
}

impl StepMasks {
    /// Builds the mask chain for `queries` by expanding one out-hop per
    /// step of lookahead.
    pub(crate) fn build(
        graph: &dyn GraphStore,
        queries: &VertexMask,
        path_length: PathLength,
    ) -> StepMasks {
        let score = queries.clone();
        match path_length {
            PathLength::Two => {
                let similarity = score.expand_out(graph);
                let neighborhood = similarity.expand_out(graph);
                StepMasks {
                    neighborhood,
                    similarity,
                    promote: None,
                    score,
                }
            }
            PathLength::Three => {
                let promote = score.expand_out(graph);
                let similarity = promote.expand_out(graph);
                let neighborhood = similarity.expand_out(graph);
                StepMasks {
                    neighborhood,
                    similarity,
                    promote: Some(promote),
                    score,
                }
            }
        }
    }
}

/// SNAPLE link predictor: configuration plus resolved scoring components.
///
/// See the [crate docs](crate) for the model and a complete example.
#[derive(Clone, Debug)]
pub struct Snaple {
    config: SnapleConfig,
    components: ScoreComponents,
}

impl Snaple {
    /// Creates a predictor from a configuration, resolving the named
    /// [`NamedScore`](crate::NamedScore) into concrete components.
    pub fn new(config: SnapleConfig) -> Self {
        let components = config.score.resolve(config.alpha);
        Snaple { config, components }
    }

    /// Creates a predictor with custom scoring components (a user-supplied
    /// similarity, combinator or aggregator); `config.score` is ignored
    /// except for reporting.
    pub fn with_components(config: SnapleConfig, components: ScoreComponents) -> Self {
        Snaple { config, components }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &SnapleConfig {
        &self.config
    }

    /// The resolved scoring components.
    pub fn components(&self) -> &ScoreComponents {
        &self.components
    }

    /// Rejects configurations no run could execute (zero `k`/`klocal`).
    fn validate_config(&self) -> Result<(), SnapleError> {
        if self.config.k == 0 {
            return Err(SnapleError::InvalidConfig(
                "k must be at least 1".to_owned(),
            ));
        }
        if self.config.klocal == Some(0) {
            return Err(SnapleError::InvalidConfig(
                "klocal must be at least 1 (use None to disable sampling)".to_owned(),
            ));
        }
        Ok(())
    }

    /// Runs the paper's Algorithm 2 on a prepared [`Deployment`],
    /// answering one [`ExecuteRequest`].
    ///
    /// This is the *execute* half of the serving lifecycle — the engine
    /// reuses the deployment's partition instead of re-hashing every edge,
    /// so a stream of requests pays the O(edges) setup once.
    ///
    /// Since the [`ScorePlan`](crate::ScorePlan) redesign, `Snaple` *is*
    /// the 1-spec special case of a plan: this method compiles the
    /// configuration into a single-column plan and runs the fused sweep
    /// ([`ScorePlan::execute_on`](crate::ScorePlan::execute_on)). To
    /// evaluate several configurations, put them in one plan — N columns
    /// cost roughly one sweep, not N
    /// (see the [plan module docs](crate::plan)).
    ///
    /// With [`ExecuteRequest::queries`], the steps execute under shrinking
    /// active-vertex masks — neighborhoods for everything within the
    /// program's hop lookahead of a query, similarities for queries and
    /// their direct neighbors, scores for the queries alone — so small
    /// query sets do far less gather/scatter work. Queried rows are
    /// bit-identical to an all-vertices run; all other rows are empty.
    /// Per-vertex content arrives via [`ExecuteRequest::attributes`]
    /// (paper §3.1's content extension).
    ///
    /// # Errors
    ///
    /// * [`SnapleError::InvalidConfig`] if `k` or `klocal` is zero, if
    ///   attributes do not cover every vertex, or if a query id is out of
    ///   range.
    /// * [`SnapleError::Engine`] when the simulated cluster cannot execute
    ///   the program (memory exhaustion).
    pub fn execute_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<Prediction, SnapleError> {
        self.validate_config()?;
        let plan = crate::plan::ScorePlan::from_snaple(self)?;
        Ok(plan.execute_on(deployment, req)?.into_column(0))
    }

    /// The pre-[`ScorePlan`](crate::ScorePlan) reference implementation:
    /// drives the classic single-score [`steps`](crate::steps) directly
    /// instead of compiling to a fused plan.
    ///
    /// Kept public as the independent oracle the fused engine is
    /// differential-tested against (every plan column must be
    /// bit-identical to this path); applications should prefer
    /// [`Snaple::execute_on`].
    ///
    /// # Errors
    ///
    /// As [`Snaple::execute_on`].
    pub fn execute_unfused_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<Prediction, SnapleError> {
        self.validate_config()?;
        let graph = deployment.graph();
        req.validate_for(graph)?;
        let mut engine = Engine::on(deployment).with_seed(req.seed().unwrap_or(self.config.seed));
        let mut state = vec![SnapleVertex::default(); graph.num_vertices()];
        if let Some(attrs) = req.attributes() {
            for (vertex, tags) in state.iter_mut().zip(attrs) {
                let mut tags = tags.clone();
                tags.sort_unstable();
                tags.dedup();
                vertex.tags = tags;
            }
        }
        let masks = req
            .query_mask(graph)
            .map(|q| StepMasks::build(graph, &q, self.config.path_length));

        engine.run_step_masked(
            &NeighborhoodStep {
                thr_gamma: self.config.thr_gamma,
            },
            &mut state,
            masks.as_ref().map(|m| &m.neighborhood),
        )?;
        engine.run_step_masked(
            &SimilarityStep {
                components: &self.components,
                klocal: self.config.klocal,
                selection: self.config.selection,
            },
            &mut state,
            masks.as_ref().map(|m| &m.similarity),
        )?;
        if self.config.path_length == PathLength::Three {
            // Recursive longer-path extension (paper §3.1, footnote 2):
            // compute 2-hop scores, promote them into the similarity
            // tables, then combine once more — scoring 3-hop paths.
            let keep = self.config.klocal.unwrap_or(self.config.k.max(20));
            let promote_mask = masks.as_ref().and_then(|m| m.promote.as_ref());
            engine.run_step_masked(
                &ScoreStep {
                    components: &self.components,
                    k: keep,
                    second_hop: SecondHop::Sims,
                },
                &mut state,
                promote_mask,
            )?;
            engine.run_step_masked(&PromoteScoresStep { keep }, &mut state, promote_mask)?;
        }
        let second_hop = match self.config.path_length {
            PathLength::Two => SecondHop::Sims,
            PathLength::Three => SecondHop::Paths,
        };
        engine.run_step_masked(
            &ScoreStep {
                components: &self.components,
                k: self.config.k,
                second_hop,
            },
            &mut state,
            masks.as_ref().map(|m| &m.score),
        )?;

        let predictions = state.into_iter().map(|s| s.predictions).collect();
        Ok(Prediction::from_parts(predictions, engine.into_stats()))
    }
}

/// A SNAPLE predictor with its deployment (partition layout, presence
/// masks, cost model) already built — returned by [`Snaple`]'s
/// [`Predictor::prepare`].
///
/// Owns its configuration (a cheap clone — scoring components are
/// `Arc`-shared), so epoch forks
/// ([`PreparedPredictor::fork_with_delta`]) detach into fully owned
/// snapshots.
pub struct PreparedSnaple<'a> {
    snaple: Snaple,
    deployment: Deployment<'a>,
    setup: SetupStats,
}

impl<'a> PreparedSnaple<'a> {
    /// The shared deployment this predictor executes on.
    pub fn deployment(&self) -> &Deployment<'a> {
        &self.deployment
    }
}

impl PreparedPredictor for PreparedSnaple<'_> {
    fn execute(&self, req: &ExecuteRequest<'_>) -> Result<Prediction, SnapleError> {
        self.snaple.execute_on(&self.deployment, req)
    }

    fn apply_delta(
        &mut self,
        delta: &snaple_graph::GraphDelta,
    ) -> Result<snaple_gas::DeltaStats, SnapleError> {
        Ok(self.deployment.apply_delta(delta)?)
    }

    fn fork_with_delta(
        &self,
        delta: &snaple_graph::GraphDelta,
    ) -> Result<(Box<dyn PreparedPredictor>, snaple_gas::DeltaStats), SnapleError> {
        let mut deployment = self.deployment.detach();
        let applied = deployment.apply_delta(delta)?;
        let fork = PreparedSnaple {
            snaple: self.snaple.clone(),
            deployment,
            setup: self.setup.clone(),
        };
        Ok((Box::new(fork), applied))
    }

    fn setup(&self) -> &SetupStats {
        &self.setup
    }
}

impl Predictor for Snaple {
    /// Builds the deployment (vertex-cut partition over the requested
    /// cluster, cost model) once; the returned [`PreparedSnaple`] answers
    /// any number of [`ExecuteRequest`]s against it.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] if `k` or `klocal` is zero or the
    /// cluster shape is unusable.
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        self.validate_config()?;
        let started = Instant::now();
        let deployment = Deployment::new(
            req.graph(),
            req.cluster().clone(),
            self.config.partition,
            self.config.seed,
        )?;
        let setup = SetupStats {
            prepare_wall_seconds: started.elapsed().as_secs_f64(),
            partition_build_seconds: deployment.partition_build_seconds(),
            replication_factor: deployment.replication_factor(),
        };
        Ok(Box::new(PreparedSnaple {
            snaple: self.clone(),
            deployment,
            setup,
        }))
    }
}

/// Which vertices a result stores rows for: all of them, in id order, or
/// a query subset (ascending), every other vertex reading as an empty row.
#[derive(Clone, Debug)]
pub(crate) struct RowIndex {
    num_vertices: usize,
    sources: Option<Vec<VertexId>>,
}

impl RowIndex {
    /// Rows for every one of `num_vertices` vertices.
    pub(crate) fn dense(num_vertices: usize) -> Self {
        RowIndex {
            num_vertices,
            sources: None,
        }
    }

    /// Rows for `sources` (ascending, each `< num_vertices`) only.
    pub(crate) fn sparse(num_vertices: usize, sources: Vec<VertexId>) -> Self {
        RowIndex {
            num_vertices,
            sources: Some(sources),
        }
    }

    pub(crate) fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Position of `u`'s stored row, if it has one.
    pub(crate) fn row(&self, u: VertexId) -> Option<usize> {
        match &self.sources {
            None => (u.index() < self.num_vertices).then_some(u.index()),
            Some(sources) => sources.binary_search(&u).ok(),
        }
    }
}

/// The result of a SNAPLE run: per-vertex predicted edges plus execution
/// statistics.
///
/// A query-subset result stores rows for its queries only; every other
/// vertex reads as an empty row, so the result still ranges over all
/// [`num_vertices`](Prediction::num_vertices).
#[derive(Clone, Debug)]
pub struct Prediction {
    index: RowIndex,
    /// One row per stored vertex, in [`RowIndex`] order.
    predictions: Vec<Vec<(VertexId, f32)>>,
    /// Engine statistics (simulated time, network bytes, peak memory,
    /// replication factor).
    pub stats: RunStats,
}

impl Prediction {
    /// Assembles a result from raw parts: one row per vertex.
    ///
    /// Exists so that alternative predictors sharing SNAPLE's evaluation
    /// pipeline (the BASELINE of paper §5.3, the Cassovary comparator of
    /// §5.9) can return the same result type.
    pub fn from_parts(predictions: Vec<Vec<(VertexId, f32)>>, stats: RunStats) -> Self {
        Prediction {
            index: RowIndex::dense(predictions.len()),
            predictions,
            stats,
        }
    }

    /// A result storing `predictions[i]` for the `i`-th vertex of `index`.
    pub(crate) fn from_index(
        index: RowIndex,
        predictions: Vec<Vec<(VertexId, f32)>>,
        stats: RunStats,
    ) -> Self {
        Prediction {
            index,
            predictions,
            stats,
        }
    }

    /// Number of vertices predictions were computed for.
    pub fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }

    /// Predicted `(target, score)` pairs for `u`, best first.
    ///
    /// # Panics
    ///
    /// Panics when `u` is out of range of a result that stores a row for
    /// every vertex.
    pub fn for_vertex(&self, u: VertexId) -> &[(VertexId, f32)] {
        match self.index.sources {
            None => &self.predictions[u.index()],
            Some(_) => self
                .index
                .row(u)
                .and_then(|r| self.predictions.get(r))
                .map_or(&[], Vec::as_slice),
        }
    }

    /// Iterates `(source, predictions)` pairs over all vertices.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[(VertexId, f32)])> + '_ {
        (0..self.num_vertices() as u32).map(move |u| {
            let u = VertexId::new(u);
            (u, self.for_vertex(u))
        })
    }

    /// Total number of predicted edges.
    pub fn total_predictions(&self) -> usize {
        self.predictions.iter().map(Vec::len).sum()
    }

    /// Simulated cluster seconds the run took (cost-model output).
    pub fn simulated_seconds(&self) -> f64 {
        self.stats.simulated_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NamedScore, SelectionPolicy};
    use crate::predictor_api::{PredictRequest, QuerySet};
    use snaple_gas::{ClusterSpec, EngineError};
    use snaple_graph::gen::datasets;
    use snaple_graph::CsrGraph;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// Diamond-with-tail from the paper's Figure 2 spirit:
    /// 0 → {1, 2}; 1 → {3, 4}; 2 → {3}. Candidate 3 is reachable over two
    /// paths, candidate 4 over one.
    fn path_count_graph() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 3)])
    }

    fn predict(config: SnapleConfig, graph: &CsrGraph) -> Prediction {
        let cluster = ClusterSpec::type_ii(2);
        Predictor::predict(&Snaple::new(config), &PredictRequest::new(graph, &cluster)).unwrap()
    }

    #[test]
    fn counter_scores_count_paths() {
        let g = path_count_graph();
        let p = predict(
            SnapleConfig::new(NamedScore::Counter)
                .k(5)
                .klocal(None)
                .thr_gamma(None),
            &g,
        );
        let preds = p.for_vertex(v(0));
        // 3 reached by two paths, 4 by one.
        assert_eq!(preds[0], (v(3), 2.0));
        assert_eq!(preds[1], (v(4), 1.0));
    }

    #[test]
    fn predictions_never_include_self_or_existing_neighbors() {
        let g = datasets::GOWALLA.emulate(0.005, 3);
        let p = predict(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
            &g,
        );
        for (u, preds) in p.iter() {
            for &(z, score) in preds {
                assert_ne!(z, u, "self prediction at {u}");
                assert!(score >= 0.0);
                // With thrΓ high enough the full neighborhood is retained,
                // so no prediction may duplicate an existing edge.
                assert!(!g.has_edge(u, z), "{u} -> {z} already exists");
            }
        }
    }

    #[test]
    fn at_most_k_predictions_per_vertex() {
        let g = datasets::GOWALLA.emulate(0.005, 3);
        for k in [1, 3, 5] {
            let p = predict(SnapleConfig::new(NamedScore::LinearSum).k(k), &g);
            assert!(p.iter().all(|(_, preds)| preds.len() <= k));
            assert!(p.total_predictions() > 0);
        }
    }

    #[test]
    fn results_match_across_cluster_sizes_exactly_for_counter() {
        let g = datasets::GOWALLA.emulate(0.004, 5);
        let config = SnapleConfig::new(NamedScore::Counter).k(5).klocal(Some(10));
        let machine = ClusterSpec::single_machine(20, 128 << 30);
        let single = Predictor::predict(
            &Snaple::new(config.clone()),
            &PredictRequest::new(&g, &machine),
        )
        .unwrap();
        let sixteen = ClusterSpec::type_i(16);
        let cluster =
            Predictor::predict(&Snaple::new(config), &PredictRequest::new(&g, &sixteen)).unwrap();
        for (u, preds) in single.iter() {
            assert_eq!(preds, cluster.for_vertex(u), "vertex {u}");
        }
    }

    #[test]
    fn klocal_none_explores_more_candidates_than_small_klocal() {
        let g = datasets::POKEC.emulate(0.002, 9);
        let full = predict(
            SnapleConfig::new(NamedScore::LinearSum)
                .klocal(None)
                .thr_gamma(None),
            &g,
        );
        let sampled = predict(
            SnapleConfig::new(NamedScore::LinearSum)
                .klocal(Some(2))
                .thr_gamma(None),
            &g,
        );
        // Sampling restricts the candidate space, so the sampled run can
        // never produce more scored work than the full run.
        let full_work = full.stats.total_work_ops();
        let sampled_work = sampled.stats.total_work_ops();
        assert!(
            sampled_work < full_work,
            "sampled {sampled_work} !< full {full_work}"
        );
    }

    #[test]
    fn zero_k_is_rejected() {
        let g = path_count_graph();
        let one = ClusterSpec::type_i(1);
        let err = Predictor::predict(
            &Snaple::new(SnapleConfig::new(NamedScore::LinearSum).k(0)),
            &PredictRequest::new(&g, &one),
        )
        .unwrap_err();
        assert!(matches!(err, SnapleError::InvalidConfig(_)));
        let err = Predictor::predict(
            &Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(0))),
            &PredictRequest::new(&g, &one),
        )
        .unwrap_err();
        assert!(matches!(err, SnapleError::InvalidConfig(_)));
    }

    #[test]
    fn memory_exhaustion_propagates() {
        let g = datasets::GOWALLA.emulate(0.005, 3);
        let starved = ClusterSpec {
            memory_per_node: 1024,
            ..ClusterSpec::type_i(2)
        };
        let err = Predictor::predict(
            &Snaple::new(SnapleConfig::new(NamedScore::LinearSum)),
            &PredictRequest::new(&g, &starved),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SnapleError::Engine(EngineError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn prepared_execution_matches_one_shot_predicts() {
        let g = datasets::GOWALLA.emulate(0.004, 5);
        let cluster = ClusterSpec::type_ii(2);
        let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(10)));
        let prepared = snaple.prepare(&PrepareRequest::new(&g, &cluster)).unwrap();
        assert!(prepared.setup().partition_build_seconds > 0.0);
        assert!(prepared.setup().replication_factor >= 1.0);

        // Execute-many against one deployment vs fresh one-shot predicts.
        let full = prepared.execute(&ExecuteRequest::new()).unwrap();
        let one_shot = Predictor::predict(&snaple, &PredictRequest::new(&g, &cluster)).unwrap();
        for (u, preds) in full.iter() {
            assert_eq!(preds, one_shot.for_vertex(u));
        }
        // The prepared path amortizes the partition build; one-shot pays it.
        assert_eq!(full.stats.partition_build_seconds, 0.0);
        assert!(one_shot.stats.partition_build_seconds > 0.0);

        let attrs = vec![vec![1u32, 2]; g.num_vertices()];
        let with_attrs = prepared
            .execute(&ExecuteRequest::new().with_attributes(&attrs))
            .unwrap();
        let one_shot_attrs = Predictor::predict(
            &snaple,
            &PredictRequest::new(&g, &cluster).with_attributes(&attrs),
        )
        .unwrap();
        for (u, preds) in with_attrs.iter() {
            assert_eq!(preds, one_shot_attrs.for_vertex(u));
        }
        let short = vec![vec![1u32]; 2];
        assert!(matches!(
            prepared.execute(&ExecuteRequest::new().with_attributes(&short)),
            Err(SnapleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn targeted_rows_match_the_full_run() {
        let g = datasets::GOWALLA.emulate(0.005, 3);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
        );
        let full = Predictor::predict(&snaple, &PredictRequest::new(&g, &cluster)).unwrap();
        let queries = QuerySet::sample(g.num_vertices(), g.num_vertices() / 20, 11);
        let targeted = Predictor::predict(
            &snaple,
            &PredictRequest::new(&g, &cluster).with_queries(&queries),
        )
        .unwrap();
        assert_eq!(targeted.num_vertices(), full.num_vertices());
        for (u, preds) in targeted.iter() {
            if queries.contains(u) {
                assert_eq!(preds, full.for_vertex(u), "queried row {u} diverged");
            } else {
                assert!(preds.is_empty(), "non-queried row {u} must stay empty");
            }
        }
        assert!(
            targeted.stats.total_work_ops() < full.stats.total_work_ops(),
            "targeted {} !< full {}",
            targeted.stats.total_work_ops(),
            full.stats.total_work_ops()
        );
    }

    #[test]
    fn targeted_three_hop_rows_match_the_full_run() {
        use crate::config::PathLength;
        let g = datasets::POKEC.emulate(0.002, 9);
        let cluster = ClusterSpec::type_ii(2);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::Counter)
                .klocal(Some(10))
                .path_length(PathLength::Three),
        );
        let full = Predictor::predict(&snaple, &PredictRequest::new(&g, &cluster)).unwrap();
        let queries = QuerySet::sample(g.num_vertices(), 25, 3);
        let targeted = Predictor::predict(
            &snaple,
            &PredictRequest::new(&g, &cluster).with_queries(&queries),
        )
        .unwrap();
        for q in queries.iter() {
            assert_eq!(targeted.for_vertex(q), full.for_vertex(q), "row {q}");
        }
        assert_eq!(targeted.stats.steps.len(), 5);
    }

    #[test]
    fn full_query_set_reproduces_the_all_vertices_run_bit_for_bit() {
        let g = datasets::GOWALLA.emulate(0.004, 7);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(10)));
        let full = Predictor::predict(&snaple, &PredictRequest::new(&g, &cluster)).unwrap();
        let everyone = QuerySet::from_indices(0..g.num_vertices() as u32);
        let via_queries = Predictor::predict(
            &snaple,
            &PredictRequest::new(&g, &cluster).with_queries(&everyone),
        )
        .unwrap();
        for (u, preds) in full.iter() {
            assert_eq!(preds, via_queries.for_vertex(u), "vertex {u}");
        }
        assert_eq!(
            full.stats.total_work_ops(),
            via_queries.stats.total_work_ops()
        );
        assert_eq!(
            full.stats.total_network_bytes(),
            via_queries.stats.total_network_bytes()
        );
        assert_eq!(full.stats.peak_memory(), via_queries.stats.peak_memory());
    }

    #[test]
    fn out_of_range_queries_are_rejected() {
        let g = path_count_graph();
        let cluster = ClusterSpec::type_i(1);
        let bad = QuerySet::from_indices([0, 9]);
        let err = Predictor::predict(
            &Snaple::new(SnapleConfig::new(NamedScore::LinearSum)),
            &PredictRequest::new(&g, &cluster).with_queries(&bad),
        )
        .unwrap_err();
        assert!(matches!(err, SnapleError::InvalidConfig(_)));
    }

    #[test]
    fn selection_policies_produce_different_samples() {
        let g = datasets::LIVEJOURNAL.emulate(0.0005, 11);
        let base = SnapleConfig::new(NamedScore::LinearSum)
            .k(5)
            .klocal(Some(3));
        let max = predict(base.clone().selection(SelectionPolicy::Max), &g);
        let min = predict(base.clone().selection(SelectionPolicy::Min), &g);
        let differing = max
            .iter()
            .zip(min.iter())
            .filter(|((_, a), (_, b))| a != b)
            .count();
        assert!(differing > 0, "Γmax and Γmin should sample differently");
    }

    #[test]
    fn stats_expose_three_steps() {
        let g = path_count_graph();
        let p = predict(SnapleConfig::new(NamedScore::LinearSum), &g);
        assert_eq!(p.stats.steps.len(), 3);
        assert!(p.simulated_seconds() > 0.0);
        assert_eq!(p.num_vertices(), 5);
    }

    #[test]
    fn three_hop_paths_reach_further_candidates() {
        use crate::config::PathLength;
        // Chain with side links: 0 -> 1 -> 2 -> 3; 3 is 3 hops from 0.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 0), (2, 1)]);
        let two = predict(
            SnapleConfig::new(NamedScore::Counter)
                .klocal(None)
                .thr_gamma(None),
            &g,
        );
        let three = predict(
            SnapleConfig::new(NamedScore::Counter)
                .klocal(None)
                .thr_gamma(None)
                .path_length(PathLength::Three),
            &g,
        );
        let v3 = v(3);
        assert!(
            !two.for_vertex(v(0)).iter().any(|(z, _)| *z == v3),
            "2-hop scoring must not reach vertex 3"
        );
        assert!(
            three.for_vertex(v(0)).iter().any(|(z, _)| *z == v3),
            "3-hop scoring must reach vertex 3: {:?}",
            three.for_vertex(v(0))
        );
        // The extension adds two GAS steps.
        assert_eq!(three.stats.steps.len(), 5);
    }
}
