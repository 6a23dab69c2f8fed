#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Supervised link prediction on top of SNAPLE — the extension the paper
//! names as future work (§7: *"One such path involve\[s\] the extension of
//! SNAPLE to supervised link-prediction strategies, which may improve
//! recall while taking advantage of distributed computing."*).
//!
//! The approach follows the classical supervised link-prediction recipe
//! (Lichtenwalter et al., the paper's \[22\]) but keeps SNAPLE's distributed
//! cost profile: all *features* are unsupervised SNAPLE scores, each
//! computable with the same three-step GAS program, so the only additional
//! work is a cheap logistic model over a handful of score columns.
//!
//! 1. [`features`] runs a panel of SNAPLE scoring configurations and joins
//!    their candidate lists into per-pair feature vectors (optionally with
//!    log-degree features).
//! 2. A self-supervised training set is built by holding out a second
//!    batch of edges from the *training* graph: pairs that recover a
//!    held-out edge are positives, all other candidates negatives.
//! 3. [`logistic`] fits an L2-regularized logistic regression with SGD
//!    (hand-rolled — no external ML dependency).
//! 4. The learned weights re-rank the candidate pool; the result is the
//!    same [`snaple_core::Prediction`] type as every other predictor in
//!    the workspace, so the evaluation harness applies unchanged.
//!
//! # Example
//!
//! ```
//! use snaple_supervised::{SupervisedConfig, SupervisedSnaple};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.005, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let model = SupervisedSnaple::new(SupervisedConfig::new())
//!     .train(&graph, &cluster)?;
//! // The trained model is a Predictor like every other backend.
//! use snaple_core::{PredictRequest, Predictor};
//! let prediction = Predictor::predict(&model, &PredictRequest::new(&graph, &cluster))?;
//! assert_eq!(prediction.num_vertices(), graph.num_vertices());
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

pub mod features;
pub mod logistic;

use snaple_core::{
    ExecuteRequest, NamedScore, Prediction, Predictor, PrepareRequest, Prepared, PreparedPredictor,
    ScoringProgram, SnapleError,
};
use snaple_gas::{ClusterSpec, Deployment};
use snaple_graph::{CsrGraph, GraphStore};

use crate::features::{CandidateTable, FeaturePanel};
use crate::logistic::LogisticRegression;

/// Configuration of the supervised predictor.
#[derive(Clone, Debug)]
pub struct SupervisedConfig {
    /// The unsupervised scoring configurations whose scores become feature
    /// columns.
    pub panel: Vec<NamedScore>,
    /// Include log-degree features of both endpoints.
    pub degree_features: bool,
    /// Final predictions per vertex.
    pub k: usize,
    /// Candidate-pool size gathered per vertex per configuration.
    pub pool: usize,
    /// `klocal` used by the underlying SNAPLE runs.
    pub klocal: Option<usize>,
    /// Edges held out per vertex to generate training labels.
    pub label_removals: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Seed for hold-out construction and SGD shuffling.
    pub seed: u64,
}

impl SupervisedConfig {
    /// Creates the default configuration: a linearSum/counter/PPR/euclSum
    /// panel with degree features.
    pub fn new() -> Self {
        SupervisedConfig {
            panel: vec![
                NamedScore::LinearSum,
                NamedScore::Counter,
                NamedScore::Ppr,
                NamedScore::EuclSum,
            ],
            degree_features: true,
            k: 5,
            pool: 20,
            klocal: Some(20),
            label_removals: 1,
            epochs: 12,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 0x5afe,
        }
    }

    /// Sets the scoring panel.
    pub fn panel(mut self, panel: Vec<NamedScore>) -> Self {
        self.panel = panel;
        self
    }

    /// Sets the number of final predictions per vertex.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the candidate-pool size per vertex.
    pub fn pool(mut self, pool: usize) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SupervisedConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The supervised trainer.
#[derive(Clone, Debug)]
pub struct SupervisedSnaple {
    config: SupervisedConfig,
}

impl SupervisedSnaple {
    /// Creates a trainer.
    pub fn new(config: SupervisedConfig) -> Self {
        SupervisedSnaple { config }
    }

    /// Trains a model on `graph`: holds out `label_removals` edges per
    /// vertex, extracts the feature panel on the reduced graph, labels
    /// candidates by whether they recover a held-out edge, and fits the
    /// logistic model.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying SNAPLE runs and
    /// rejects empty panels.
    pub fn train(
        &self,
        graph: &CsrGraph,
        cluster: &ClusterSpec,
    ) -> Result<TrainedModel, SnapleError> {
        if self.config.panel.is_empty() {
            return Err(SnapleError::InvalidConfig(
                "supervised panel must contain at least one scoring configuration".into(),
            ));
        }
        let holdout = snaple_eval::HoldOut::remove_edges(
            graph,
            self.config.label_removals,
            self.config.seed ^ 0x1abe1,
        );
        let panel = FeaturePanel::new(&self.config);
        let table = panel.extract(&holdout.train, cluster)?;

        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for (u, z, features) in table.rows() {
            xs.push(features.to_vec());
            ys.push(if holdout.is_removed(u, z) { 1.0 } else { 0.0 });
        }
        let mut model = LogisticRegression::new(table.num_features());
        model.fit(
            &xs,
            &ys,
            self.config.epochs,
            self.config.learning_rate,
            self.config.l2,
            self.config.seed,
        );
        Ok(TrainedModel {
            config: self.config.clone(),
            model,
            feature_names: table.feature_names().to_vec(),
        })
    }
}

/// A trained supervised ranker.
#[derive(Clone, Debug)]
pub struct TrainedModel {
    config: SupervisedConfig,
    model: LogisticRegression,
    feature_names: Vec<String>,
}

impl TrainedModel {
    /// Learned weight per feature column (diagnostic).
    pub fn weights(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.feature_names
            .iter()
            .map(String::as_str)
            .zip(self.model.weights().iter().copied())
    }

    /// The feature columns the model consumes, in weight order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    fn rank(&self, graph: &dyn GraphStore, table: CandidateTable) -> Prediction {
        use snaple_core::topk::top_k_by_score;
        let mut per_vertex: Vec<Vec<(snaple_graph::VertexId, f32)>> =
            vec![Vec::new(); graph.num_vertices()];
        for (u, z, features) in table.rows() {
            let p = self.model.predict_proba(features);
            per_vertex[u.index()].push((z, p as f32));
        }
        let predictions: Vec<_> = per_vertex
            .into_iter()
            .map(|cands| top_k_by_score(cands, self.config.k))
            .collect();
        Prediction::from_parts(predictions, table.into_stats())
    }
}

impl ScoringProgram for TrainedModel {
    /// Extracts the feature panel on the shared deployment (targeted when
    /// the request carries a [`QuerySet`](snaple_core::QuerySet)) and
    /// ranks each requested vertex's candidate pool by the learned model.
    fn execute_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<Prediction, SnapleError> {
        let graph = deployment.graph();
        req.validate_for(graph)?;
        if req.attributes().is_some() {
            return Err(SnapleError::InvalidConfig(
                "the supervised panel scores structure only and accepts no content attributes"
                    .to_owned(),
            ));
        }
        let panel = FeaturePanel::new(&self.config);
        let table = panel.extract_on(deployment, req.queries(), req.seed())?;
        Ok(self.rank(graph, table))
    }
}

impl Predictor for TrainedModel {
    /// Prepares the feature-panel plan: one shared deployment (partition +
    /// cost model) that every panel column of every subsequent
    /// [`ExecuteRequest`] runs on, and that one
    /// [`apply_delta`](PreparedPredictor::apply_delta) refreshes for
    /// every column at once.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying SNAPLE runs;
    /// [`SnapleError::InvalidConfig`] for empty panels or attached
    /// attributes (the panel's configurations are structural).
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        let plan = FeaturePanel::new(&self.config).plan()?;
        let config = plan.config();
        let prepared = Prepared::new(self.clone(), req, config.partition, config.seed)?;
        Ok(Box::new(prepared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_core::{PredictRequest, Snaple, SnapleConfig};
    use snaple_eval::{metrics, HoldOut};
    use snaple_graph::gen::datasets;

    fn cluster() -> ClusterSpec {
        ClusterSpec::type_ii(4)
    }

    #[test]
    fn rejects_empty_panels() {
        let graph = datasets::GOWALLA.emulate(0.002, 1);
        let err = SupervisedSnaple::new(SupervisedConfig::new().panel(vec![]))
            .train(&graph, &cluster())
            .unwrap_err();
        assert!(matches!(err, SnapleError::InvalidConfig(_)));
    }

    #[test]
    fn training_produces_finite_interpretable_weights() {
        let graph = datasets::GOWALLA.emulate(0.005, 3);
        let model = SupervisedSnaple::new(SupervisedConfig::new().seed(3))
            .train(&graph, &cluster())
            .unwrap();
        let weights: Vec<(String, f64)> = model.weights().map(|(n, w)| (n.to_owned(), w)).collect();
        assert!(weights.len() >= 4, "{weights:?}");
        assert!(weights.iter().all(|(_, w)| w.is_finite()));
        // At least one score column must carry signal.
        assert!(
            weights.iter().any(|(_, w)| w.abs() > 1e-3),
            "degenerate model: {weights:?}"
        );
    }

    #[test]
    fn supervised_matches_or_beats_its_best_feature() {
        let graph = datasets::GOWALLA.emulate(0.01, 7);
        let eval = HoldOut::remove_edges(&graph, 1, 99);
        let cl = cluster();

        let model = SupervisedSnaple::new(SupervisedConfig::new().seed(7))
            .train(&eval.train, &cl)
            .unwrap();
        let supervised =
            Predictor::predict(&model, &PredictRequest::new(&eval.train, &cl)).unwrap();
        let supervised_recall = metrics::recall(&supervised, &eval);

        let mut best_single: f64 = 0.0;
        for spec in [NamedScore::LinearSum, NamedScore::Counter, NamedScore::Ppr] {
            let p = Predictor::predict(
                &Snaple::new(SnapleConfig::new(spec).klocal(Some(20))),
                &PredictRequest::new(&eval.train, &cl),
            )
            .unwrap();
            best_single = best_single.max(metrics::recall(&p, &eval));
        }
        // Paper §7 hopes supervision "may improve recall"; require at
        // least near-parity with the best unsupervised configuration.
        assert!(
            supervised_recall >= 0.9 * best_single,
            "supervised {supervised_recall} vs best single {best_single}"
        );
    }

    #[test]
    fn prediction_lists_are_well_formed() {
        let graph = datasets::GOWALLA.emulate(0.004, 5);
        let cl = cluster();
        let model = SupervisedSnaple::new(SupervisedConfig::new().k(3).seed(5))
            .train(&graph, &cl)
            .unwrap();
        let p = Predictor::predict(&model, &PredictRequest::new(&graph, &cl)).unwrap();
        for (u, preds) in p.iter() {
            assert!(preds.len() <= 3);
            for &(z, s) in preds {
                assert_ne!(z, u);
                assert!((0.0..=1.0).contains(&s), "probability out of range: {s}");
            }
            assert!(preds.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }
}
