//! Candidate feature extraction from a panel of SNAPLE configurations.

use std::collections::HashMap;

use snaple_core::{ExecuteRequest, PlanConfig, QuerySet, ScorePlan, ScoreSpec, SnapleError};
use snaple_gas::{ClusterSpec, Deployment, RunStats};
use snaple_graph::{store, GraphStore, VertexId};

use crate::SupervisedConfig;

/// Runs each panel configuration and joins candidate scores into feature
/// rows.
#[derive(Clone, Debug)]
pub struct FeaturePanel<'c> {
    config: &'c SupervisedConfig,
}

impl<'c> FeaturePanel<'c> {
    /// Creates a panel extractor.
    pub fn new(config: &'c SupervisedConfig) -> Self {
        FeaturePanel { config }
    }

    /// Extracts the candidate table for every vertex of `graph`.
    ///
    /// Candidates are the union of each configuration's top-`pool`
    /// predictions; a configuration that did not propose a candidate
    /// contributes a zero in its column.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying SNAPLE runs.
    pub fn extract(
        &self,
        graph: &dyn GraphStore,
        cluster: &ClusterSpec,
    ) -> Result<CandidateTable, SnapleError> {
        self.extract_for(graph, cluster, None)
    }

    /// The fused [`ScorePlan`] evaluating every panel column in **one**
    /// masked sweep — all columns share one partition strategy, seed and
    /// sampling configuration, which is what lets the whole panel ride a
    /// single traversal of a single shared [`Deployment`].
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] for empty panels.
    pub fn plan(&self) -> Result<ScorePlan, SnapleError> {
        let cfg = self.config;
        if cfg.panel.is_empty() {
            return Err(SnapleError::InvalidConfig("empty panel".into()));
        }
        let specs: Vec<ScoreSpec> = cfg
            .panel
            .iter()
            .map(|&named| ScoreSpec::named(named))
            .collect();
        ScorePlan::with_config(
            specs,
            PlanConfig::default()
                .k(cfg.pool)
                .klocal(cfg.klocal)
                .seed(cfg.seed),
        )
    }

    /// Builds the deployment every panel column executes on.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] for unusable cluster shapes.
    pub fn deploy<'g>(
        &self,
        graph: &'g dyn GraphStore,
        cluster: &ClusterSpec,
    ) -> Result<Deployment<'g>, SnapleError> {
        let plan = self.plan()?;
        let config = plan.config();
        Ok(Deployment::new(
            graph,
            cluster.clone(),
            config.partition,
            config.seed,
        )?)
    }

    /// Like [`FeaturePanel::extract`], optionally restricted to a query
    /// subset: every panel configuration runs targeted, so only the
    /// queried vertices get candidate rows — the serving path of the
    /// supervised re-ranker.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying SNAPLE runs.
    pub fn extract_for(
        &self,
        graph: &dyn GraphStore,
        cluster: &ClusterSpec,
        queries: Option<&QuerySet>,
    ) -> Result<CandidateTable, SnapleError> {
        let deployment = self.deploy(graph, cluster)?;
        let mut table = self.extract_on(&deployment, queries, None)?;
        // This one-shot path paid for the partition build (once for the
        // whole panel, not once per column).
        table.stats.partition_build_seconds = deployment.partition_build_seconds();
        Ok(table)
    }

    /// Runs the whole panel on a prepared, shared [`Deployment`] — the
    /// serving path: one O(edges) partition build covers every feature
    /// column of every request, and since the [`ScorePlan`] redesign one
    /// **fused sweep** computes all score columns at once instead of one
    /// deployment run per column (the columns are bit-identical to the
    /// per-column runs the panel used to pay for).
    ///
    /// `seed` overrides the randomized parts of the fused run (see
    /// [`ExecuteRequest::with_seed`]); `None` keeps the panel seed.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError`] from the underlying fused run.
    pub fn extract_on(
        &self,
        deployment: &Deployment<'_>,
        queries: Option<&QuerySet>,
        seed: Option<u64>,
    ) -> Result<CandidateTable, SnapleError> {
        let cfg = self.config;
        let graph = deployment.graph();
        let mut names: Vec<String> = cfg.panel.iter().map(|s| s.name().to_owned()).collect();
        if cfg.degree_features {
            names.push("log-out-degree(u)".into());
            names.push("log-in-degree(z)".into());
        }
        let num_features = names.len();

        // candidate -> dense feature row, per vertex.
        let mut rows: Vec<HashMap<VertexId, Vec<f64>>> = vec![HashMap::new(); graph.num_vertices()];
        let plan = self.plan()?;
        let mut exec = ExecuteRequest::new();
        if let Some(q) = queries {
            exec = exec.with_queries(q);
        }
        if let Some(s) = seed {
            exec = exec.with_seed(s);
        }
        let matrix = plan.execute_on(deployment, &exec)?;
        for col in 0..cfg.panel.len() {
            for (u, preds) in matrix.column_rows(col) {
                for &(z, score) in preds {
                    rows[u.index()]
                        .entry(z)
                        .or_insert_with(|| vec![0.0; num_features])[col] = score as f64;
                }
            }
        }
        let stats = matrix.stats;
        if cfg.degree_features {
            // Graphs store out-rows only, so in-degrees take one O(E) count.
            let mut in_degree = vec![0usize; graph.num_vertices()];
            for (_, z) in store::edges(graph) {
                in_degree[z.index()] += 1;
            }
            for (ui, candidates) in rows.iter_mut().enumerate() {
                let u = VertexId::new(ui as u32);
                let du = (graph.out_degree(u) as f64 + 1.0).ln();
                for (z, row) in candidates.iter_mut() {
                    row[num_features - 2] = du;
                    row[num_features - 1] = (in_degree[z.index()] as f64 + 1.0).ln();
                }
            }
        }
        Ok(CandidateTable { names, rows, stats })
    }
}

/// The joined candidate/feature table produced by [`FeaturePanel`].
#[derive(Clone, Debug)]
pub struct CandidateTable {
    names: Vec<String>,
    rows: Vec<HashMap<VertexId, Vec<f64>>>,
    stats: RunStats,
}

impl CandidateTable {
    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.names.len()
    }

    /// Column names, in row order.
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// Total candidate rows across all vertices.
    pub fn num_rows(&self) -> usize {
        self.rows.iter().map(HashMap::len).sum()
    }

    /// Iterates `(source, candidate, features)` rows in deterministic
    /// (source, candidate) order.
    pub fn rows(&self) -> impl Iterator<Item = (VertexId, VertexId, &[f64])> + '_ {
        self.rows.iter().enumerate().flat_map(|(ui, cands)| {
            let u = VertexId::new(ui as u32);
            let mut sorted: Vec<(&VertexId, &Vec<f64>)> = cands.iter().collect();
            sorted.sort_by_key(|(z, _)| **z);
            sorted
                .into_iter()
                .map(move |(z, f)| (u, *z, f.as_slice()))
                .collect::<Vec<_>>()
        })
    }

    /// Accumulated engine statistics of the panel runs.
    pub fn into_stats(self) -> RunStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_graph::gen::datasets;

    fn extract_small() -> CandidateTable {
        let graph = datasets::GOWALLA.emulate(0.002, 9);
        let config = SupervisedConfig::new().seed(9);
        FeaturePanel::new(&config)
            .extract(&graph, &ClusterSpec::type_ii(2))
            .unwrap()
    }

    #[test]
    fn table_shape_matches_config() {
        let t = extract_small();
        // 4 panel scores + 2 degree features.
        assert_eq!(t.num_features(), 6);
        assert_eq!(t.feature_names().len(), 6);
        assert!(t.num_rows() > 0);
    }

    #[test]
    fn rows_are_deterministically_ordered_and_dense() {
        let t = extract_small();
        let rows: Vec<(VertexId, VertexId)> = t.rows().map(|(u, z, _)| (u, z)).collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted, "row order must be (source, candidate)");
        for (_, _, f) in t.rows() {
            assert_eq!(f.len(), 6);
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn candidate_union_is_at_least_each_column() {
        let graph = datasets::GOWALLA.emulate(0.002, 9);
        let one = SupervisedConfig::new()
            .panel(vec![snaple_core::NamedScore::Counter])
            .seed(9);
        let narrow = FeaturePanel::new(&one)
            .extract(&graph, &ClusterSpec::type_ii(2))
            .unwrap();
        let wide = extract_small();
        assert!(wide.num_rows() >= narrow.num_rows());
    }
}
