//! The evaluation dataset registry.
//!
//! Wraps the emulators of [`snaple_graph::gen::datasets`] with the scales
//! the reproduction's experiments run at by default. Every experiment
//! binary accepts `--scale <f>` to multiply these defaults, so the same
//! harness can run anywhere from smoke-test size to (hardware permitting)
//! the paper's full size at `--scale` large enough.

use snaple_graph::gen::datasets::{self, DatasetSpec};
use snaple_graph::CsrGraph;

use crate::protocol::HoldOut;

/// A dataset selected for evaluation at a concrete scale.
#[derive(Clone, Debug)]
pub struct EvalDataset {
    /// The underlying paper dataset.
    pub spec: &'static DatasetSpec,
    /// Scale relative to the paper's dataset size.
    pub scale: f64,
}

impl EvalDataset {
    /// Creates a dataset reference at the spec's suggested scale.
    pub fn suggested(spec: &'static DatasetSpec) -> Self {
        EvalDataset {
            spec,
            scale: spec.suggested_scale,
        }
    }

    /// Looks up a dataset by paper name at its suggested scale.
    pub fn by_name(name: &str) -> Option<Self> {
        datasets::by_name(name).map(Self::suggested)
    }

    /// All five datasets at their suggested scales (Table 4 order).
    pub fn all() -> Vec<Self> {
        datasets::all().into_iter().map(Self::suggested).collect()
    }

    /// The three datasets the paper runs BASELINE on (Table 5).
    pub fn table5() -> Vec<Self> {
        ["gowalla", "pokec", "livejournal"]
            .into_iter()
            .filter_map(Self::by_name)
            .collect()
    }

    /// The three large datasets of the scalability study (Figure 5).
    pub fn scalability() -> Vec<Self> {
        ["livejournal", "orkut", "twitter-rv"]
            .into_iter()
            .filter_map(Self::by_name)
            .collect()
    }

    /// Multiplies the scale (from `--scale` flags).
    pub fn scaled_by(mut self, factor: f64) -> Self {
        self.scale *= factor;
        self
    }

    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// Generates the graph.
    pub fn load(&self, seed: u64) -> CsrGraph {
        self.spec.emulate(self.scale, seed)
    }

    /// Generates the graph and the hold-out split in one call.
    pub fn load_with_holdout(&self, seed: u64, removals_per_vertex: usize) -> (CsrGraph, HoldOut) {
        let graph = self.load(seed);
        let holdout = HoldOut::remove_edges(&graph, removals_per_vertex, seed ^ 0x0ed6e);
        (graph, holdout)
    }

    /// Memory-capacity scale for clusters processing this dataset: per-node
    /// memory is multiplied by the dataset scale so that out-of-memory
    /// crossovers land on the same datasets as in the paper: a dataset
    /// emulated at 1 % of its size gets 1 % of each node's memory.
    pub fn memory_scale(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_tables() {
        assert_eq!(EvalDataset::all().len(), 5);
        assert_eq!(
            EvalDataset::table5()
                .iter()
                .map(EvalDataset::name)
                .collect::<Vec<_>>(),
            vec!["gowalla", "pokec", "livejournal"]
        );
        assert_eq!(
            EvalDataset::scalability()
                .iter()
                .map(EvalDataset::name)
                .collect::<Vec<_>>(),
            vec!["livejournal", "orkut", "twitter-rv"]
        );
    }

    #[test]
    fn by_name_and_scaling() {
        let d = EvalDataset::by_name("gowalla").unwrap();
        assert_eq!(d.scale, d.spec.suggested_scale);
        let half = d.clone().scaled_by(0.5);
        assert!((half.scale - d.scale * 0.5).abs() < 1e-12);
        assert!(EvalDataset::by_name("unknown").is_none());
    }

    #[test]
    fn load_with_holdout_is_consistent() {
        let d = EvalDataset::by_name("gowalla").unwrap().scaled_by(0.02);
        let (graph, holdout) = d.load_with_holdout(3, 1);
        assert_eq!(graph.num_vertices(), holdout.train.num_vertices());
        assert!(holdout.num_removed() > 0);
        assert_eq!(
            graph.num_edges(),
            holdout.train.num_edges() + holdout.num_removed()
        );
    }
}
