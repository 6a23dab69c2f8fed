//! Emulators for the five datasets of the paper's Table 4.
//!
//! The originals are public but far too large to ship (and `twitter-rv` is
//! 1.4 billion edges); instead each dataset is described by a
//! [`DatasetSpec`] holding its published size, directedness and structural
//! knobs, and [`DatasetSpec::emulate`] instantiates a Holme–Kim graph with
//! the same average degree, directedness and (approximate) degree-CDF shape
//! at a chosen `scale ∈ (0, 1]`. `scale = 1` would regenerate a graph of
//! the paper's full size; the suggested scales keep the full experiment
//! suite tractable on a laptop while preserving every relative comparison.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{community_graph, CommunityParams};
use crate::CsrGraph;

/// Description of one of the paper's evaluation datasets (Table 4).
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as used throughout the paper.
    pub name: &'static str,
    /// Application domain (Table 4's right column).
    pub domain: &'static str,
    /// Published vertex count.
    pub vertices: u64,
    /// Published edge count — as listed in Table 4 (gowalla's count is the
    /// undirected pair count; the others are directed edge counts).
    pub listed_edges: u64,
    /// Directed edge count after the paper's preprocessing (undirected
    /// datasets are duplicated in both directions).
    pub directed_edges: u64,
    /// Whether the original dataset is directed.
    pub directed: bool,
    /// Fraction of reciprocated directed pairs to synthesize (1.0 for
    /// originally undirected datasets).
    pub reciprocity: f64,
    /// Holme–Kim triad-formation probability controlling clustering.
    pub triad_closure: f64,
    /// Probability that a non-triad edge attaches inside the vertex's
    /// community (homophily strength).
    pub community_bias: f64,
    /// Mean planted-community size.
    pub mean_community_size: usize,
    /// Scale at which the reproduction's experiments run by default.
    pub suggested_scale: f64,
}

/// gowalla — location-based social network (undirected).
pub const GOWALLA: DatasetSpec = DatasetSpec {
    name: "gowalla",
    domain: "social network",
    vertices: 196_591,
    listed_edges: 950_327,
    directed_edges: 1_900_654,
    directed: false,
    reciprocity: 1.0,
    triad_closure: 0.60,
    community_bias: 0.80,
    mean_community_size: 25,
    suggested_scale: 0.25,
};

/// pokec — Slovak social network (directed).
pub const POKEC: DatasetSpec = DatasetSpec {
    name: "pokec",
    domain: "social network",
    vertices: 1_632_803,
    listed_edges: 30_622_564,
    directed_edges: 30_622_564,
    directed: true,
    reciprocity: 0.55,
    triad_closure: 0.55,
    community_bias: 0.75,
    mean_community_size: 30,
    suggested_scale: 0.02,
};

/// orkut — social network (undirected; Table 4 lists the directed count).
pub const ORKUT: DatasetSpec = DatasetSpec {
    name: "orkut",
    domain: "social network",
    vertices: 3_072_441,
    listed_edges: 223_534_301,
    directed_edges: 223_534_301,
    directed: false,
    reciprocity: 1.0,
    triad_closure: 0.65,
    community_bias: 0.75,
    mean_community_size: 60,
    suggested_scale: 0.004,
};

/// livejournal — blogging community (directed).
pub const LIVEJOURNAL: DatasetSpec = DatasetSpec {
    name: "livejournal",
    domain: "co-authorship",
    vertices: 4_847_571,
    listed_edges: 68_993_773,
    directed_edges: 68_993_773,
    directed: true,
    reciprocity: 0.74,
    triad_closure: 0.70,
    community_bias: 0.80,
    mean_community_size: 30,
    suggested_scale: 0.01,
};

/// twitter-rv — the 2010 Twitter follower graph (directed, 1.4B edges).
pub const TWITTER_RV: DatasetSpec = DatasetSpec {
    name: "twitter-rv",
    domain: "microblogging",
    vertices: 41_652_230,
    listed_edges: 1_468_365_182,
    directed_edges: 1_468_365_182,
    directed: true,
    reciprocity: 0.22,
    triad_closure: 0.45,
    community_bias: 0.55,
    mean_community_size: 50,
    suggested_scale: 0.001,
};

/// All five datasets in the order of the paper's Table 4.
pub fn all() -> [&'static DatasetSpec; 5] {
    [&GOWALLA, &POKEC, &ORKUT, &LIVEJOURNAL, &TWITTER_RV]
}

/// Looks a dataset up by its paper name.
///
/// ```
/// use snaple_graph::gen::datasets;
/// assert!(datasets::by_name("pokec").is_some());
/// assert!(datasets::by_name("friendster").is_none());
/// ```
pub fn by_name(name: &str) -> Option<&'static DatasetSpec> {
    all().into_iter().find(|d| d.name == name)
}

impl DatasetSpec {
    /// Vertex count at the given scale (with a floor so tiny scales remain
    /// meaningful graphs).
    pub fn scaled_vertices(&self, scale: f64) -> usize {
        ((self.vertices as f64 * scale).round() as usize).max(256)
    }

    /// Directed edge count targeted at the given scale.
    pub fn scaled_edges(&self, scale: f64) -> usize {
        (self.directed_edges as f64 * scale).round() as usize
    }

    /// Generates a synthetic stand-in for this dataset.
    ///
    /// The result is a directed [`CsrGraph`] whose vertex count, directed
    /// edge count, reciprocity and degree-distribution shape approximate the
    /// original at `scale`. Deterministic for a given `(scale, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn emulate(&self, scale: f64, seed: u64) -> CsrGraph {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let n = self.scaled_vertices(scale);
        let target_directed = self.scaled_edges(scale).max(n);
        // A pair is kept bidirectional with probability ρ/(2−ρ) (see
        // `into_oriented_graph`), so it yields 2/(2−ρ) directed edges on
        // average.
        let edges_per_pair = 2.0 / (2.0 - self.reciprocity);
        let m_per_vertex = ((target_directed as f64 / (n as f64 * edges_per_pair)).round()
            as usize)
            .clamp(1, n / 2 - 1);
        let mut rng = StdRng::seed_from_u64(seed ^ crate::hash::hash1(0x5a17, n as u64));
        let params = CommunityParams {
            m: m_per_vertex,
            p_triad: self.triad_closure,
            p_community: self.community_bias,
            mean_community_size: self.mean_community_size,
        };
        let edges = community_graph(n, params, &mut rng);
        if self.reciprocity >= 1.0 {
            edges.into_symmetric_graph()
        } else {
            edges.into_oriented_graph(self.reciprocity, &mut rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn registry_is_complete_and_ordered() {
        let names: Vec<_> = all().iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["gowalla", "pokec", "orkut", "livejournal", "twitter-rv"]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("twitter-rv").unwrap().vertices, 41_652_230);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn emulation_hits_size_targets_roughly() {
        let scale = 0.002;
        let g = POKEC.emulate(scale, 42);
        let want_v = POKEC.scaled_vertices(scale);
        let want_e = POKEC.scaled_edges(scale);
        assert!(
            (g.num_vertices() as f64 - want_v as f64).abs() / (want_v as f64) < 0.01,
            "vertices {} vs {}",
            g.num_vertices(),
            want_v
        );
        assert!(
            (g.num_edges() as f64 - want_e as f64).abs() / (want_e as f64) < 0.25,
            "edges {} vs {}",
            g.num_edges(),
            want_e
        );
    }

    #[test]
    fn undirected_datasets_are_symmetric() {
        let g = GOWALLA.emulate(0.01, 7);
        assert!((stats::reciprocity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn directed_datasets_match_target_reciprocity() {
        let g = TWITTER_RV.emulate(0.0005, 7);
        let r = stats::reciprocity(&g);
        assert!((r - TWITTER_RV.reciprocity).abs() < 0.15, "reciprocity {r}");
    }

    #[test]
    fn emulation_is_deterministic() {
        let a = LIVEJOURNAL.emulate(0.001, 3);
        let b = LIVEJOURNAL.emulate(0.001, 3);
        assert_eq!(a.num_edges(), b.num_edges());
        for u in a.vertices() {
            assert_eq!(a.out_neighbors(u), b.out_neighbors(u));
        }
        let c = LIVEJOURNAL.emulate(0.001, 4);
        assert_ne!(
            a.edges().collect::<Vec<_>>(),
            c.edges().collect::<Vec<_>>(),
            "different seeds should differ"
        );
    }

    #[test]
    fn emulated_graphs_have_heavy_tails() {
        let g = ORKUT.emulate(0.001, 9);
        let s = stats::degree_summary(&g);
        assert!(s.max as f64 > 4.0 * s.mean, "max {} mean {}", s.max, s.mean);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn emulate_rejects_bad_scale() {
        let _ = GOWALLA.emulate(0.0, 1);
    }
}
