//! Graph statistics: out-degree distributions, CDFs, clustering,
//! reciprocity.
//!
//! These drive the paper's Figure 6a–c (out-degree CDFs of orkut,
//! livejournal and twitter-rv) and the sanity checks on the synthetic
//! dataset emulators.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{CsrGraph, VertexId};

/// Summary statistics of a degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeSummary {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub p50: usize,
    /// 90th-percentile degree.
    pub p90: usize,
    /// 99th-percentile degree.
    pub p99: usize,
}

/// Computes the out-degree summary.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn degree_summary(graph: &CsrGraph) -> DegreeSummary {
    assert!(graph.num_vertices() > 0, "degree summary of empty graph");
    let mut degrees: Vec<usize> = graph.vertices().map(|u| graph.out_degree(u)).collect();
    degrees.sort_unstable();
    let n = degrees.len();
    let pct = |p: f64| degrees[(((n - 1) as f64) * p).round() as usize];
    DegreeSummary {
        min: degrees[0],
        max: degrees[n - 1],
        mean: degrees.iter().sum::<usize>() as f64 / n as f64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
    }
}

/// Histogram of out-degrees: `degree -> number of vertices with that
/// degree`.
pub fn degree_histogram(graph: &CsrGraph) -> BTreeMap<usize, usize> {
    let mut hist = BTreeMap::new();
    for u in graph.vertices() {
        *hist.entry(graph.out_degree(u)).or_insert(0) += 1;
    }
    hist
}

/// Empirical CDF of the out-degree distribution as
/// `(degree, P[deg <= degree])` points, one per distinct degree, in
/// increasing degree order.
///
/// This is exactly the curve plotted in the paper's Figure 6a–c.
pub fn degree_cdf(graph: &CsrGraph) -> Vec<(usize, f64)> {
    let hist = degree_histogram(graph);
    let n = graph.num_vertices() as f64;
    let mut acc = 0usize;
    hist.into_iter()
        .map(|(d, c)| {
            acc += c;
            (d, acc as f64 / n)
        })
        .collect()
}

/// Fraction of vertices whose out-degree is `<= threshold`; i.e. the CDF
/// evaluated at `threshold`. Used for the paper's §5.5 observation that
/// `thrΓ = 80` already covers >= 80% of the vertices of all three datasets.
pub fn degree_coverage(graph: &CsrGraph, threshold: usize) -> f64 {
    if graph.num_vertices() == 0 {
        return 1.0;
    }
    let covered = graph
        .vertices()
        .filter(|&u| graph.out_degree(u) <= threshold)
        .count();
    covered as f64 / graph.num_vertices() as f64
}

/// Estimates the mean local clustering coefficient by sampling `samples`
/// vertices with degree >= 2 (treating edges as undirected via out-adjacency).
///
/// Returns `0.0` for graphs with no such vertex.
pub fn clustering_coefficient<R: Rng>(graph: &CsrGraph, samples: usize, rng: &mut R) -> f64 {
    let candidates: Vec<VertexId> = graph
        .vertices()
        .filter(|&u| graph.out_degree(u) >= 2)
        .collect();
    if candidates.is_empty() {
        return 0.0;
    }
    let picked: Vec<VertexId> = if candidates.len() <= samples {
        candidates
    } else {
        candidates.choose_multiple(rng, samples).copied().collect()
    };
    let mut total = 0.0;
    for &u in &picked {
        let nbrs = graph.out_neighbors(u);
        let d = nbrs.len();
        let mut closed = 0usize;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if graph.has_edge(a, b) || graph.has_edge(b, a) {
                    closed += 1;
                }
            }
        }
        total += closed as f64 / (d * (d - 1) / 2) as f64;
    }
    total / picked.len() as f64
}

/// Fraction of directed edges `(u, v)` whose reverse `(v, u)` also exists.
pub fn reciprocity(graph: &CsrGraph) -> f64 {
    if graph.num_edges() == 0 {
        return 0.0;
    }
    let mut reciprocal = 0usize;
    for (u, v) in graph.edges() {
        if graph.has_edge(v, u) {
            reciprocal += 1;
        }
    }
    reciprocal as f64 / graph.num_edges() as f64
}

/// One-line structural summary of a graph, convenient for logs and tables.
#[derive(Clone, Debug)]
pub struct GraphSummary {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Out-degree summary.
    pub out_degree: DegreeSummary,
    /// Estimated mean local clustering coefficient.
    pub clustering: f64,
    /// Fraction of reciprocated edges.
    pub reciprocity: f64,
}

impl GraphSummary {
    /// Computes the summary, sampling `clustering_samples` vertices for the
    /// clustering estimate.
    pub fn compute<R: Rng>(graph: &CsrGraph, clustering_samples: usize, rng: &mut R) -> Self {
        GraphSummary {
            vertices: graph.num_vertices(),
            edges: graph.num_edges(),
            out_degree: degree_summary(graph),
            clustering: clustering_coefficient(graph, clustering_samples, rng),
            reciprocity: reciprocity(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle_plus_tail() -> CsrGraph {
        // triangle 0-1-2 (symmetric) plus a one-way tail 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn summary_of_triangle_tail() {
        let g = triangle_plus_tail();
        let s = degree_summary(&g);
        assert_eq!(s.min, 0); // vertex 3
        assert_eq!(s.max, 3); // vertex 2
        assert!((s.mean - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_every_vertex() {
        let g = triangle_plus_tail();
        let h = degree_histogram(&g);
        assert_eq!(h.values().sum::<usize>(), g.num_vertices());
        assert_eq!(h[&0], 1);
        assert_eq!(h[&2], 2);
        assert_eq!(h[&3], 1);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let g = triangle_plus_tail();
        let cdf = degree_cdf(&g);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_matches_cdf() {
        let g = triangle_plus_tail();
        assert!((degree_coverage(&g, 2) - 0.75).abs() < 1e-12);
        assert_eq!(degree_coverage(&g, 100), 1.0);
        // Only the tail vertex has out-degree 0.
        assert!((degree_coverage(&g, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_full_triangle_is_one_at_its_corners() {
        let mut b = crate::GraphBuilder::new();
        b.symmetrize(true);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let c = clustering_coefficient(&g, 10, &mut rng);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(clustering_coefficient(&g, 10, &mut rng), 0.0);
    }

    #[test]
    fn reciprocity_bounds() {
        let g = triangle_plus_tail();
        // 6 of 7 edges are reciprocated (2->3 is not).
        assert!((reciprocity(&g) - 6.0 / 7.0).abs() < 1e-12);
        let directed = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(reciprocity(&directed), 0.0);
        let empty = CsrGraph::from_edges(2, &[]);
        assert_eq!(reciprocity(&empty), 0.0);
    }

    #[test]
    fn graph_summary_is_consistent() {
        let g = triangle_plus_tail();
        let mut rng = StdRng::seed_from_u64(7);
        let s = GraphSummary::compute(&g, 100, &mut rng);
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 7);
        assert!(s.clustering > 0.0);
    }
}
