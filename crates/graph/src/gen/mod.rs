//! Seeded synthetic graph generators.
//!
//! The paper evaluates on five public social/web graphs (Table 4). Those
//! datasets cannot ship with this repository, so [`datasets`] provides
//! *emulators*: generators parameterized to match each dataset's vertex
//! count, edge count, directedness and degree-distribution shape at a
//! configurable scale. The raw models live in this module:
//!
//! * [`erdos_renyi`] — `G(n, m)` uniform random graphs (low clustering; a
//!   useful negative control for link prediction).
//! * [`barabasi_albert`] — preferential attachment (power-law degrees).
//! * [`holme_kim`] — preferential attachment with triad formation
//!   (power-law degrees *and* high clustering; the workhorse for social
//!   graph emulation).
//! * [`watts_strogatz`] — ring rewiring (high clustering, flat degrees).
//!
//! All models are deterministic given an RNG and return an
//! [`UndirectedEdges`] set which can be materialized either symmetrically
//! (the paper's treatment of undirected datasets) or with a target
//! [reciprocity](crate::stats::reciprocity) for directed datasets.

pub mod datasets;
pub mod rmat;

use std::collections::HashSet;

use rand::Rng;

use crate::{CsrGraph, GraphBuilder};

/// An undirected edge set produced by a generator, before the choice of
/// directed materialization.
#[derive(Clone, Debug)]
pub struct UndirectedEdges {
    num_vertices: usize,
    pairs: Vec<(u32, u32)>,
}

impl UndirectedEdges {
    /// Number of vertices the generator produced.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of undirected pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The raw `(u, v)` pairs with `u < v`.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Materializes the edge set as a directed graph containing both
    /// orientations of every pair — the paper's transformation of the
    /// undirected *gowalla*/*orkut* datasets.
    pub fn into_symmetric_graph(self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.pairs.len());
        b.symmetrize(true);
        b.reserve_vertices(self.num_vertices);
        for (u, v) in self.pairs {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Materializes the edge set as a directed graph whose *edge*
    /// reciprocity (the fraction of directed edges with a reverse edge, as
    /// measured by [`crate::stats::reciprocity`]) approximates
    /// `reciprocity`. Internally a pair keeps both orientations with
    /// probability `reciprocity / (2 - reciprocity)` — the pair-level rate
    /// that yields the requested edge-level rate — and one uniformly random
    /// orientation otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `reciprocity` is not in `[0, 1]`.
    pub fn into_oriented_graph<R: Rng>(self, reciprocity: f64, rng: &mut R) -> CsrGraph {
        assert!(
            (0.0..=1.0).contains(&reciprocity),
            "reciprocity must be in [0, 1], got {reciprocity}"
        );
        let p_both = reciprocity / (2.0 - reciprocity);
        let mut b = GraphBuilder::with_capacity(self.pairs.len() * 2);
        b.reserve_vertices(self.num_vertices);
        for (u, v) in self.pairs {
            if rng.gen::<f64>() < p_both {
                b.add_edge(u, v);
                b.add_edge(v, u);
            } else if rng.gen::<bool>() {
                b.add_edge(u, v);
            } else {
                b.add_edge(v, u);
            }
        }
        b.build()
    }
}

/// Uniform random graph `G(n, m)`: `m` distinct undirected pairs.
///
/// # Panics
///
/// Panics if `m` exceeds the number of distinct pairs `n·(n−1)/2`.
pub fn erdos_renyi<R: Rng>(n: usize, m: usize, rng: &mut R) -> UndirectedEdges {
    let max_pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_pairs,
        "G({n}, {m}) requested but only {max_pairs} pairs exist"
    );
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut pairs = Vec::with_capacity(m);
    while pairs.len() < m {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let (u, v) = if a < b { (a, b) } else { (b, a) };
        if seen.insert((u as u64) << 32 | v as u64) {
            pairs.push((u, v));
        }
    }
    UndirectedEdges {
        num_vertices: n,
        pairs,
    }
}

/// Barabási–Albert preferential attachment: each new vertex attaches `m`
/// edges to existing vertices with probability proportional to degree.
///
/// Equivalent to [`holme_kim`] with `p_triad = 0`.
pub fn barabasi_albert<R: Rng>(n: usize, m: usize, rng: &mut R) -> UndirectedEdges {
    holme_kim(n, m, 0.0, rng)
}

/// Holme–Kim "power-law cluster" model: preferential attachment where each
/// additional edge of a new vertex closes a triangle with probability
/// `p_triad` (attaching to a random neighbor of the previously chosen
/// target). Produces power-law degree distributions with tunable
/// clustering — the degree/clustering regime of the paper's social graphs.
///
/// # Panics
///
/// Panics if `m == 0`, `n <= m`, or `p_triad` is outside `[0, 1]`.
pub fn holme_kim<R: Rng>(n: usize, m: usize, p_triad: f64, rng: &mut R) -> UndirectedEdges {
    assert!(m >= 1, "holme_kim requires m >= 1");
    assert!(n > m, "holme_kim requires n > m (got n = {n}, m = {m})");
    assert!(
        (0.0..=1.0).contains(&p_triad),
        "p_triad must be in [0, 1], got {p_triad}"
    );
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Pool of endpoints for degree-proportional sampling.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity((n - m) * m);

    let connect = |adj: &mut Vec<Vec<u32>>,
                   pool: &mut Vec<u32>,
                   pairs: &mut Vec<(u32, u32)>,
                   v: u32,
                   t: u32| {
        adj[v as usize].push(t);
        adj[t as usize].push(v);
        pool.push(v);
        pool.push(t);
        pairs.push(if v < t { (v, t) } else { (t, v) });
    };

    for v in m as u32..n as u32 {
        let mut last_target: Option<u32> = None;
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < m && attempts < 50 * m {
            attempts += 1;
            let candidate = if let Some(t) = last_target.filter(|_| rng.gen::<f64>() < p_triad) {
                // Triad formation: a random neighbor of the previous target.
                let nbrs = &adj[t as usize];
                if nbrs.is_empty() {
                    pick_preferential(&pool, v, rng)
                } else {
                    Some(nbrs[rng.gen_range(0..nbrs.len())])
                }
            } else {
                pick_preferential(&pool, v, rng)
            };
            let Some(t) = candidate_ok(candidate, v, &adj) else {
                continue;
            };
            connect(&mut adj, &mut pool, &mut pairs, v, t);
            last_target = Some(t);
            added += 1;
        }
    }
    UndirectedEdges {
        num_vertices: n,
        pairs,
    }
}

fn pick_preferential<R: Rng>(pool: &[u32], new_vertex: u32, rng: &mut R) -> Option<u32> {
    if pool.is_empty() {
        // Bootstrap: uniform among the seed vertices.
        if new_vertex == 0 {
            None
        } else {
            Some(rng.gen_range(0..new_vertex))
        }
    } else {
        Some(pool[rng.gen_range(0..pool.len())])
    }
}

fn candidate_ok(candidate: Option<u32>, v: u32, adj: &[Vec<u32>]) -> Option<u32> {
    let t = candidate?;
    if t == v || adj[v as usize].contains(&t) {
        None
    } else {
        Some(t)
    }
}

/// Parameters of the [`community_graph`] model.
#[derive(Copy, Clone, Debug)]
pub struct CommunityParams {
    /// Edges attached per new vertex (as in [`holme_kim`]).
    pub m: usize,
    /// Probability that an additional edge closes a triangle.
    pub p_triad: f64,
    /// Probability that a non-triad edge stays inside the vertex's
    /// community.
    pub p_community: f64,
    /// Mean community size (communities are geometrically distributed
    /// around this mean).
    pub mean_community_size: usize,
}

/// Community-structured preferential attachment: [`holme_kim`] extended
/// with a planted community partition.
///
/// Every vertex belongs to one community (sizes geometric with the given
/// mean). When a new vertex attaches an edge, with probability
/// `p_community` the target is drawn degree-proportionally *within its own
/// community*, otherwise from the global degree distribution; additional
/// edges close triangles with probability `p_triad` as in Holme–Kim.
///
/// The result keeps the power-law degree tail of preferential attachment
/// while adding the homophily that makes neighborhood similarity
/// informative on real social graphs — the property SNAPLE's raw
/// similarities exploit (paper §3.1: "the homophily often observed in
/// field graphs").
///
/// # Panics
///
/// Panics on the same conditions as [`holme_kim`], or if probabilities are
/// outside `[0, 1]`, or if `mean_community_size == 0`.
pub fn community_graph<R: Rng>(n: usize, params: CommunityParams, rng: &mut R) -> UndirectedEdges {
    community_graph_with_labels(n, params, rng).0
}

/// Like [`community_graph`], additionally returning each vertex's planted
/// community label — the ground truth needed to synthesize *vertex
/// content* correlated with structure (see [`community_tags`]).
pub fn community_graph_with_labels<R: Rng>(
    n: usize,
    params: CommunityParams,
    rng: &mut R,
) -> (UndirectedEdges, Vec<u32>) {
    let CommunityParams {
        m,
        p_triad,
        p_community,
        mean_community_size,
    } = params;
    assert!(m >= 1, "community_graph requires m >= 1");
    assert!(n > m, "community_graph requires n > m");
    assert!((0.0..=1.0).contains(&p_triad), "p_triad must be in [0, 1]");
    assert!(
        (0.0..=1.0).contains(&p_community),
        "p_community must be in [0, 1]"
    );
    assert!(mean_community_size >= 1, "communities must be nonempty");

    // Assign communities: consecutive blocks of geometric size, then the
    // block boundaries are effectively random relative to attachment order
    // because ids carry no meaning beyond insertion time. Using blocks
    // keeps assignment O(n) and reproducible.
    let mut community_of: Vec<u32> = Vec::with_capacity(n);
    let mut community = 0u32;
    let mut remaining = sample_community_size(mean_community_size, rng);
    for _ in 0..n {
        if remaining == 0 {
            community += 1;
            remaining = sample_community_size(mean_community_size, rng);
        }
        community_of.push(community);
        remaining -= 1;
    }
    let num_communities = community as usize + 1;

    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut global_pool: Vec<u32> = Vec::new();
    let mut community_pool: Vec<Vec<u32>> = vec![Vec::new(); num_communities];
    // Vertices of each community processed so far (for bootstrap picks).
    let mut active: Vec<Vec<u32>> = vec![Vec::new(); num_communities];
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity((n - m) * m);

    for (v, &c) in community_of.iter().enumerate().take(m) {
        active[c as usize].push(v as u32);
    }
    for v in m as u32..n as u32 {
        let c = community_of[v as usize] as usize;
        let mut last_target: Option<u32> = None;
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < m && attempts < 50 * m {
            attempts += 1;
            let candidate = if let Some(t) = last_target.filter(|_| rng.gen::<f64>() < p_triad) {
                let nbrs = &adj[t as usize];
                if nbrs.is_empty() {
                    pick_preferential(&global_pool, v, rng)
                } else {
                    Some(nbrs[rng.gen_range(0..nbrs.len())])
                }
            } else if rng.gen::<f64>() < p_community {
                // Community-local attachment: degree-proportional within c,
                // bootstrapping from uniform members.
                if !community_pool[c].is_empty() {
                    Some(community_pool[c][rng.gen_range(0..community_pool[c].len())])
                } else if !active[c].is_empty() {
                    Some(active[c][rng.gen_range(0..active[c].len())])
                } else {
                    pick_preferential(&global_pool, v, rng)
                }
            } else {
                pick_preferential(&global_pool, v, rng)
            };
            let Some(t) = candidate_ok(candidate, v, &adj) else {
                continue;
            };
            adj[v as usize].push(t);
            adj[t as usize].push(v);
            global_pool.push(v);
            global_pool.push(t);
            community_pool[c].push(v);
            community_pool[community_of[t as usize] as usize].push(t);
            pairs.push(if v < t { (v, t) } else { (t, v) });
            last_target = Some(t);
            added += 1;
        }
        active[c].push(v);
    }
    (
        UndirectedEdges {
            num_vertices: n,
            pairs,
        },
        community_of,
    )
}

/// Synthesizes per-vertex *tag bags* (content) correlated with a planted
/// community structure: each community owns `vocabulary` private tags plus
/// a shared global pool; every vertex draws `tags_per_vertex` tags, each
/// from its community's vocabulary with probability `1 - noise` and from
/// the global pool otherwise. Returned bags are sorted and deduplicated,
/// ready for set similarities — the "user profiles, tags, or documents"
/// the paper's §2.1/§3.1 content extension refers to.
///
/// # Panics
///
/// Panics if `noise` is outside `[0, 1]` or `vocabulary == 0`.
pub fn community_tags<R: Rng>(
    communities: &[u32],
    tags_per_vertex: usize,
    vocabulary: usize,
    noise: f64,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    assert!((0.0..=1.0).contains(&noise), "noise must be in [0, 1]");
    assert!(vocabulary >= 1, "each community needs a vocabulary");
    let num_communities = communities
        .iter()
        .copied()
        .max()
        .map_or(0, |c| c as usize + 1);
    let global_pool = (num_communities * vocabulary) as u32;
    communities
        .iter()
        .map(|&c| {
            let mut bag: Vec<u32> = (0..tags_per_vertex)
                .map(|_| {
                    if rng.gen::<f64>() < noise {
                        global_pool + rng.gen_range(0..global_pool.max(1))
                    } else {
                        c * vocabulary as u32 + rng.gen_range(0..vocabulary as u32)
                    }
                })
                .collect();
            bag.sort_unstable();
            bag.dedup();
            bag
        })
        .collect()
}

fn sample_community_size<R: Rng>(mean: usize, rng: &mut R) -> usize {
    // Geometric with the given mean (support >= 1).
    if mean <= 1 {
        return 1;
    }
    let p = 1.0 / mean as f64;
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    ((u.ln() / (1.0 - p).ln()).ceil() as usize).max(1)
}

/// Watts–Strogatz small world: ring lattice with `k` neighbors per vertex
/// (`k/2` on each side) where each edge is rewired with probability `beta`.
///
/// # Panics
///
/// Panics if `k` is odd, `k == 0`, `n <= k`, or `beta` is outside `[0, 1]`.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> UndirectedEdges {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "watts_strogatz requires even k >= 2"
    );
    assert!(n > k, "watts_strogatz requires n > k");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let mut seen: HashSet<u64> = HashSet::with_capacity(n * k);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n * k / 2);
    let key = |u: u32, v: u32| {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        (a as u64) << 32 | b as u64
    };
    for u in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            let v = (u + j) % n as u32;
            let (mut a, mut b) = (u, v);
            if rng.gen::<f64>() < beta {
                // Rewire the far endpoint uniformly.
                for _ in 0..32 {
                    let w = rng.gen_range(0..n as u32);
                    if w != a && !seen.contains(&key(a, w)) {
                        b = w;
                        break;
                    }
                }
            }
            if seen.insert(key(a, b)) {
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                pairs.push((a, b));
            }
        }
    }
    UndirectedEdges {
        num_vertices: n,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_has_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = erdos_renyi(100, 250, &mut rng);
        assert_eq!(e.num_pairs(), 250);
        let g = e.into_symmetric_graph();
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn erdos_renyi_pairs_are_distinct_and_canonical() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = erdos_renyi(50, 300, &mut rng);
        let mut ps = e.pairs().to_vec();
        assert!(ps.iter().all(|&(u, v)| u < v));
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ps.len(), 300);
    }

    #[test]
    #[should_panic(expected = "pairs exist")]
    fn erdos_renyi_rejects_impossible_m() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = erdos_renyi(3, 10, &mut rng);
    }

    #[test]
    fn barabasi_albert_produces_heavy_tail() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(2_000, 4, &mut rng).into_symmetric_graph();
        let s = stats::degree_summary(&g);
        // Power law: max degree far above the mean.
        assert!(s.max as f64 > 5.0 * s.mean, "max {} mean {}", s.max, s.mean);
        // Every non-seed vertex attached ~m edges.
        assert!(s.mean >= 6.0, "mean {}", s.mean);
    }

    #[test]
    fn holme_kim_clusters_more_than_ba() {
        let mut rng = StdRng::seed_from_u64(4);
        let ba = barabasi_albert(3_000, 5, &mut rng).into_symmetric_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let hk = holme_kim(3_000, 5, 0.7, &mut rng).into_symmetric_graph();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let c_ba = stats::clustering_coefficient(&ba, 400, &mut r1);
        let c_hk = stats::clustering_coefficient(&hk, 400, &mut r2);
        assert!(
            c_hk > 2.0 * c_ba,
            "expected triad formation to raise clustering: hk {c_hk} vs ba {c_ba}"
        );
    }

    #[test]
    fn watts_strogatz_zero_beta_is_a_ring() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = watts_strogatz(20, 4, 0.0, &mut rng).into_symmetric_graph();
        for u in g.vertices() {
            assert_eq!(g.out_degree(u), 4, "vertex {u}");
        }
    }

    #[test]
    fn watts_strogatz_rewiring_preserves_edge_count_roughly() {
        let mut rng = StdRng::seed_from_u64(6);
        let e = watts_strogatz(500, 6, 0.3, &mut rng);
        // Rewiring can only lose edges to collision fallback; bound the loss.
        assert!(e.num_pairs() >= 500 * 3 - 50, "pairs {}", e.num_pairs());
    }

    #[test]
    fn oriented_graph_hits_target_reciprocity() {
        let mut rng = StdRng::seed_from_u64(7);
        let e = erdos_renyi(400, 3_000, &mut rng);
        let g = e.into_oriented_graph(0.4, &mut rng);
        let r = stats::reciprocity(&g);
        assert!((r - 0.4).abs() < 0.12, "reciprocity {r}");
        let mut rng = StdRng::seed_from_u64(7);
        let e = erdos_renyi(400, 3_000, &mut rng);
        let g = e.into_symmetric_graph();
        assert!((stats::reciprocity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn community_graph_is_homophilous() {
        // With strong community bias, neighbors-of-neighbors should be far
        // more likely to share a community than under plain Holme–Kim.
        let params = CommunityParams {
            m: 5,
            p_triad: 0.3,
            p_community: 0.9,
            mean_community_size: 25,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let e = community_graph(3_000, params, &mut rng);
        let g = e.into_symmetric_graph();
        let mut r = StdRng::seed_from_u64(14);
        let clustered = stats::clustering_coefficient(&g, 400, &mut r);

        let mut rng = StdRng::seed_from_u64(13);
        let ba = barabasi_albert(3_000, 5, &mut rng).into_symmetric_graph();
        let mut r = StdRng::seed_from_u64(14);
        let ba_clustering = stats::clustering_coefficient(&ba, 400, &mut r);
        assert!(
            clustered > 3.0 * ba_clustering,
            "community graph {clustered} vs ba {ba_clustering}"
        );
    }

    #[test]
    fn community_graph_keeps_heavy_tail_and_size() {
        let params = CommunityParams {
            m: 4,
            p_triad: 0.2,
            p_community: 0.7,
            mean_community_size: 30,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let g = community_graph(4_000, params, &mut rng).into_symmetric_graph();
        assert_eq!(g.num_vertices(), 4_000);
        let s = stats::degree_summary(&g);
        assert!(s.max as f64 > 4.0 * s.mean, "max {} mean {}", s.max, s.mean);
        // Every non-seed vertex attached ~m undirected edges.
        assert!(s.mean >= 6.0, "mean {}", s.mean);
    }

    #[test]
    fn community_sizes_have_requested_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<usize> = (0..20_000)
            .map(|_| sample_community_size(25, &mut rng))
            .collect();
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        assert!((mean - 25.0).abs() < 1.5, "mean {mean}");
        assert!(samples.iter().all(|&s| s >= 1));
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(sample_community_size(1, &mut rng), 1);
    }

    #[test]
    fn community_tags_are_homophilous() {
        let params = CommunityParams {
            m: 4,
            p_triad: 0.3,
            p_community: 0.8,
            mean_community_size: 20,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (_edges, labels) = community_graph_with_labels(1_000, params, &mut rng);
        assert_eq!(labels.len(), 1_000);
        let tags = community_tags(&labels, 6, 10, 0.1, &mut rng);
        assert_eq!(tags.len(), 1_000);
        for bag in &tags {
            assert!(bag.windows(2).all(|w| w[0] < w[1]), "bags sorted/deduped");
        }
        // Same-community pairs share far more tags than cross-community.
        let overlap = |a: &[u32], b: &[u32]| a.iter().filter(|t| b.contains(t)).count();
        let mut same = 0usize;
        let mut cross = 0usize;
        let mut same_n = 0usize;
        let mut cross_n = 0usize;
        for i in (0..1_000).step_by(7) {
            for j in (1..1_000).step_by(13) {
                if i == j {
                    continue;
                }
                let o = overlap(&tags[i], &tags[j]);
                if labels[i] == labels[j] {
                    same += o;
                    same_n += 1;
                } else {
                    cross += o;
                    cross_n += 1;
                }
            }
        }
        if same_n > 0 && cross_n > 0 {
            let same_avg = same as f64 / same_n as f64;
            let cross_avg = cross as f64 / cross_n as f64;
            assert!(
                same_avg > 3.0 * cross_avg,
                "same {same_avg} vs cross {cross_avg}"
            );
        }
    }

    #[test]
    fn labeled_and_unlabeled_generators_agree() {
        let params = CommunityParams {
            m: 3,
            p_triad: 0.4,
            p_community: 0.7,
            mean_community_size: 15,
        };
        let a = {
            let mut rng = StdRng::seed_from_u64(11);
            community_graph(500, params, &mut rng).into_symmetric_graph()
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(11);
            community_graph_with_labels(500, params, &mut rng)
                .0
                .into_symmetric_graph()
        };
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn generators_are_deterministic_under_a_seed() {
        let g1 = {
            let mut rng = StdRng::seed_from_u64(11);
            holme_kim(500, 3, 0.5, &mut rng).into_symmetric_graph()
        };
        let g2 = {
            let mut rng = StdRng::seed_from_u64(11);
            holme_kim(500, 3, 0.5, &mut rng).into_symmetric_graph()
        };
        assert_eq!(g1.num_edges(), g2.num_edges());
        for u in g1.vertices() {
            assert_eq!(g1.out_neighbors(u), g2.out_neighbors(u));
        }
    }
}
