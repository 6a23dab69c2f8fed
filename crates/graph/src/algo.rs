//! Classic sequential graph algorithms: the *sequential oracles* of the
//! GAS engine. The engine's distributed PageRank and connected-components
//! programs ([`snaple_gas::programs`](https://example.org)) are tested
//! for exact agreement with the implementations here.

use crate::CsrGraph;

/// Union-find with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Finds the representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

/// Weakly connected components: per-vertex component label (the smallest
/// vertex id in the component), ignoring edge direction.
pub fn weakly_connected_components(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut uf = UnionFind::new(n);
    for (u, v) in graph.edges() {
        uf.union(u.as_u32(), v.as_u32());
    }
    // Canonical label: smallest member id per component.
    let mut label = vec![u32::MAX; n];
    for x in 0..n as u32 {
        let r = uf.find(x) as usize;
        label[r] = label[r].min(x);
    }
    (0..n as u32).map(|x| label[uf.find(x) as usize]).collect()
}

/// Sequential PageRank with uniform teleport, `iterations` synchronous
/// sweeps, damping `d`. Dangling mass is redistributed uniformly.
///
/// # Panics
///
/// Panics if `damping` is outside `[0, 1]`.
pub fn pagerank(graph: &CsrGraph, damping: f64, iterations: usize) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&damping), "damping must be in [0, 1]");
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    for _ in 0..iterations {
        let mut dangling = 0.0;
        for u in graph.vertices() {
            if graph.out_degree(u) == 0 {
                dangling += rank[u.index()];
            }
        }
        for slot in next.iter_mut() {
            *slot = (1.0 - damping) * uniform + damping * dangling * uniform;
        }
        for u in graph.vertices() {
            let share = rank[u.index()] / graph.out_degree(u).max(1) as f64;
            for &v in graph.out_neighbors(u) {
                next[v.index()] += damping * share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles_and_isolate() -> CsrGraph {
        // Component A: 0-1-2 triangle (symmetric); component B: 3-4 edge
        // (symmetric); vertex 5 isolated.
        CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (0, 2),
                (2, 0),
                (3, 4),
                (4, 3),
            ],
        )
    }

    #[test]
    fn union_find_merges_and_sizes() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.set_size(2), 3);
        assert_eq!(uf.set_size(4), 1);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn components_of_two_triangles() {
        let g = two_triangles_and_isolate();
        let labels = weakly_connected_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn components_ignore_direction() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let labels = weakly_connected_components(&g);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs() {
        // Star: everyone points at 0.
        let g = CsrGraph::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let pr = pagerank(&g, 0.85, 50);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        for i in 1..5 {
            assert!(pr[0] > pr[i], "hub must outrank leaves");
        }
    }

    #[test]
    fn pagerank_uniform_on_cycles() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&g, 0.85, 100);
        for &r in &pr {
            assert!((r - 0.25).abs() < 1e-9, "{pr:?}");
        }
    }

    #[test]
    fn pagerank_handles_empty_and_dangling() {
        assert!(pagerank(&CsrGraph::from_edges(0, &[]), 0.85, 5).is_empty());
        let g = CsrGraph::from_edges(2, &[(0, 1)]); // 1 dangles
        let pr = pagerank(&g, 0.85, 80);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[1] > pr[0]);
    }
}
