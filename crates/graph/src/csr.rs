//! Immutable compressed-sparse-row graph storage.

use crate::VertexId;

/// An immutable directed graph in compressed-sparse-row form.
///
/// Only the out-adjacency `Γ(u)` is stored: SNAPLE gathers along
/// out-edges only (the paper's Algorithm 2), so no served path reads a
/// transpose. Neighbor lists are sorted by vertex id and contain no
/// duplicates or self-loops (the [`GraphBuilder`](crate::GraphBuilder)
/// enforces this), which lets [`CsrGraph::has_edge`] run in O(log degree)
/// and set intersections run as linear merges.
///
/// # Example
///
/// ```
/// use snaple_graph::{CsrGraph, VertexId};
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_degree(VertexId::new(0)), 2);
/// assert!(g.has_edge(VertexId::new(2), VertexId::new(3)));
/// assert!(!g.has_edge(VertexId::new(3), VertexId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    num_vertices: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    out_weights: Option<Vec<f32>>,
}

/// Owned arrays of a decomposed [`CsrGraph`]:
/// `(n, out_offsets, out_targets, out_weights)`.
pub(crate) type CsrParts = (usize, Vec<usize>, Vec<VertexId>, Option<Vec<f32>>);

impl CsrGraph {
    /// Builds a graph from raw, already validated CSR arrays.
    ///
    /// Intended for use by [`GraphBuilder`](crate::GraphBuilder), the
    /// binary decoders and the delta compactor; library users should
    /// prefer the builder.
    ///
    /// # Panics
    ///
    /// Panics if the offsets or weights are inconsistent with the targets.
    pub(crate) fn from_parts(
        num_vertices: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<VertexId>,
        out_weights: Option<Vec<f32>>,
    ) -> Self {
        assert_eq!(out_offsets.len(), num_vertices + 1);
        assert_eq!(*out_offsets.last().unwrap(), out_targets.len());
        if let Some(w) = &out_weights {
            assert_eq!(w.len(), out_targets.len());
        }
        CsrGraph {
            num_vertices,
            out_offsets,
            out_targets,
            out_weights,
        }
    }

    /// Convenience constructor from `(source, target)` pairs.
    ///
    /// Duplicates and self-loops are removed. Pairs referencing vertices
    /// `>= num_vertices` panic; use [`GraphBuilder`](crate::GraphBuilder) for
    /// fallible construction.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut b = crate::GraphBuilder::with_capacity(edges.len());
        b.reserve_vertices(num_vertices);
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u}, {v}) out of range for {num_vertices} vertices"
            );
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices (ids are `0..num_vertices`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Whether the graph carries per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Out-degree `|Γ(u)|`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out_offsets[u.index() + 1] - self.out_offsets[u.index()]
    }

    /// Sorted out-neighbor list `Γ(u)`.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.out_targets[self.out_offsets[u.index()]..self.out_offsets[u.index() + 1]]
    }

    /// Weights parallel to [`CsrGraph::out_neighbors`], if the graph is
    /// weighted.
    #[inline]
    pub fn out_weights(&self, u: VertexId) -> Option<&[f32]> {
        self.out_weights
            .as_ref()
            .map(|w| &w[self.out_offsets[u.index()]..self.out_offsets[u.index() + 1]])
    }

    /// Weight of edge `(u, v)`; `1.0` for unweighted graphs, `None` if the
    /// edge does not exist.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f32> {
        let nbrs = self.out_neighbors(u);
        let pos = nbrs.binary_search(&v).ok()?;
        Some(match &self.out_weights {
            Some(w) => w[self.out_offsets[u.index()] + pos],
            None => 1.0,
        })
    }

    /// Whether the directed edge `(u, v)` exists. O(log out-degree).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices as u32).map(VertexId::new)
    }

    /// Iterator over all directed edges as `(source, target)` pairs, in
    /// source-major sorted order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            src: 0,
            pos: 0,
        }
    }

    /// Decomposes the graph into its owned arrays
    /// `(n, out_offsets, out_targets, out_weights)` — for the delta
    /// compactor, which rebuilds adjacency in place instead of cloning it.
    pub(crate) fn into_parts(self) -> CsrParts {
        (
            self.num_vertices,
            self.out_offsets,
            self.out_targets,
            self.out_weights,
        )
    }

    /// Total bytes of the CSR arrays (used for memory accounting).
    pub fn storage_bytes(&self) -> u64 {
        let offsets = self.out_offsets.len() * 8;
        let targets = self.out_targets.len() * 4;
        let weights = self.out_weights.as_ref().map_or(0, |w| w.len() * 4);
        (offsets + targets + weights) as u64
    }

    /// Average out-degree `|E| / |V|`.
    pub fn mean_out_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }
}

/// Iterator over the edges of a [`CsrGraph`]; see [`CsrGraph::edges`].
#[derive(Debug)]
pub struct Edges<'a> {
    graph: &'a CsrGraph,
    src: u32,
    pos: usize,
}

impl Iterator for Edges<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if (self.src as usize) >= self.graph.num_vertices {
                return None;
            }
            let u = VertexId::new(self.src);
            let nbrs = self.graph.out_neighbors(u);
            if self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                self.pos += 1;
                return Some((u, v));
            }
            self.src += 1;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.out_degree(VertexId::new(0)), 2);
        assert_eq!(g.out_degree(VertexId::new(3)), 0);
        assert_eq!(
            g.out_neighbors(VertexId::new(0)),
            &[VertexId::new(1), VertexId::new(2)]
        );
    }

    #[test]
    fn has_edge_respects_direction() {
        let g = diamond();
        assert!(g.has_edge(VertexId::new(0), VertexId::new(1)));
        assert!(!g.has_edge(VertexId::new(1), VertexId::new(0)));
    }

    #[test]
    fn edges_iterator_yields_sorted_pairs() {
        let g = diamond();
        let edges: Vec<_> = g.edges().map(|(u, v)| (u.as_u32(), v.as_u32())).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn unweighted_edge_weight_defaults_to_one() {
        let g = diamond();
        assert_eq!(g.edge_weight(VertexId::new(0), VertexId::new(1)), Some(1.0));
        assert_eq!(g.edge_weight(VertexId::new(1), VertexId::new(0)), None);
        assert!(!g.is_weighted());
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.mean_out_degree(), 0.0);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        assert!(g.out_neighbors(VertexId::new(3)).is_empty());
    }

    #[test]
    fn storage_bytes_counts_all_arrays() {
        let g = diamond();
        // (n+1)*8 offset bytes + m*4 target bytes
        assert_eq!(g.storage_bytes(), (5 * 8 + 4 * 4) as u64);
    }
}
