//! Opt-in vertex relabeling for cache locality.
//!
//! SNAPLE's gather phase streams sorted adjacency lists through set
//! intersections; how those lists are laid out in memory decides how many
//! cache lines each intersection touches. A [`Relabeling`] renumbers
//! vertices — [`Relabeling::degree_order`] puts hubs first, packing the
//! hottest rows at the front of the CSR arrays — and
//! [`Relabeling::apply`] rebuilds the graph under the new ids.
//!
//! Relabeling is a pure permutation: predictions computed on the relabeled
//! graph, mapped back through [`Relabeling::to_old`] on row emission, are
//! bit-identical to predictions on the original for any algorithm whose
//! arithmetic is label-independent (see `tests/relabeling.rs` for the
//! taxonomy — hash-seeded randomness and float fold order are keyed to
//! labels and are covered by tolerance-based tests instead).
//!
//! ```
//! use snaple_graph::{relabel::Relabeling, CsrGraph, VertexId};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (3, 1)]);
//! let r = Relabeling::degree_order(&g);
//! // Vertex 1 has the highest out-degree, so it becomes the new vertex 0.
//! assert_eq!(r.to_new(VertexId::new(1)), VertexId::new(0));
//! let relabeled = r.apply(&g);
//! assert_eq!(relabeled.num_edges(), g.num_edges());
//! ```

use std::cmp::Reverse;

use crate::{CsrGraph, VertexId};

/// A bijective renumbering of a graph's vertices, with both directions
/// materialized for O(1) mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeling {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<VertexId>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<VertexId>,
}

impl Relabeling {
    /// The identity relabeling over `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<VertexId> = (0..n as u32).map(VertexId::new).collect();
        Relabeling {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Hub-first degree ordering: new id 0 is the vertex with the largest
    /// out-degree, ties broken by ascending old id (so the order is
    /// deterministic).
    pub fn degree_order(graph: &CsrGraph) -> Self {
        let mut order: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        order.sort_unstable_by_key(|&u| (Reverse(graph.out_degree(VertexId::new(u))), u));
        Relabeling::from_order(order.into_iter().map(VertexId::new).collect())
    }

    /// Builds a relabeling from an explicit new-to-old order:
    /// `old_of_new[new]` is the old id assigned new id `new`.
    ///
    /// # Panics
    ///
    /// Panics if `old_of_new` is not a permutation of `0..len`.
    pub fn from_order(old_of_new: Vec<VertexId>) -> Self {
        let n = old_of_new.len();
        let mut new_of_old = vec![VertexId::new(u32::MAX); n];
        for (new, &old) in old_of_new.iter().enumerate() {
            assert!(
                old.index() < n,
                "old id {old:?} out of range for {n} vertices"
            );
            assert_eq!(
                new_of_old[old.index()],
                VertexId::new(u32::MAX),
                "old id {old:?} assigned twice — not a permutation"
            );
            new_of_old[old.index()] = VertexId::new(new as u32);
        }
        Relabeling {
            new_of_old,
            old_of_new,
        }
    }

    /// Number of vertices the relabeling ranges over.
    pub fn len(&self) -> usize {
        self.old_of_new.len()
    }

    /// Whether the relabeling ranges over zero vertices.
    pub fn is_empty(&self) -> bool {
        self.old_of_new.is_empty()
    }

    /// The new id of old vertex `old`.
    #[inline]
    pub fn to_new(&self, old: VertexId) -> VertexId {
        self.new_of_old[old.index()]
    }

    /// The old id of new vertex `new` — the inverse map applied on row
    /// emission when translating relabeled results back.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.old_of_new[new.index()]
    }

    /// The inverse relabeling (swaps the two directions).
    pub fn inverse(&self) -> Relabeling {
        Relabeling {
            new_of_old: self.old_of_new.clone(),
            old_of_new: self.new_of_old.clone(),
        }
    }

    /// Rebuilds `graph` under the new vertex ids: edge `(u, v)` becomes
    /// `(to_new(u), to_new(v))`, neighbor lists are re-sorted under the
    /// new order, and edge weights follow their edges.
    ///
    /// # Panics
    ///
    /// Panics if `graph` does not have exactly [`Relabeling::len`]
    /// vertices.
    pub fn apply(&self, graph: &CsrGraph) -> CsrGraph {
        let n = self.len();
        assert_eq!(
            graph.num_vertices(),
            n,
            "relabeling ranges over {n} vertices but the graph has {}",
            graph.num_vertices()
        );
        let weighted = graph.is_weighted();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets: Vec<VertexId> = Vec::with_capacity(graph.num_edges());
        let mut weights: Vec<f32> = if weighted {
            Vec::with_capacity(graph.num_edges())
        } else {
            Vec::new()
        };
        let mut row: Vec<(VertexId, f32)> = Vec::new();
        for new_u in 0..n as u32 {
            let old_u = self.to_old(VertexId::new(new_u));
            row.clear();
            let nbrs = graph.out_neighbors(old_u);
            match graph.out_weights(old_u) {
                Some(ws) => row.extend(nbrs.iter().zip(ws).map(|(&v, &w)| (self.to_new(v), w))),
                None => row.extend(nbrs.iter().map(|&v| (self.to_new(v), 1.0))),
            }
            row.sort_unstable_by_key(|&(v, _)| v);
            targets.extend(row.iter().map(|&(v, _)| v));
            if weighted {
                weights.extend(row.iter().map(|&(_, w)| w));
            }
            offsets.push(targets.len());
        }
        CsrGraph::from_parts(n, offsets, targets, weighted.then_some(weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_plus_chain() -> CsrGraph {
        // 2 is the hub (degree 3); 0 -> 1 -> 2 chain edges break ties.
        CsrGraph::from_edges(5, &[(2, 0), (2, 1), (2, 4), (0, 1), (1, 2), (4, 2)])
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let g = star_plus_chain();
        let r = Relabeling::degree_order(&g);
        assert_eq!(r.to_new(VertexId::new(2)), VertexId::new(0), "hub first");
        // Remaining: degree-1 vertices 0, 1, 4 in old-id order, then 3.
        assert_eq!(r.to_old(VertexId::new(1)), VertexId::new(0));
        assert_eq!(r.to_old(VertexId::new(2)), VertexId::new(1));
        assert_eq!(r.to_old(VertexId::new(3)), VertexId::new(4));
        assert_eq!(r.to_old(VertexId::new(4)), VertexId::new(3));
    }

    #[test]
    fn maps_invert_each_other() {
        let g = star_plus_chain();
        let r = Relabeling::degree_order(&g);
        for u in g.vertices() {
            assert_eq!(r.to_old(r.to_new(u)), u);
            assert_eq!(r.to_new(r.to_old(u)), u);
        }
        assert_eq!(r.inverse().inverse(), r);
    }

    #[test]
    fn applied_graph_preserves_structure() {
        let g = star_plus_chain();
        let r = Relabeling::degree_order(&g);
        let h = r.apply(&g);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for u in g.vertices() {
            let nu = r.to_new(u);
            assert_eq!(h.out_degree(nu), g.out_degree(u), "{u:?}");
            let mut mapped: Vec<VertexId> =
                g.out_neighbors(u).iter().map(|&v| r.to_new(v)).collect();
            mapped.sort_unstable();
            assert_eq!(h.out_neighbors(nu), &mapped[..], "{u:?}");
        }
    }

    #[test]
    fn weights_follow_their_edges() {
        let mut b = crate::GraphBuilder::new();
        b.add_weighted_edge(0, 1, 0.25);
        b.add_weighted_edge(0, 2, 0.5);
        b.add_weighted_edge(2, 0, 0.75);
        let g = b.build();
        let r = Relabeling::from_order(vec![VertexId::new(2), VertexId::new(0), VertexId::new(1)]);
        let h = r.apply(&g);
        assert!(h.is_weighted());
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                assert_eq!(
                    h.edge_weight(r.to_new(u), r.to_new(v)),
                    g.edge_weight(u, v),
                    "edge ({u:?}, {v:?})"
                );
            }
        }
    }

    #[test]
    fn identity_apply_round_trips_bit_identically() {
        let g = star_plus_chain();
        let r = Relabeling::identity(g.num_vertices());
        let h = r.apply(&g);
        for u in g.vertices() {
            assert_eq!(h.out_neighbors(u), g.out_neighbors(u));
        }
    }

    #[test]
    fn relabel_then_inverse_round_trips_the_graph() {
        let g = star_plus_chain();
        let r = Relabeling::degree_order(&g);
        let back = r.inverse().apply(&r.apply(&g));
        for u in g.vertices() {
            assert_eq!(back.out_neighbors(u), g.out_neighbors(u), "{u:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn duplicate_ids_are_rejected() {
        Relabeling::from_order(vec![VertexId::new(0), VertexId::new(0)]);
    }

    #[test]
    fn empty_graph_relabels_to_itself() {
        let g = CsrGraph::from_edges(0, &[]);
        let r = Relabeling::degree_order(&g);
        assert!(r.is_empty());
        assert_eq!(r.apply(&g).num_vertices(), 0);
    }
}
