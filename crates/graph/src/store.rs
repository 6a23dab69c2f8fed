//! The storage-backend abstraction: one adjacency interface over every
//! way this crate can hold a graph.
//!
//! The GAS engine and the serving layers upstream used to be welded to an
//! owned, in-RAM [`CsrGraph`]. At the paper's headline scale (a billion
//! edges and beyond) that is the binding constraint: the graph must be
//! *opened*, not parsed, and sometimes must not be fully resident at all.
//! [`GraphStore`] is the seam that makes the engine indifferent:
//!
//! * [`CsrGraph`] — everything in RAM, the fastest backend and the only
//!   one that can absorb [`GraphDelta`](crate::GraphDelta)s directly;
//! * [`FileCsr`](crate::v2::FileCsr) — a zero-parse file-backed view of a
//!   raw [`SNPLG2`](crate::v2) file: opening reads only the header and
//!   section table, adjacency sections fault in lazily on first touch.
//!
//! The varint flavor of `SNPLG2` is a file format, not a backend: it
//! decodes into a [`CsrGraph`] on open.
//!
//! A graph that absorbs deltas while it serves is held in one
//! [`LiveGraph`](crate::LiveGraph), whatever its backend: the first fold
//! materializes a borrowed or file-backed graph once with
//! [`GraphStore::to_csr`], and every fold runs the one in-place CSR merge
//! ([`CsrGraph::compact_overlay_owned`]).
//!
//! The trait is object-safe on purpose: deployments and requests carry
//! `&dyn GraphStore` (or `Arc<dyn GraphStore>`), so a single prepared
//! serving stack handles any backend. Prediction results are pinned
//! bit-identical across backends by the `dataplane` property suite.
//!
//! Iterator-shaped access ([`vertices`], [`edges`]) lives in free
//! functions because returning `impl Iterator` would break object
//! safety.

use std::sync::Arc;

use crate::{CsrGraph, GraphError, VertexId};

/// Read access to a directed graph in CSR discipline: sorted,
/// duplicate-free out-neighbor lists (every SNAPLE step gathers along
/// out-edges, so no backend stores the transpose).
///
/// Implementations must be cheap to share across threads — the engine
/// gathers from many worker threads against one `&dyn GraphStore`.
/// Accessors never panic; a backend that discovers corruption after
/// construction (e.g. a lazily loaded section failing its checksum)
/// serves empty lists and records the fault, which
/// [`GraphStore::check_fault`] returns.
pub trait GraphStore: Send + Sync + std::fmt::Debug {
    /// Number of vertices (ids are `0..num_vertices`).
    fn num_vertices(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// Whether the graph carries per-edge weights.
    fn is_weighted(&self) -> bool;

    /// Out-degree `|Γ(u)|`; `0` for out-of-range ids.
    fn out_degree(&self, u: VertexId) -> usize;

    /// Sorted out-neighbor list `Γ(u)`; empty for out-of-range ids.
    fn out_neighbors(&self, u: VertexId) -> &[VertexId];

    /// Weights parallel to [`GraphStore::out_neighbors`], if weighted.
    fn out_weights(&self, u: VertexId) -> Option<&[f32]>;

    /// A short static name for diagnostics and bench labels
    /// (`"csr"`, `"file-csr"`).
    fn backend_name(&self) -> &'static str;

    /// Total bytes of the backend's storage (resident or on disk) — the
    /// same accounting [`CsrGraph::storage_bytes`] reports for RAM.
    fn storage_bytes(&self) -> u64;

    /// Returns the first deferred I/O or checksum failure this backend
    /// has recorded, without loading anything.
    ///
    /// Once a lazily loaded section fails, the accessors above serve it
    /// as empty lists, so any result computed since may be wrong. The
    /// serving layers call this after prepare, after every execute and
    /// before folding a delta in, and return the fault instead of the
    /// result. In-RAM backends return `Ok(())`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] describing the recorded failure.
    fn check_fault(&self) -> Result<(), GraphError> {
        Ok(())
    }

    /// Materializes the graph as an owned in-RAM [`CsrGraph`] — the form
    /// deltas are merged into: [`LiveGraph::fold`](crate::LiveGraph::fold)
    /// calls it once, on the first fold over a graph it does not own. A
    /// lazy backend whose sections fail to load returns an empty graph;
    /// [`GraphStore::check_fault`] then reports the failure, and callers
    /// check it before using the copy.
    fn to_csr(&self) -> CsrGraph;

    /// A cheaply clonable shared handle to this backend (`Arc`-backed
    /// where the backend supports it, a materialized copy otherwise) —
    /// what [`LiveGraph::detach`](crate::LiveGraph::detach) holds for a
    /// graph that is not in RAM.
    fn clone_shared(&self) -> Arc<dyn GraphStore>;

    /// The concrete in-RAM graph, if this backend *is* one — lets
    /// [`LiveGraph::detach`](crate::LiveGraph::detach) hold its own copy,
    /// which later folds consume in place, instead of a shared handle.
    fn as_csr(&self) -> Option<&CsrGraph> {
        None
    }

    /// Whether the directed edge `(u, v)` exists. O(log out-degree).
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `(u, v)`; `1.0` for unweighted graphs, `None` if
    /// the edge does not exist.
    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f32> {
        let pos = self.out_neighbors(u).binary_search(&v).ok()?;
        Some(match self.out_weights(u) {
            Some(ws) => ws.get(pos).copied().unwrap_or(1.0),
            None => 1.0,
        })
    }

    /// Average out-degree `|E| / |V|`.
    fn mean_out_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

impl GraphStore for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn is_weighted(&self) -> bool {
        CsrGraph::is_weighted(self)
    }

    fn out_degree(&self, u: VertexId) -> usize {
        if u.index() < CsrGraph::num_vertices(self) {
            CsrGraph::out_degree(self, u)
        } else {
            0
        }
    }

    fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        if u.index() < CsrGraph::num_vertices(self) {
            CsrGraph::out_neighbors(self, u)
        } else {
            &[]
        }
    }

    fn out_weights(&self, u: VertexId) -> Option<&[f32]> {
        if u.index() < CsrGraph::num_vertices(self) {
            CsrGraph::out_weights(self, u)
        } else {
            None
        }
    }

    fn backend_name(&self) -> &'static str {
        "csr"
    }

    fn storage_bytes(&self) -> u64 {
        CsrGraph::storage_bytes(self)
    }

    fn to_csr(&self) -> CsrGraph {
        self.clone()
    }

    fn clone_shared(&self) -> Arc<dyn GraphStore> {
        Arc::new(self.clone())
    }

    fn as_csr(&self) -> Option<&CsrGraph> {
        Some(self)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u.index() < CsrGraph::num_vertices(self) && CsrGraph::has_edge(self, u, v)
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f32> {
        if u.index() < CsrGraph::num_vertices(self) {
            CsrGraph::edge_weight(self, u, v)
        } else {
            None
        }
    }
}

/// Iterator over all vertex ids of a store — the object-safe stand-in
/// for [`CsrGraph::vertices`].
pub fn vertices(store: &dyn GraphStore) -> impl Iterator<Item = VertexId> + '_ {
    (0..store.num_vertices() as u32).map(VertexId::new)
}

/// Iterator over all directed edges of a store as `(source, target)`
/// pairs, in source-major sorted order — the object-safe stand-in for
/// [`CsrGraph::edges`].
pub fn edges(store: &dyn GraphStore) -> StoreEdges<'_> {
    StoreEdges {
        store,
        src: 0,
        pos: 0,
    }
}

/// Iterator over the edges of any [`GraphStore`]; see [`edges`].
#[derive(Debug)]
pub struct StoreEdges<'a> {
    store: &'a dyn GraphStore,
    src: u32,
    pos: usize,
}

impl Iterator for StoreEdges<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if (self.src as usize) >= self.store.num_vertices() {
                return None;
            }
            let u = VertexId::new(self.src);
            let nbrs = self.store.out_neighbors(u);
            if let Some(&v) = nbrs.get(self.pos) {
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
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_store_view_matches_inherent_accessors() {
        let g = diamond();
        let s: &dyn GraphStore = &g;
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 4);
        assert!(!s.is_weighted());
        for u in vertices(s) {
            assert_eq!(s.out_neighbors(u), CsrGraph::out_neighbors(&g, u));
            assert_eq!(s.out_degree(u), CsrGraph::out_degree(&g, u));
        }
        assert!(s.has_edge(VertexId::new(0), VertexId::new(1)));
        assert!(!s.has_edge(VertexId::new(1), VertexId::new(0)));
        assert_eq!(s.edge_weight(VertexId::new(0), VertexId::new(1)), Some(1.0));
        assert_eq!(s.storage_bytes(), g.storage_bytes());
        assert_eq!(s.backend_name(), "csr");
        assert!(s.check_fault().is_ok());
        assert!(s.as_csr().is_some());
    }

    #[test]
    fn out_of_range_ids_are_empty_not_panics() {
        let g = diamond();
        let s: &dyn GraphStore = &g;
        let far = VertexId::new(99);
        assert_eq!(s.out_degree(far), 0);
        assert!(s.out_neighbors(far).is_empty());
        assert!(s.out_weights(far).is_none());
        assert!(!s.has_edge(far, VertexId::new(0)));
        assert_eq!(s.edge_weight(far, VertexId::new(0)), None);
    }

    #[test]
    fn edges_helper_matches_csr_iterator() {
        let g = diamond();
        let via_store: Vec<_> = edges(&g).collect();
        let via_csr: Vec<_> = g.edges().collect();
        assert_eq!(via_store, via_csr);
    }

    #[test]
    fn clone_shared_is_an_independent_equal_graph() {
        let g = diamond();
        let shared = GraphStore::clone_shared(&g);
        assert_eq!(shared.num_edges(), 4);
        assert_eq!(shared.to_csr().num_edges(), g.num_edges());
    }

    #[test]
    fn weighted_edge_weight_through_the_trait() {
        let mut b = crate::GraphBuilder::new();
        b.add_weighted_edge(0, 1, 2.5);
        let g = b.build();
        let s: &dyn GraphStore = &g;
        assert_eq!(s.edge_weight(VertexId::new(0), VertexId::new(1)), Some(2.5));
        assert_eq!(s.out_weights(VertexId::new(0)), Some(&[2.5f32][..]));
    }
}
