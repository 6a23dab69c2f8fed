//! Streaming graph mutation: batched edge deltas over an immutable CSR.
//!
//! SNAPLE's target workload is a *growing* social graph: the deployment
//! keeps serving "who to follow" requests while new follow edges arrive
//! and old ones are retracted. [`CsrGraph`] is deliberately immutable —
//! the GAS engine's partitions and masks index straight into its arrays —
//! so mutation is expressed as a *delta*:
//!
//! 1. collect insertions and removals into a [`GraphDelta`] (order
//!    matters only per edge: the last operation on a pair wins);
//! 2. [`GraphDelta::resolve`] the batch against a base graph into a
//!    [`DeltaOverlay`] — the *effective* changes, deduplicated,
//!    self-loop-free and grouped per source vertex;
//! 3. fold the overlay back into CSR form. There is one merge,
//!    [`CsrGraph::compact_overlay_owned`]: a linear pass over the graph's
//!    own arrays, in place, with no global re-sort. [`CsrGraph::compact`]
//!    runs it on a copy; a serving epoch holds its graph in a
//!    [`LiveGraph`], whose [`fold`](LiveGraph::fold) runs it over any
//!    backend.
//!
//! Insertions may reference vertices beyond the base graph's range; the
//! overlay (and the compacted graph) grow to cover them, which is how a
//! stream of follow events introduces new users.
//!
//! ```
//! use snaple_graph::{CsrGraph, GraphDelta, VertexId};
//!
//! let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
//! let mut delta = GraphDelta::new();
//! delta.insert(0, 2).remove(1, 2).insert(2, 3); // grows to 4 vertices
//! let g2 = g.compact(&delta);
//! assert_eq!(g2.num_vertices(), 4);
//! assert!(g2.has_edge(VertexId::new(0), VertexId::new(2)));
//! assert!(!g2.has_edge(VertexId::new(1), VertexId::new(2)));
//! ```

use std::sync::Arc;

use crate::store::GraphStore;
use crate::{CsrGraph, GraphError, VertexId};

/// A batch of edge insertions and removals against a base [`CsrGraph`].
///
/// Operations are collected in arrival order; when the same `(u, v)` pair
/// appears more than once, the **last** operation wins (an insert followed
/// by a remove is a net no-op, and vice versa). Self-loops are dropped at
/// resolution time, mirroring [`GraphBuilder`](crate::GraphBuilder).
///
/// See the [module docs](self) for the full lifecycle.
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// `(u, v, weight, is_insert)` in arrival order.
    ops: Vec<(u32, u32, f32, bool)>,
}

impl GraphDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Creates an empty delta with capacity for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        GraphDelta {
            ops: Vec::with_capacity(ops),
        }
    }

    /// Queues the insertion of edge `(u, v)` with weight `1.0`.
    ///
    /// Inserting an edge the base graph already holds is a no-op;
    /// endpoints beyond the base graph's vertex range grow the graph.
    pub fn insert(&mut self, u: u32, v: u32) -> &mut Self {
        self.ops.push((u, v, 1.0, true));
        self
    }

    /// Queues the insertion of edge `(u, v)` with an explicit weight.
    ///
    /// The weight only matters when the base graph is weighted; unweighted
    /// bases stay unweighted through [`CsrGraph::compact`].
    pub fn insert_weighted(&mut self, u: u32, v: u32, w: f32) -> &mut Self {
        self.ops.push((u, v, w, true));
        self
    }

    /// Queues the removal of edge `(u, v)`.
    ///
    /// Removing an edge the base graph does not hold is a no-op.
    pub fn remove(&mut self, u: u32, v: u32) -> &mut Self {
        self.ops.push((u, v, 0.0, false));
        self
    }

    /// Number of queued operations (before resolution).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates the queued operations as `(u, v, weight, is_insert)` in
    /// arrival order — the exact sequence a serializer must preserve for
    /// a decoded delta to resolve identically (last-wins dedup is order
    /// sensitive). Removals carry weight `0.0`.
    pub fn ops(&self) -> impl Iterator<Item = (u32, u32, f32, bool)> + '_ {
        self.ops.iter().copied()
    }

    /// Resolves the batch against `base` into its effective overlay:
    /// deduplicated (last operation per pair wins), self-loop-free, with
    /// no-op insertions (edge already present) and no-op removals (edge
    /// absent) dropped, grouped per source vertex.
    pub fn resolve(&self, base: &dyn GraphStore) -> DeltaOverlay {
        let n = base.num_vertices();
        // Last-wins dedup: sort by (u, v, arrival) and keep each pair's
        // final operation.
        let mut keyed: Vec<(u32, u32, usize)> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, &(u, v, _, _))| u != v)
            .map(|(i, &(u, v, _, _))| (u, v, i))
            .collect();
        keyed.sort_unstable();

        let mut num_vertices = n;
        let mut entries: Vec<RowEdit> = Vec::new();
        let mut inserted = 0usize;
        let mut removed = 0usize;
        let mut i = 0;
        while i < keyed.len() {
            let (u, v, _) = keyed[i];
            let mut last = keyed[i].2;
            while i + 1 < keyed.len() && keyed[i + 1].0 == u && keyed[i + 1].1 == v {
                i += 1;
                last = keyed[i].2;
            }
            i += 1;
            let (_, _, w, is_insert) = self.ops[last];
            let exists = (u as usize) < n && base.has_edge(VertexId::new(u), VertexId::new(v));
            if is_insert == exists {
                continue; // inserting a present edge / removing an absent one
            }
            if entries.last().map(|e| e.vertex.as_u32()) != Some(u) {
                entries.push(RowEdit::new(VertexId::new(u)));
            }
            let entry = entries.last_mut().expect("just pushed");
            if is_insert {
                entry.added.push(VertexId::new(v));
                entry.added_ws.push(w);
                inserted += 1;
                num_vertices = num_vertices.max(u as usize + 1).max(v as usize + 1);
            } else {
                entry.removed.push(VertexId::new(v));
                removed += 1;
            }
        }
        DeltaOverlay {
            num_vertices,
            entries,
            inserted,
            removed,
        }
    }
}

/// One source vertex's effective changes to its out-row: the targets it
/// gains (with their weights in `added_ws`) and loses, each sorted by id.
#[derive(Clone, Debug)]
struct RowEdit {
    vertex: VertexId,
    added: Vec<VertexId>,
    added_ws: Vec<f32>,
    removed: Vec<VertexId>,
}

impl RowEdit {
    fn new(vertex: VertexId) -> Self {
        RowEdit {
            vertex,
            added: Vec::new(),
            added_ws: Vec::new(),
            removed: Vec::new(),
        }
    }
}

/// The effective changes of a [`GraphDelta`] against one base graph: an
/// overlay adjacency that composes with the immutable CSR.
///
/// Produced by [`GraphDelta::resolve`]; consumed by
/// [`CsrGraph::compact_overlay_owned`] (through [`LiveGraph::fold`]) and
/// by the incremental partition repair in `snaple-gas`.
#[derive(Clone, Debug)]
pub struct DeltaOverlay {
    num_vertices: usize,
    /// Sorted by source id; each entry's `added`/`removed` sorted by
    /// target id.
    entries: Vec<RowEdit>,
    inserted: usize,
    removed: usize,
}

impl DeltaOverlay {
    /// Vertices of the mutated graph: the base range, grown to cover any
    /// inserted endpoint beyond it.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of effective edge insertions.
    pub fn num_inserted(&self) -> usize {
        self.inserted
    }

    /// Number of effective edge removals.
    pub fn num_removed(&self) -> usize {
        self.removed
    }

    /// Whether the overlay changes nothing (every queued operation was a
    /// no-op against the base).
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.removed == 0
    }

    /// Iterates the effective insertions as `(source, target, weight)`,
    /// in `(source, target)` order.
    pub fn inserted_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f32)> + '_ {
        self.entries.iter().flat_map(|e| {
            let weighted = e.added.iter().zip(&e.added_ws);
            weighted.map(move |(&v, &w)| (e.vertex, v, w))
        })
    }

    /// Iterates the effective removals as `(source, target)`, in
    /// `(source, target)` order.
    pub fn removed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.entries
            .iter()
            .flat_map(|e| e.removed.iter().map(move |&v| (e.vertex, v)))
    }
}

/// The graph an epoch serves: the caller's borrow until the first delta
/// is folded in, an owned in-RAM CSR from then on, or — in a
/// [`detach`](LiveGraph::detach)ed copy of a file-backed graph — a shared
/// handle, so a fork does not copy that graph into RAM before a delta
/// needs it.
///
/// Every serving lifecycle that absorbs deltas (`snaple_gas`'s
/// `Deployment`, the random-walk predictor's prepared state) holds its
/// graph in one of these.
#[derive(Clone, Debug)]
pub enum LiveGraph<'g> {
    /// The caller's graph, any backend, not yet mutated.
    Borrowed(&'g dyn GraphStore),
    /// An in-RAM graph this holder owns; folds consume it in place.
    Owned(CsrGraph),
    /// A shared handle to a graph that is not in RAM.
    Shared(Arc<dyn GraphStore>),
}

impl LiveGraph<'_> {
    /// The current graph, reflecting every folded delta.
    pub fn store(&self) -> &dyn GraphStore {
        match self {
            LiveGraph::Borrowed(g) => *g,
            LiveGraph::Owned(g) => g,
            LiveGraph::Shared(g) => g.as_ref(),
        }
    }

    /// Folds `overlay` (resolved against [`LiveGraph::store`]) into the
    /// graph, which is owned afterwards. An owned CSR is consumed in
    /// place; any other graph is materialized once with
    /// [`GraphStore::to_csr`] (a copy, for an in-RAM graph) and the copy
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] when a section of a file-backed graph fails
    /// to load while it is materialized; the holder is then unchanged.
    pub fn fold(&mut self, overlay: &DeltaOverlay) -> Result<(), GraphError> {
        let base = if let LiveGraph::Owned(g) = self {
            std::mem::replace(g, CsrGraph::from_edges(0, &[]))
        } else {
            let csr = self.store().to_csr();
            self.store().check_fault()?;
            csr
        };
        *self = LiveGraph::Owned(base.compact_overlay_owned(overlay));
        Ok(())
    }

    /// A holder that owns or shares its graph, for an epoch fork that
    /// outlives the borrow: an in-RAM graph is copied, any other backend
    /// is shared behind an `Arc` (see [`GraphStore::clone_shared`]).
    pub fn detach(&self) -> LiveGraph<'static> {
        match self {
            LiveGraph::Owned(g) => LiveGraph::Owned(g.clone()),
            LiveGraph::Borrowed(g) => match g.as_csr() {
                Some(csr) => LiveGraph::Owned(csr.clone()),
                None => LiveGraph::Shared(g.clone_shared()),
            },
            LiveGraph::Shared(g) => LiveGraph::Shared(Arc::clone(g)),
        }
    }
}

impl CsrGraph {
    /// Folds a delta into a copy of this graph: the base adjacency with
    /// the delta's effective removals dropped and insertions merged in.
    ///
    /// The result is exactly the graph [`GraphBuilder`](crate::GraphBuilder)
    /// would produce from the mutated edge list: sorted neighbor lists, no
    /// duplicates, no self-loops, vertex range grown to cover inserted
    /// endpoints. Weighted bases stay weighted (insertions carry their
    /// [`GraphDelta::insert_weighted`] weight, `1.0` by default);
    /// unweighted bases stay unweighted.
    ///
    /// A clone followed by [`CsrGraph::compact_owned`]: there is one
    /// merge, and it runs in place on the copy.
    pub fn compact(&self, delta: &GraphDelta) -> CsrGraph {
        self.clone().compact_owned(delta)
    }

    /// Consuming [`CsrGraph::compact`]: resolves the delta against this
    /// graph and folds it into this graph's own arrays with
    /// [`CsrGraph::compact_overlay_owned`].
    pub fn compact_owned(self, delta: &GraphDelta) -> CsrGraph {
        let overlay = delta.resolve(&self);
        self.compact_overlay_owned(&overlay)
    }

    /// Folds an already resolved overlay into this graph — the one CSR
    /// merge every delta fold goes through ([`CsrGraph::compact`],
    /// [`CsrGraph::compact_owned`] and [`LiveGraph::fold`]).
    ///
    /// The adjacency arrays are rebuilt **in place** by a two-phase merge
    /// (removals compacted left-to-right, then insertions merged
    /// right-to-left), so peak memory is the *final* graph plus
    /// O(vertices) for new offsets — not base + result simultaneously.
    /// At 100M edges that's the difference between a checkpoint/delta
    /// refresh fitting in memory or transiently doubling it.
    ///
    /// This is the only merge on purpose. A cloning merge, which writes
    /// the result next to an untouched base, is faster per fold: routing
    /// every fold through one cut perfbench's `update_p50_ms` from 1.68
    /// to 1.11 ms on batch-all and from 1.85 to 1.29 ms on serve-point.
    /// But it holds base and result at once, and it raised serve-churn's
    /// `peak_rss_mb` in 4 of 4 runs (median 117.9 → 136.4 MB). Memory,
    /// not merge time, is what limits a server at the paper's scale.
    ///
    /// # Panics
    ///
    /// Panics if `overlay` was resolved against a different graph (its
    /// vertex range must cover this graph's).
    pub fn compact_overlay_owned(self, overlay: &DeltaOverlay) -> CsrGraph {
        let n_old = self.num_vertices();
        let n = overlay.num_vertices();
        assert!(
            n >= n_old,
            "overlay ranges over {n} vertices but the base graph has {n_old}"
        );
        let (_, offsets, mut targets, mut weights) = self.into_parts();
        let new_offsets = rebuild_rows_owned(
            n_old,
            n,
            &offsets,
            &mut targets,
            weights.as_mut(),
            &overlay.entries,
        );
        drop(offsets);
        CsrGraph::from_parts(n, new_offsets, targets, weights)
    }
}

/// Rebuilds the out-rows in place and returns their new offsets.
///
/// Phase R drops removed items with a left-to-right compaction (writes
/// never pass reads: every write index ≤ its read index). Phase I then
/// resizes to the final length and merges additions right-to-left
/// (writes never clobber unread data: at vertex `u`, pending writes
/// below the write cursor always exceed pending reads by the additions
/// still owed at or before `u`, so the write cursor stays ≥ the read
/// cursor; bulk runs move with `copy_within`, which handles overlap).
/// Both phases are O(edges) with bulk `copy_within` for untouched runs.
fn rebuild_rows_owned(
    n_old: usize,
    n: usize,
    base_offsets: &[usize],
    items: &mut Vec<VertexId>,
    mut weights: Option<&mut Vec<f32>>,
    touched: &[RowEdit],
) -> Vec<usize> {
    // Degree bookkeeping: mid = base − removed, final = mid + added.
    let deg_of = |u: usize| {
        if u < n_old {
            base_offsets[u + 1] - base_offsets[u]
        } else {
            0
        }
    };

    // Phase R: left-to-right removal compaction.
    let mut write = 0usize;
    let mut read = 0usize;
    for t in touched {
        if t.removed.is_empty() {
            continue;
        }
        let u = t.vertex.index();
        debug_assert!(u < n_old, "effective removals only target base edges");
        let (lo, hi) = (base_offsets[u], base_offsets[u + 1]);
        if write != read {
            items.copy_within(read..lo, write);
            if let Some(ws) = weights.as_deref_mut() {
                ws.copy_within(read..lo, write);
            }
        }
        write += lo - read;
        let mut rem = t.removed.iter().peekable();
        for i in lo..hi {
            let v = items[i];
            while rem.peek().is_some_and(|&&r| r < v) {
                rem.next();
            }
            if rem.peek() == Some(&&v) {
                rem.next();
                continue;
            }
            items[write] = v;
            if let Some(ws) = weights.as_deref_mut() {
                ws[write] = ws[i];
            }
            write += 1;
        }
        read = hi;
    }
    let m_old = base_offsets.last().copied().unwrap_or(0);
    if write != read {
        items.copy_within(read..m_old, write);
        if let Some(ws) = weights.as_deref_mut() {
            ws.copy_within(read..m_old, write);
        }
    }
    write += m_old - read;
    items.truncate(write);
    if let Some(ws) = weights.as_deref_mut() {
        ws.truncate(write);
    }

    // Mid/final offsets from the degree deltas.
    let mut mid_offsets = Vec::with_capacity(n + 1);
    let mut fin_offsets = Vec::with_capacity(n + 1);
    {
        let mut ti = touched.iter().peekable();
        let mut mid = 0usize;
        let mut fin = 0usize;
        mid_offsets.push(0);
        fin_offsets.push(0);
        for u in 0..n {
            let mut d_mid = deg_of(u);
            let mut d_fin = d_mid;
            if ti.peek().is_some_and(|t| t.vertex.index() == u) {
                let t = ti.next().expect("peeked");
                d_mid -= t.removed.len();
                d_fin = d_mid + t.added.len();
            }
            mid += d_mid;
            fin += d_fin;
            mid_offsets.push(mid);
            fin_offsets.push(fin);
        }
    }
    let final_m = fin_offsets.last().copied().unwrap_or(0);
    debug_assert_eq!(mid_offsets.last().copied().unwrap_or(0), items.len());

    // Phase I: right-to-left insertion merge.
    items.resize(final_m, VertexId::new(0));
    if let Some(ws) = weights.as_deref_mut() {
        ws.resize(final_m, 0.0);
    }
    let mut hi_v = n; // exclusive top of the yet-unmoved suffix run
    for t in touched.iter().rev() {
        if t.added.is_empty() {
            continue;
        }
        let u = t.vertex.index();
        // Untouched run (u, hi_v): one bulk move.
        let (src_lo, src_hi) = (mid_offsets[u + 1], mid_offsets[hi_v]);
        let dst = fin_offsets[u + 1];
        if src_lo != dst {
            items.copy_within(src_lo..src_hi, dst);
            if let Some(ws) = weights.as_deref_mut() {
                ws.copy_within(src_lo..src_hi, dst);
            }
        }
        // Vertex u: descending merge of its mid list with the additions.
        let mut w = fin_offsets[u + 1];
        let mut r = mid_offsets[u + 1];
        let r_lo = mid_offsets[u];
        let mut ai = t.added.len();
        while ai > 0 || r > r_lo {
            let take_base = r > r_lo && (ai == 0 || items[r - 1] > t.added[ai - 1]);
            w -= 1;
            if take_base {
                r -= 1;
                items[w] = items[r];
                if let Some(ws) = weights.as_deref_mut() {
                    ws[w] = ws[r];
                }
            } else {
                ai -= 1;
                items[w] = t.added[ai];
                if let Some(ws) = weights.as_deref_mut() {
                    ws[w] = t.added_ws.get(ai).copied().unwrap_or(1.0);
                }
            }
        }
        debug_assert_eq!(w, fin_offsets[u]);
        hi_v = u;
    }
    // Leading run.
    let (src_lo, src_hi) = (mid_offsets[0], mid_offsets[hi_v]);
    let dst = fin_offsets[0];
    if src_lo != dst {
        items.copy_within(src_lo..src_hi, dst);
        if let Some(ws) = weights {
            ws.copy_within(src_lo..src_hi, dst);
        }
    }
    fin_offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn neighbors(g: &CsrGraph, u: u32) -> Vec<u32> {
        g.out_neighbors(v(u)).iter().map(|x| x.as_u32()).collect()
    }

    #[test]
    fn compact_applies_insertions_and_removals() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)]);
        let mut d = GraphDelta::new();
        d.insert(0, 3).remove(0, 2).insert(2, 0);
        let g2 = g.compact(&d);
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(neighbors(&g2, 0), vec![1, 3]);
        assert_eq!(neighbors(&g2, 2), vec![0]);
        assert_eq!(g2.num_edges(), g.num_edges() + 2 - 1);
    }

    #[test]
    fn compact_matches_a_ground_truth_rebuild() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3)]);
        let mut d = GraphDelta::new();
        d.remove(0, 3).remove(4, 0).insert(1, 4).insert(0, 4);
        let incremental = g.compact(&d);
        let rebuilt = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 4)]);
        assert_eq!(incremental.num_edges(), rebuilt.num_edges());
        for u in 0..5 {
            assert_eq!(neighbors(&incremental, u), neighbors(&rebuilt, u), "{u}");
        }
    }

    #[test]
    fn last_operation_per_pair_wins() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let mut d = GraphDelta::new();
        d.insert(0, 2).remove(0, 2); // net no-op on an absent edge
        d.remove(0, 1).insert(0, 1); // net no-op on a present edge
        let overlay = d.resolve(&g);
        assert!(overlay.is_noop());
        let g2 = g.compact(&d);
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(neighbors(&g2, 0), vec![1]);
    }

    #[test]
    fn noop_operations_are_dropped_at_resolution() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let mut d = GraphDelta::new();
        d.insert(0, 1) // already present
            .remove(1, 2) // absent
            .insert(1, 1) // self-loop
            .insert(2, 0); // effective
        let overlay = d.resolve(&g);
        assert_eq!(overlay.num_inserted(), 1);
        assert_eq!(overlay.num_removed(), 0);
        assert_eq!(
            overlay.inserted_edges().collect::<Vec<_>>(),
            vec![(v(2), v(0), 1.0)]
        );
    }

    #[test]
    fn insertions_grow_the_vertex_range() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let mut d = GraphDelta::new();
        d.insert(1, 5).insert(6, 0);
        let g2 = g.compact(&d);
        assert_eq!(g2.num_vertices(), 7);
        assert_eq!(neighbors(&g2, 1), vec![5]);
        assert_eq!(neighbors(&g2, 6), vec![0]);
        assert!(g2.out_neighbors(v(4)).is_empty());
        assert!(g2.out_neighbors(v(5)).is_empty());
    }

    #[test]
    fn weighted_bases_keep_and_gain_weights() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 0.25).add_weighted_edge(1, 2, 4.0);
        let g = b.build();
        let mut d = GraphDelta::new();
        d.insert_weighted(0, 2, 0.5).insert(2, 0).remove(1, 2);
        let g2 = g.compact(&d);
        assert!(g2.is_weighted());
        assert_eq!(g2.edge_weight(v(0), v(1)), Some(0.25));
        assert_eq!(g2.edge_weight(v(0), v(2)), Some(0.5));
        assert_eq!(g2.edge_weight(v(2), v(0)), Some(1.0));
        assert_eq!(g2.edge_weight(v(1), v(2)), None);
    }

    #[test]
    fn unweighted_bases_stay_unweighted() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let mut d = GraphDelta::new();
        d.insert_weighted(1, 2, 9.0);
        let g2 = g.compact(&d);
        assert!(!g2.is_weighted());
        assert_eq!(g2.edge_weight(v(1), v(2)), Some(1.0));
    }

    #[test]
    fn ops_iterator_round_trips_a_delta() {
        let mut d = GraphDelta::new();
        d.insert(0, 1).insert_weighted(2, 3, 0.5).remove(0, 1);
        let mut copy = GraphDelta::new();
        for (u, v, w, is_insert) in d.ops() {
            if is_insert {
                copy.insert_weighted(u, v, w);
            } else {
                copy.remove(u, v);
            }
        }
        assert_eq!(copy.len(), d.len());
        assert_eq!(d.ops().collect::<Vec<_>>(), copy.ops().collect::<Vec<_>>());
        // Arrival order is preserved: the remove still cancels the insert.
        let g = CsrGraph::from_edges(4, &[]);
        assert_eq!(copy.resolve(&g).num_inserted(), 1);
    }

    #[test]
    fn empty_delta_compacts_to_an_identical_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3), (3, 0)]);
        let g2 = g.compact(&GraphDelta::new());
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for u in 0..4 {
            assert_eq!(neighbors(&g2, u), neighbors(&g, u));
        }
        assert!(GraphDelta::new().is_empty());
        assert_eq!(GraphDelta::with_capacity(8).len(), 0);
    }

    /// Out-weights of `u` as bits, `1.0` per edge for an unweighted graph.
    fn weight_bits(g: &CsrGraph, u: u32) -> Vec<u32> {
        match g.out_weights(v(u)) {
            Some(ws) => ws.iter().map(|w| w.to_bits()).collect(),
            None => vec![1f32.to_bits(); g.out_degree(v(u))],
        }
    }

    #[test]
    fn owned_compact_matches_the_cloning_compact() {
        // The in-place two-phase merge against an independent oracle: the
        // base's edge map with the delta replayed by `resolve`'s rules
        // (last operation per pair wins, self-loops dropped, inserting a
        // present edge keeps its weight, removing an absent one is a
        // no-op, effective insertions grow the range), rebuilt with a
        // weighted `GraphBuilder`.
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..30 {
            let n = rng.gen_range(1usize..30);
            let m = rng.gen_range(0usize..120);
            let weighted = rng.gen_bool(0.5);
            let mut b = GraphBuilder::new();
            b.reserve_vertices(n);
            for _ in 0..m {
                let (u, w) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if weighted {
                    b.add_weighted_edge(u, w, rng.gen_range(0..100) as f32 * 0.25);
                } else {
                    b.add_edge(u, w);
                }
            }
            let g = b.build();
            let mut d = GraphDelta::new();
            let grown = n as u32 + rng.gen_range(0u32..3);
            for _ in 0..rng.gen_range(1usize..25) {
                let (u, w) = (rng.gen_range(0..grown), rng.gen_range(0..grown));
                if rng.gen_bool(0.5) {
                    d.insert_weighted(u, w, rng.gen_range(0..100) as f32 * 0.5);
                } else {
                    d.remove(u, w);
                }
            }

            let mut map: BTreeMap<(u32, u32), f32> = BTreeMap::new();
            for u in 0..g.num_vertices() as u32 {
                for (z, bits) in neighbors(&g, u).into_iter().zip(weight_bits(&g, u)) {
                    map.insert((u, z), f32::from_bits(bits));
                }
            }
            let mut last: BTreeMap<(u32, u32), (f32, bool)> = BTreeMap::new();
            for (u, z, w, is_insert) in d.ops() {
                last.insert((u, z), (w, is_insert));
            }
            let mut num_vertices = g.num_vertices();
            for (&(u, z), &(w, is_insert)) in &last {
                let present = map.contains_key(&(u, z));
                if u == z || is_insert == present {
                    continue;
                }
                if is_insert {
                    map.insert((u, z), if g.is_weighted() { w } else { 1.0 });
                    num_vertices = num_vertices.max(u as usize + 1).max(z as usize + 1);
                } else {
                    map.remove(&(u, z));
                }
            }
            let mut rebuild = GraphBuilder::new();
            rebuild.reserve_vertices(num_vertices);
            for (&(u, z), &w) in &map {
                rebuild.add_weighted_edge(u, z, w);
            }
            let rebuilt = rebuild.build();

            let owned = g.clone().compact_overlay_owned(&d.resolve(&g));
            assert_eq!(owned.num_vertices(), num_vertices, "round {round}");
            assert_eq!(
                owned.num_vertices(),
                rebuilt.num_vertices(),
                "round {round}"
            );
            assert_eq!(owned.num_edges(), map.len(), "round {round}");
            assert_eq!(owned.is_weighted(), g.is_weighted(), "round {round}");
            for u in 0..owned.num_vertices() as u32 {
                assert_eq!(
                    owned.out_neighbors(v(u)),
                    rebuilt.out_neighbors(v(u)),
                    "round {round}, out-list of {u}"
                );
                assert_eq!(
                    weight_bits(&owned, u),
                    weight_bits(&rebuilt, u),
                    "round {round}, weights of {u}"
                );
            }
        }
    }

    #[test]
    fn random_deltas_match_builder_rebuilds() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..20 {
            let n = rng.gen_range(2usize..40);
            let m = rng.gen_range(0usize..150);
            let mut edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            edges.retain(|&(a, b)| a != b);
            edges.sort_unstable();
            edges.dedup();
            let g = CsrGraph::from_edges(n, &edges);

            // A random batch of insertions (possibly growing) and
            // removals (possibly of absent edges).
            let grown = n as u32 + rng.gen_range(0u32..4);
            let mut d = GraphDelta::new();
            let mut expected: Vec<(u32, u32)> = edges.clone();
            for _ in 0..rng.gen_range(1usize..30) {
                let u = rng.gen_range(0..grown);
                let w = rng.gen_range(0..grown);
                if rng.gen_bool(0.5) {
                    d.insert(u, w);
                    if u != w && !expected.contains(&(u, w)) {
                        expected.push((u, w));
                    }
                } else {
                    d.remove(u, w);
                    expected.retain(|&e| e != (u, w));
                }
            }
            let incremental = g.compact(&d);
            let max_id = expected
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .max()
                .map_or(0, |x| x as usize + 1);
            let mut b = GraphBuilder::new();
            b.reserve_vertices(n.max(max_id));
            for &(u, w) in &expected {
                b.add_edge(u, w);
            }
            let rebuilt = b.build();
            assert_eq!(
                incremental.num_vertices(),
                rebuilt.num_vertices(),
                "round {round}"
            );
            for u in 0..incremental.num_vertices() as u32 {
                assert_eq!(
                    neighbors(&incremental, u),
                    neighbors(&rebuilt, u),
                    "round {round}, vertex {u}"
                );
            }
        }
    }
}
