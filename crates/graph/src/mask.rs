//! Vertex subsets as bitmasks — the substrate of targeted (query-subset)
//! prediction.
//!
//! A [`VertexMask`] marks the *active* vertices of a computation step.
//! Targeted prediction runs SNAPLE's GAS steps only for the vertices that
//! can influence a query's result; the masks for successive steps are built
//! by [expanding](VertexMask::expand) a query set along the graph's edges,
//! one hop per step of lookahead.

use crate::csr::Direction;
use crate::id::VertexId;
use crate::store::GraphStore;

/// A subset of a graph's vertices, stored as a bitmask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexMask {
    bits: Vec<u64>,
    num_vertices: usize,
    count: usize,
}

impl VertexMask {
    /// Creates an empty mask over `num_vertices` vertices.
    pub fn empty(num_vertices: usize) -> Self {
        VertexMask {
            bits: vec![0; num_vertices.div_ceil(64)],
            num_vertices,
            count: 0,
        }
    }

    /// Creates a mask with every vertex set.
    pub fn full(num_vertices: usize) -> Self {
        let mut mask = VertexMask {
            bits: vec![!0u64; num_vertices.div_ceil(64)],
            num_vertices,
            count: num_vertices,
        };
        let spill = num_vertices % 64;
        if spill != 0 {
            if let Some(last) = mask.bits.last_mut() {
                *last = (1u64 << spill) - 1;
            }
        }
        mask
    }

    /// Creates a mask over `num_vertices` vertices from an id iterator.
    ///
    /// # Panics
    ///
    /// Panics when an id is out of range.
    pub fn from_vertices(
        num_vertices: usize,
        vertices: impl IntoIterator<Item = VertexId>,
    ) -> Self {
        let mut mask = VertexMask::empty(num_vertices);
        for v in vertices {
            mask.insert(v);
        }
        mask
    }

    /// Number of vertices the mask ranges over (set or not).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of set vertices.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no vertex is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every vertex is set.
    pub fn is_full(&self) -> bool {
        self.count == self.num_vertices
    }

    /// Adds a vertex; returns whether it was newly set.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    pub fn insert(&mut self, v: VertexId) -> bool {
        let i = v.index();
        assert!(
            i < self.num_vertices,
            "vertex {i} out of range for mask over {} vertices",
            self.num_vertices
        );
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let newly = self.bits[word] & bit == 0;
        if newly {
            self.bits[word] |= bit;
            self.count += 1;
        }
        newly
    }

    /// Whether `v` is set (out-of-range vertices are not).
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let i = v.index();
        i < self.num_vertices && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Iterates the set vertices in ascending id order.
    pub fn iter(&self) -> SetVertices<'_> {
        SetVertices {
            words: self.bits.iter(),
            next_base: 0,
            rest: 0,
        }
    }

    /// Returns this mask united with the `dir`-neighbors of its set
    /// vertices — one hop of frontier growth.
    ///
    /// With [`Direction::Out`], a query mask `Q` becomes `Q ∪ Γ(Q)`: the
    /// set of vertices whose state a gather over `Q`'s out-edges can read.
    ///
    /// # Panics
    ///
    /// Panics when the mask and graph sizes disagree.
    pub fn expand(&self, graph: &dyn GraphStore, dir: Direction) -> VertexMask {
        assert_eq!(
            self.num_vertices,
            graph.num_vertices(),
            "mask does not match graph"
        );
        let mut out = self.clone();
        for v in self.iter() {
            for &w in graph.neighbors(v, dir) {
                out.insert(w);
            }
        }
        out
    }

    /// [`expand`](Self::expand) along out-edges — the direction SNAPLE's
    /// steps gather over.
    pub fn expand_out(&self, graph: &dyn GraphStore) -> VertexMask {
        self.expand(graph, Direction::Out)
    }

    /// Whether every vertex set here is also set in `other` (masks over
    /// different ranges never nest). One pass over the bitset words.
    pub fn is_subset_of(&self, other: &VertexMask) -> bool {
        self.num_vertices == other.num_vertices
            && self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }
}

/// Iterator over a [`VertexMask`]'s set vertices, ascending; see
/// [`VertexMask::iter`]. Skips empty words in one compare each, so a
/// sparse mask iterates in about `num_vertices / 64` cheap steps.
#[derive(Clone, Debug)]
pub struct SetVertices<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Id of bit 0 of the word after the current one (wrapping, so the
    /// last word of a `u32`-sized range cannot overflow it).
    next_base: u32,
    /// The unvisited bits of the current word.
    rest: u64,
}

impl Iterator for SetVertices<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        while self.rest == 0 {
            self.rest = *self.words.next()?;
            self.next_base = self.next_base.wrapping_add(64);
        }
        let bit = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        Some(VertexId::new(self.next_base.wrapping_sub(64) + bit))
    }
}

/// A [`VertexMask`] with per-word prefix popcounts, numbering its set
/// vertices `0..len` in ascending id order.
///
/// [`rank`](RankedMask::rank) is O(1): one prefix lookup plus one
/// popcount. This is how sparse per-vertex storage finds a vertex's slot
/// without a vertex-length table: building the ranks costs one pass over
/// the bitset words (`num_vertices / 64`), not one per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankedMask {
    mask: VertexMask,
    /// `prefix[w]` is the number of set bits in words `0..w`.
    prefix: Vec<u32>,
}

impl RankedMask {
    /// Ranks the set vertices of `mask`.
    pub fn new(mask: VertexMask) -> Self {
        let mut prefix = Vec::with_capacity(mask.bits.len());
        let mut seen = 0u32;
        for word in &mask.bits {
            prefix.push(seen);
            seen += word.count_ones();
        }
        RankedMask { mask, prefix }
    }

    /// The ranked mask.
    pub fn mask(&self) -> &VertexMask {
        &self.mask
    }

    /// Number of ranked (set) vertices.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// Whether no vertex is ranked.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// The rank of `v` among the set vertices, or `None` when `v` is not
    /// set (or out of range).
    #[inline]
    pub fn rank(&self, v: VertexId) -> Option<usize> {
        let i = v.index();
        if i >= self.mask.num_vertices {
            return None;
        }
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let word = self.mask.bits[w];
        (word & bit != 0)
            .then(|| self.prefix[w] as usize + (word & (bit - 1)).count_ones() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn insert_contains_len() {
        let mut m = VertexMask::empty(100);
        assert!(m.is_empty());
        assert!(m.insert(v(3)));
        assert!(!m.insert(v(3)));
        assert!(m.insert(v(64)));
        assert!(m.insert(v(99)));
        assert_eq!(m.len(), 3);
        assert!(m.contains(v(3)));
        assert!(m.contains(v(64)));
        assert!(!m.contains(v(4)));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![v(3), v(64), v(99)]);
    }

    #[test]
    fn full_masks_cover_exactly_the_range() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let m = VertexMask::full(n);
            assert_eq!(m.len(), n);
            assert!(m.is_full());
            assert_eq!(m.iter().count(), n);
            assert!(!m.contains(v(n as u32)));
        }
        assert!(!VertexMask::full(64).is_empty());
        assert!(VertexMask::full(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        VertexMask::empty(5).insert(v(5));
    }

    #[test]
    fn expand_follows_out_edges() {
        // 0 → 1 → 2 → 3, 4 isolated.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let q = VertexMask::from_vertices(5, [v(0)]);
        let one = q.expand_out(&g);
        assert_eq!(one.iter().collect::<Vec<_>>(), vec![v(0), v(1)]);
        let two = one.expand_out(&g);
        assert_eq!(two.iter().collect::<Vec<_>>(), vec![v(0), v(1), v(2)]);
        let in_dir = VertexMask::from_vertices(5, [v(2)]).expand(&g, Direction::In);
        assert_eq!(in_dir.iter().collect::<Vec<_>>(), vec![v(1), v(2)]);
    }

    #[test]
    fn expand_saturates_at_full() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut m = VertexMask::from_vertices(3, [v(0)]);
        for _ in 0..4 {
            m = m.expand_out(&g);
        }
        assert!(m.is_full());
    }

    #[test]
    fn expanding_an_empty_mask_stays_empty() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for dir in [Direction::Out, Direction::In] {
            let e = VertexMask::empty(4).expand(&g, dir);
            assert!(e.is_empty());
            assert_eq!(e.num_vertices(), 4);
        }
    }

    #[test]
    fn expanding_a_full_mask_stays_full() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        for dir in [Direction::Out, Direction::In] {
            let f = VertexMask::full(5).expand(&g, dir);
            assert!(f.is_full());
            assert_eq!(f.len(), 5);
        }
    }

    #[test]
    fn isolated_vertices_expand_to_themselves() {
        // 2 is fully isolated; 4 has only an in-edge.
        let g = CsrGraph::from_edges(5, &[(0, 1), (3, 4)]);
        let iso = VertexMask::from_vertices(5, [v(2)]);
        assert_eq!(iso.expand_out(&g), iso);
        assert_eq!(iso.expand(&g, Direction::In), iso);
        // A sink vertex grows along In but not along Out.
        let sink = VertexMask::from_vertices(5, [v(4)]);
        assert_eq!(sink.expand_out(&g), sink);
        assert_eq!(
            sink.expand(&g, Direction::In).iter().collect::<Vec<_>>(),
            vec![v(3), v(4)]
        );
    }

    #[test]
    fn in_and_out_expansion_differ_on_directed_graphs() {
        // 0 → 1 → 2: from {1}, Out reaches 2, In reaches 0.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let m = VertexMask::from_vertices(3, [v(1)]);
        let out = m.expand(&g, Direction::Out);
        let inward = m.expand(&g, Direction::In);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![v(1), v(2)]);
        assert_eq!(inward.iter().collect::<Vec<_>>(), vec![v(0), v(1)]);
        assert_ne!(out, inward);
    }

    #[test]
    fn expand_on_an_empty_graph_is_identity() {
        let g = CsrGraph::from_edges(0, &[]);
        let m = VertexMask::empty(0);
        assert!(m.expand_out(&g).is_empty());
        assert_eq!(m.expand_out(&g).num_vertices(), 0);
    }

    #[test]
    fn ranks_number_set_vertices_in_id_order() {
        let ids = [0u32, 5, 63, 64, 65, 127, 128, 199];
        let ranked = RankedMask::new(VertexMask::from_vertices(200, ids.map(v)));
        assert_eq!(ranked.len(), ids.len());
        for (r, &i) in ids.iter().enumerate() {
            assert_eq!(ranked.rank(v(i)), Some(r), "vertex {i}");
        }
        for i in [1u32, 62, 66, 126, 198, 200, 5000] {
            assert_eq!(ranked.rank(v(i)), None, "vertex {i}");
        }
        let full = RankedMask::new(VertexMask::full(130));
        assert!((0..130).all(|i| full.rank(v(i)) == Some(i as usize)));
        assert!(RankedMask::new(VertexMask::empty(0)).is_empty());
    }

    #[test]
    fn subsets_nest_only_over_the_same_range() {
        let small = VertexMask::from_vertices(100, [v(3), v(70)]);
        let big = VertexMask::from_vertices(100, [v(3), v(9), v(70)]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(VertexMask::empty(100).is_subset_of(&small));
        assert!(!VertexMask::empty(99).is_subset_of(&small));
    }

    #[test]
    #[should_panic(expected = "mask does not match graph")]
    fn expand_rejects_mismatched_sizes() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        VertexMask::empty(4).expand_out(&g);
    }
}
