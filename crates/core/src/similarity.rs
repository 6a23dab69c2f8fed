//! Raw vertex similarity metrics (`sim(u, v)`, paper eq. 6).
//!
//! A raw similarity compares two *adjacent* vertices from their (truncated)
//! neighborhoods — the only topological information a GAS vertex program
//! can reach cheaply. The paper uses Jaccard's coefficient throughout its
//! evaluation and `1/|Γ(v)|` for the PPR-like configuration; the other
//! metrics here are classical alternatives beyond the paper that slot
//! into the same framework, selectable by name in score plans.

use std::fmt::Debug;
use std::sync::Arc;

use snaple_graph::VertexId;

/// What a similarity metric may see of a vertex: its truncated, sorted
/// neighbor list `Γ̂`, its true out-degree `|Γ|`, and (optionally) the
/// vertex's *content* — a sorted bag of tag ids, the "application-dependent
/// knowledge attached to vertices" of the paper's §2.1/§3.1 content
/// extension.
#[derive(Copy, Clone, Debug)]
pub struct NeighborhoodView<'a> {
    /// Truncated neighborhood, sorted by vertex id.
    pub neighbors: &'a [VertexId],
    /// True (untruncated) out-degree.
    pub degree: usize,
    /// Sorted content tags (empty when the graph carries no content).
    pub tags: &'a [u32],
}

impl<'a> NeighborhoodView<'a> {
    /// Creates a topology-only view.
    pub fn new(neighbors: &'a [VertexId], degree: usize) -> Self {
        NeighborhoodView {
            neighbors,
            degree,
            tags: &[],
        }
    }

    /// Creates a view carrying vertex content.
    pub fn with_tags(neighbors: &'a [VertexId], degree: usize, tags: &'a [u32]) -> Self {
        NeighborhoodView {
            neighbors,
            degree,
            tags,
        }
    }
}

/// Size of the intersection of two sorted tag bags.
fn tag_intersection(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Length ratio beyond which [`intersection_size`] switches from the
/// linear two-pointer merge to galloping search.
///
/// Galloping costs `O(|short| · log |long|)` against the merge's
/// `O(|short| + |long|)`; it only wins when the long side dwarfs the
/// short one, and on near-equal lengths its branchier inner loop loses to
/// the merge's tight scan. The crossover is coarse — anywhere in the
/// 8–32× band measured within noise — so a round power of two keeps the
/// check cheap.
const GALLOP_RATIO: usize = 16;

/// Minimum length of the *short* side for the block-compare path to
/// engage on near-equal shapes.
///
/// Below this the merge's startup-free scan wins; at 16+ elements both
/// sides supply at least two full [`BLOCK`]-element blocks, so the
/// vectorized all-pairs compares amortize. Length-skewed shapes never get
/// here — the `GALLOP_RATIO` check above dispatches them first.
const BLOCK_MIN_LEN: usize = 16;

/// Elements compared per block by [`block_intersection`] — eight `u32`
/// lanes, one AVX2 register or two SSE2/NEON registers.
const BLOCK: usize = 8;

/// Size of the intersection of two sorted vertex lists.
///
/// Three strategies, dispatched by shape:
///
/// * **galloping** when one list is more than `GALLOP_RATIO`× longer:
///   each element of the short list is located in the long one by
///   exponential probe + binary search, `O(|short| · log |long|)` — the
///   hub-meets-leaf shape that dominates social graphs;
/// * **block compare** when both lists hold at least `BLOCK_MIN_LEN`
///   entries and neither is more than `GALLOP_RATIO`× longer: fixed
///   8-element blocks of both lists are compared all-pairs with
///   branch-free equality masks the compiler auto-vectorizes to SIMD
///   lanes on stable Rust, advancing whichever block exhausts first;
/// * **linear two-pointer merge** otherwise (a short side below
///   `BLOCK_MIN_LEN`).
///
/// All paths count identically — [`intersection_size_scalar`] is the
/// reference oracle, and the unit + property suites here check
/// bit-identity of every path against it.
///
/// Both inputs **must** be strictly increasing (sorted ascending and
/// duplicate-free): the fast paths silently miscount otherwise (they
/// never look backwards, and the block path counts all-pairs matches).
/// Debug builds assert it; every adjacency surface in the workspace (CSR
/// rows, `Γ̂` tables, `sims` tables) is sorted *and* deduplicated by
/// construction, and the graph-file readers reject rows that are not.
pub fn intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "intersection_size: first input is not sorted and duplicate-free"
    );
    debug_assert!(
        b.windows(2).all(|w| w[0] < w[1]),
        "intersection_size: second input is not sorted and duplicate-free"
    );
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() > short.len().saturating_mul(GALLOP_RATIO) {
        return gallop_intersection(short, long);
    }
    if short.len() >= BLOCK_MIN_LEN {
        return block_intersection(a, b);
    }
    merge_intersection(a, b)
}

/// The reference linear two-pointer merge — the scalar baseline every
/// fast path (galloping, block compare) must match bit for bit.
///
/// Public so the striped-gather gate (`crates/bench/tests/gates.rs`)
/// can measure the fast paths against an honest scalar baseline;
/// inputs must be sorted ascending like every other path.
pub fn intersection_size_scalar(a: &[VertexId], b: &[VertexId]) -> usize {
    merge_intersection(a, b)
}

#[inline]
fn merge_intersection(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Intersection count by fixed-size block compares: walk both lists one
/// `BLOCK`-element block at a time, count equal pairs across the two
/// current blocks with branch-free all-pairs equality (64 compares that
/// LLVM lowers to 8 splat-and-compare SIMD ops), and advance whichever
/// block's maximum is not ahead. The sub-`BLOCK` tails fall back to the
/// scalar merge.
///
/// Requires duplicate-free sorted input (all-pairs counting would multiply
/// duplicated values); correctness of the tail hand-off relies on it too —
/// any element beyond a consumed block is strictly greater than the
/// consumed block's maximum, so no cross-block match is ever missed.
fn block_intersection(a: &[VertexId], b: &[VertexId]) -> usize {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]),
        "block_intersection: inputs must be strictly increasing (sorted, deduplicated)"
    );
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i + BLOCK <= a.len() && j + BLOCK <= b.len() {
        let block_a: &[VertexId; BLOCK] = a[i..i + BLOCK].try_into().expect("exact block");
        let block_b: &[VertexId; BLOCK] = b[j..j + BLOCK].try_into().expect("exact block");
        n += block_match_count(block_a, block_b);
        let a_max = block_a[BLOCK - 1];
        let b_max = block_b[BLOCK - 1];
        // On ties advance both: every match involving either block is
        // already counted, and nothing later can equal a consumed value.
        if a_max <= b_max {
            i += BLOCK;
        }
        if b_max <= a_max {
            j += BLOCK;
        }
    }
    n + merge_intersection(&a[i..], &b[j..])
}

/// Matches between two blocks, as branch-free equality masks: for each
/// element of `a` OR together its compares against all of `b` (at most one
/// can hit on duplicate-free input). The fixed trip counts and the absence
/// of data-dependent branches are what let the auto-vectorizer turn this
/// into packed 8-lane compares.
#[inline]
fn block_match_count(a: &[VertexId; BLOCK], b: &[VertexId; BLOCK]) -> usize {
    let mut hits = 0u32;
    for &x in a {
        let mut hit = 0u32;
        for &y in b {
            hit |= u32::from(x == y);
        }
        hits += hit;
    }
    hits as usize
}

/// Intersection count by galloping: for each element of `short`, probe
/// forward through `long` at doubling strides from the previous match
/// position, then binary-search the bracketed window. Positions only move
/// forward, so the whole pass touches `O(|short| · log |long|)` elements
/// of `long` even when the lists barely overlap.
fn gallop_intersection(short: &[VertexId], long: &[VertexId]) -> usize {
    let mut base = 0; // first index of `long` still in play
    let mut n = 0;
    for &x in short {
        if base >= long.len() {
            break;
        }
        // Exponential probe: find a window [base + lo, base + hi) with
        // long[base + lo - 1] < x <= long[base + hi - 1] (when in range).
        let rest = &long[base..];
        let mut hi = 1;
        while hi < rest.len() && rest[hi - 1] < x {
            hi <<= 1;
        }
        let lo = hi >> 1;
        let window = &rest[lo.min(rest.len())..hi.min(rest.len())];
        let found = window.partition_point(|&y| y < x);
        let pos = lo.min(rest.len()) + found;
        if pos < rest.len() && rest[pos] == x {
            n += 1;
            base += pos + 1; // duplicates-free lists: advance past the match
        } else {
            base += pos;
        }
    }
    n
}

/// A raw similarity metric on neighborhoods.
///
/// Implementations must be symmetric in spirit but are always called with
/// `u` = the scoring vertex and `v` = its neighbor, so degree-based metrics
/// like [`InverseDegree`] may be deliberately asymmetric (the paper's PPR
/// row uses `1/|Γ(v)|`).
pub trait Similarity: Send + Sync + Debug {
    /// Stable name for reports ("jaccard", ...).
    fn name(&self) -> &str;

    /// Computes `sim(u, v) >= 0`.
    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32;

    /// Scores one vertex against a contiguous *stripe* of neighbors,
    /// writing `score(u, vs[i])` into `out[i]` — the batched entry point
    /// the fused sweep drives so kernels see whole neighbor runs at once
    /// (one virtual dispatch per stripe instead of per pair, and `Γ̂(u)`
    /// stays hot in cache across the stripe).
    ///
    /// The default implementation loops [`Similarity::score`], so custom
    /// kernels keep working unchanged. Overrides **must** produce
    /// bit-identical values to the per-pair path — every bit-identity
    /// suite in the workspace (fused-vs-standalone plans, shard serving,
    /// concurrent serving) holds implementations to that contract.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `vs`.
    fn score_stripe(&self, u: NeighborhoodView<'_>, vs: &[NeighborhoodView<'_>], out: &mut [f32]) {
        assert!(
            out.len() >= vs.len(),
            "score_stripe: output stripe holds {} slots for {} neighbors",
            out.len(),
            vs.len()
        );
        for (v, slot) in vs.iter().zip(out.iter_mut()) {
            *slot = self.score(u, *v);
        }
    }
}

/// Jaccard's coefficient `|Γ̂(u) ∩ Γ̂(v)| / |Γ̂(u) ∪ Γ̂(v)|` — the paper's
/// default raw similarity.
#[derive(Copy, Clone, Debug, Default)]
pub struct Jaccard;

/// The process-wide shared [`Jaccard`] instance.
///
/// Components that use Jaccard both for scoring and for eq. 11's
/// neighbor-selection ranking should hold *clones of the same `Arc`*:
/// [`crate::ScoreComponents::shares_selection_similarity`] detects
/// sharing by `Arc` identity (never by the kernel's self-reported name,
/// which a custom kernel could collide with), and execution then
/// computes the value once per edge instead of twice. Every named
/// configuration and every parsed spec resolves its Jaccard uses through
/// this instance.
pub fn shared_jaccard() -> Arc<dyn Similarity> {
    static SHARED: std::sync::OnceLock<Arc<dyn Similarity>> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| Arc::new(Jaccard)).clone()
}

impl Similarity for Jaccard {
    fn name(&self) -> &str {
        "jaccard"
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        let inter = intersection_size(u.neighbors, v.neighbors);
        let union = u.neighbors.len() + v.neighbors.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f32 / union as f32
        }
    }
}

/// Raw common-neighbor count `|Γ̂(u) ∩ Γ̂(v)|` (Liben-Nowell & Kleinberg).
#[derive(Copy, Clone, Debug, Default)]
pub struct CommonNeighbors;

impl Similarity for CommonNeighbors {
    fn name(&self) -> &str {
        "common-neighbors"
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        intersection_size(u.neighbors, v.neighbors) as f32
    }
}

/// Cosine similarity `|Γ̂(u) ∩ Γ̂(v)| / sqrt(|Γ̂(u)|·|Γ̂(v)|)`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Cosine;

impl Similarity for Cosine {
    fn name(&self) -> &str {
        "cosine"
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        let denom = (u.neighbors.len() as f32 * v.neighbors.len() as f32).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            intersection_size(u.neighbors, v.neighbors) as f32 / denom
        }
    }
}

/// Sørensen–Dice coefficient `2·|Γ̂(u) ∩ Γ̂(v)| / (|Γ̂(u)| + |Γ̂(v)|)`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Dice;

impl Similarity for Dice {
    fn name(&self) -> &str {
        "dice"
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        let total = u.neighbors.len() + v.neighbors.len();
        if total == 0 {
            0.0
        } else {
            2.0 * intersection_size(u.neighbors, v.neighbors) as f32 / total as f32
        }
    }
}

/// Szymkiewicz–Simpson overlap `|Γ̂(u) ∩ Γ̂(v)| / min(|Γ̂(u)|, |Γ̂(v)|)`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Overlap;

impl Similarity for Overlap {
    fn name(&self) -> &str {
        "overlap"
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        let min = u.neighbors.len().min(v.neighbors.len());
        if min == 0 {
            0.0
        } else {
            intersection_size(u.neighbors, v.neighbors) as f32 / min as f32
        }
    }
}

/// `1 / |Γ(v)|` — the transition probability of a uniform random walk, used
/// by the paper's PPR-like configuration (Table 3, gray row).
#[derive(Copy, Clone, Debug, Default)]
pub struct InverseDegree;

impl Similarity for InverseDegree {
    fn name(&self) -> &str {
        "inverse-degree"
    }

    fn score(&self, _u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        if v.degree == 0 {
            0.0
        } else {
            1.0 / v.degree as f32
        }
    }
}

/// Content-aware similarity (paper §3.1: "this approach can be extended to
/// content-based metrics by simply including data attached to vertices in
/// f"): a convex blend of topological Jaccard over neighborhoods and
/// Jaccard over the vertices' content tags.
#[derive(Copy, Clone, Debug)]
pub struct ContentBlend {
    /// Weight of the topological term (`1.0` = pure structure,
    /// `0.0` = pure content).
    pub topology_weight: f32,
}

impl ContentBlend {
    /// Creates a blend.
    ///
    /// # Panics
    ///
    /// Panics if `topology_weight` is non-finite (NaN, ±∞) or outside
    /// `[0, 1]`; use [`ContentBlend::try_new`] for a fallible variant.
    pub fn new(topology_weight: f32) -> Self {
        ContentBlend::try_new(topology_weight).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects non-finite weights and weights
    /// outside `[0, 1]` instead of panicking.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending weight.
    pub fn try_new(topology_weight: f32) -> Result<Self, String> {
        if !topology_weight.is_finite() {
            return Err(format!(
                "topology_weight must be finite, got {topology_weight}"
            ));
        }
        if !(0.0..=1.0).contains(&topology_weight) {
            return Err(format!(
                "topology_weight must be in [0, 1], got {topology_weight}"
            ));
        }
        Ok(ContentBlend { topology_weight })
    }
}

impl Similarity for ContentBlend {
    fn name(&self) -> &str {
        "content-blend"
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        let topo = Jaccard.score(u, v);
        let inter = tag_intersection(u.tags, v.tags);
        let union = u.tags.len() + v.tags.len() - inter;
        let content = if union == 0 {
            0.0
        } else {
            inter as f32 / union as f32
        };
        self.topology_weight * topo + (1.0 - self.topology_weight) * content
    }
}

/// A weighted sum of several kernels `Σ wᵢ·simᵢ(u, v)` — the blend form
/// of the [spec grammar](crate::spec) (`cosine*0.7+common`).
///
/// Weights must be finite and positive; a part with weight `1.0` renders
/// without its `*` factor in the blend's name.
#[derive(Clone, Debug)]
pub struct WeightedBlend {
    name: String,
    parts: Vec<(Arc<dyn Similarity>, f32)>,
}

impl WeightedBlend {
    /// Creates a blend from `(kernel, weight)` parts.
    ///
    /// # Panics
    ///
    /// Panics on an empty part list or a non-finite/non-positive weight;
    /// the [spec parser](crate::spec::ScoreSpec::parse) validates both
    /// before constructing one.
    pub fn new(parts: Vec<(Arc<dyn Similarity>, f32)>) -> Self {
        assert!(!parts.is_empty(), "a kernel blend needs at least one part");
        for (kernel, weight) in &parts {
            assert!(
                weight.is_finite() && *weight > 0.0,
                "blend weight of {} must be finite and positive, got {weight}",
                kernel.name()
            );
        }
        let name = parts
            .iter()
            .map(|(kernel, weight)| {
                if *weight == 1.0 {
                    kernel.name().to_owned()
                } else {
                    format!("{}*{weight}", kernel.name())
                }
            })
            .collect::<Vec<_>>()
            .join("+");
        WeightedBlend { name, parts }
    }
}

impl Similarity for WeightedBlend {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, u: NeighborhoodView<'_>, v: NeighborhoodView<'_>) -> f32 {
        self.parts
            .iter()
            .map(|(kernel, weight)| weight * kernel.score(u, v))
            .sum()
    }
}

/// `1` for every edge — the degenerate similarity of the paper's *counter*
/// configuration, which reduces scoring to counting 2-hop paths.
#[derive(Copy, Clone, Debug, Default)]
pub struct Unit;

impl Similarity for Unit {
    fn name(&self) -> &str {
        "unit"
    }

    fn score(&self, _u: NeighborhoodView<'_>, _v: NeighborhoodView<'_>) -> f32 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<VertexId> {
        xs.iter().copied().map(VertexId::new).collect()
    }

    fn view<'a>(n: &'a [VertexId]) -> NeighborhoodView<'a> {
        NeighborhoodView::new(n, n.len())
    }

    #[test]
    fn intersection_of_sorted_lists() {
        let a = ids(&[1, 3, 5, 7]);
        let b = ids(&[2, 3, 4, 7, 9]);
        assert_eq!(intersection_size(&a, &b), 2);
        assert_eq!(intersection_size(&a, &[]), 0);
        assert_eq!(intersection_size(&a, &a), 4);
    }

    /// Reference linear merge, kept verbatim so the galloping fast path has
    /// an independent oracle.
    fn linear_intersection(a: &[VertexId], b: &[VertexId]) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    #[test]
    fn galloping_path_matches_linear_merge_on_skewed_lists() {
        // Long side is 1000 elements, short side small enough that the
        // ratio check routes through `gallop_intersection`.
        let long: Vec<VertexId> = (0..1000).map(|v| VertexId::new(v * 3)).collect();
        let cases: Vec<Vec<VertexId>> = vec![
            ids(&[]),                                         // empty short side
            ids(&[0]),                                        // single match at the front
            ids(&[2997]),                                     // single match at the back
            ids(&[1]),                                        // single miss
            ids(&[5000, 6000]),                               // all past the end of `long`
            ids(&[0, 3, 6, 9]),                               // dense prefix, all hits
            ids(&[1, 4, 7, 10]),                              // dense prefix, all misses
            ids(&[0, 500, 1500, 2998, 2999]),                 // mixed hits and misses
            (0..40).map(|v| VertexId::new(v * 81)).collect(), // strided
        ];
        for short in &cases {
            let expect = linear_intersection(short, &long);
            assert_eq!(intersection_size(short, &long), expect, "short={short:?}");
            assert_eq!(
                intersection_size(&long, short),
                expect,
                "swapped short={short:?}"
            );
            assert_eq!(gallop_intersection(short, &long), expect, "direct gallop");
        }
    }

    #[test]
    fn galloping_path_matches_linear_merge_exhaustively() {
        // Pseudo-random short/long pairs; the direct `gallop_intersection`
        // call exercises the fast path even when the public dispatch would
        // pick the merge.
        let mut state = 0x5eed_cafe_u64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for trial in 0..200 {
            let short_len = next(12) as usize;
            let long_len = 1 + next(300) as usize;
            let mut short: Vec<u32> = (0..short_len).map(|_| next(400)).collect();
            let mut long: Vec<u32> = (0..long_len).map(|_| next(400)).collect();
            short.sort_unstable();
            short.dedup();
            long.sort_unstable();
            long.dedup();
            let short = ids(&short);
            let long = ids(&long);
            let expect = linear_intersection(&short, &long);
            assert_eq!(gallop_intersection(&short, &long), expect, "trial {trial}");
            assert_eq!(intersection_size(&short, &long), expect, "trial {trial}");
        }
    }

    #[test]
    fn block_path_matches_linear_merge() {
        let strided = |n: u32, stride: u32, offset: u32| -> Vec<VertexId> {
            (0..n).map(|v| VertexId::new(v * stride + offset)).collect()
        };
        let cases: Vec<(Vec<VertexId>, Vec<VertexId>)> = vec![
            (vec![], vec![]),                          // both empty
            (strided(40, 2, 0), vec![]),               // one empty
            (strided(40, 2, 0), strided(40, 2, 1)),    // fully disjoint, interleaved
            (strided(40, 1, 0), strided(40, 1, 100)),  // disjoint, no overlap in range
            (strided(40, 3, 0), strided(40, 3, 0)),    // full overlap
            (strided(64, 2, 0), strided(64, 3, 0)),    // partial, equal lengths
            (strided(64, 2, 0), strided(17, 5, 3)),    // partial, unequal lengths
            (strided(7, 1, 0), strided(7, 1, 3)),      // shorter than one block
            (strided(8, 1, 0), strided(8, 1, 4)),      // exactly one block
            (strided(9, 1, 0), strided(23, 1, 5)),     // block + tail on both sides
            (strided(100, 7, 0), strided(100, 11, 0)), // sparse hits (multiples of 77)
            (strided(33, 1, 0), strided(200, 13, 20)), // skewed but under gallop ratio? no: direct call
        ];
        for (a, b) in &cases {
            let expect = linear_intersection(a, b);
            assert_eq!(block_intersection(a, b), expect, "a={a:?} b={b:?}");
            assert_eq!(block_intersection(b, a), expect, "swapped a={a:?} b={b:?}");
        }
    }

    #[test]
    fn dispatch_boundaries_agree_with_linear_merge() {
        // Length pairs straddling both dispatch thresholds: the 16×
        // galloping ratio (long > short·16) and the block-compare minimum
        // (short ≥ 16). Every combination must count identically no
        // matter which strategy the public dispatch picks.
        let shorts = [0usize, 1, 2, 15, 16, 17];
        let longs = [0usize, 1, 15, 16, 17, 239, 240, 241, 255, 256, 257, 512];
        for &sl in &shorts {
            for &ll in &longs {
                // Interleave multiples of 2 and 3 so hits exist (multiples
                // of 6) without being total.
                let short: Vec<VertexId> = (0..sl as u32).map(|v| VertexId::new(v * 2)).collect();
                let long: Vec<VertexId> = (0..ll as u32).map(|v| VertexId::new(v * 3)).collect();
                let expect = linear_intersection(&short, &long);
                assert_eq!(
                    intersection_size(&short, &long),
                    expect,
                    "short={sl} long={ll}"
                );
                assert_eq!(
                    intersection_size(&long, &short),
                    expect,
                    "swapped short={sl} long={ll}"
                );
                assert_eq!(
                    intersection_size_scalar(&short, &long),
                    expect,
                    "scalar short={sl} long={ll}"
                );
            }
        }
        // Exactly at the galloping boundary: long == short·16 merges,
        // long == short·16 + 1 gallops; both must agree with the oracle.
        for extra in [0usize, 1] {
            let short: Vec<VertexId> = (0..16u32).map(|v| VertexId::new(v * 33)).collect();
            let long: Vec<VertexId> = (0..(16 * 16 + extra) as u32).map(VertexId::new).collect();
            let expect = linear_intersection(&short, &long);
            assert_eq!(intersection_size(&short, &long), expect, "extra={extra}");
            assert_eq!(gallop_intersection(&short, &long), expect, "extra={extra}");
            assert_eq!(block_intersection(&short, &long), expect, "extra={extra}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// All three strategies — linear merge, galloping, block compare —
        /// and the public dispatch count identically on arbitrary sorted
        /// duplicate-free lists, regardless of which path the dispatch
        /// would pick for the shape.
        #[test]
        fn all_intersection_paths_are_bit_identical(
            mut a in proptest::collection::vec(0u32..600, 0..80),
            mut b in proptest::collection::vec(0u32..600, 0..400),
        ) {
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let a = ids(&a);
            let b = ids(&b);
            let expect = linear_intersection(&a, &b);
            proptest::prop_assert_eq!(intersection_size(&a, &b), expect);
            proptest::prop_assert_eq!(intersection_size(&b, &a), expect);
            proptest::prop_assert_eq!(intersection_size_scalar(&a, &b), expect);
            let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
            proptest::prop_assert_eq!(gallop_intersection(short, long), expect);
            proptest::prop_assert_eq!(block_intersection(&a, &b), expect);
            proptest::prop_assert_eq!(block_intersection(&b, &a), expect);
        }

        /// The batched stripe entry point is bit-identical to per-pair
        /// scoring for every kernel, via the default implementation.
        #[test]
        fn score_stripe_matches_per_pair_scores(
            mut base in proptest::collection::vec(0u32..200, 1..40),
            stripe_seeds in proptest::collection::vec(0u32..97, 1..12),
        ) {
            base.sort_unstable();
            base.dedup();
            let u_list = ids(&base);
            let u = view(&u_list);
            let neighbor_lists: Vec<Vec<VertexId>> = stripe_seeds
                .iter()
                .map(|&s| {
                    let mut l: Vec<u32> = (0..(s % 19)).map(|i| (s + i * 7) % 200).collect();
                    l.sort_unstable();
                    l.dedup();
                    ids(&l)
                })
                .collect();
            let views: Vec<NeighborhoodView<'_>> =
                neighbor_lists.iter().map(|l| view(l)).collect();
            for kernel in [
                &Jaccard as &dyn Similarity,
                &CommonNeighbors,
                &Cosine,
                &Dice,
                &Overlap,
                &InverseDegree,
                &Unit,
            ] {
                let mut out = vec![0f32; views.len()];
                kernel.score_stripe(u, &views, &mut out);
                for (i, v) in views.iter().enumerate() {
                    let pair = kernel.score(u, *v);
                    proptest::prop_assert_eq!(
                        pair.to_bits(),
                        out[i].to_bits(),
                        "{} diverged at stripe slot {}",
                        kernel.name(),
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn jaccard_matches_hand_computation() {
        let a = ids(&[1, 2, 3]);
        let b = ids(&[2, 3, 4, 5]);
        // |∩| = 2, |∪| = 5
        assert!((Jaccard.score(view(&a), view(&b)) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn jaccard_bounds_and_identity() {
        let a = ids(&[1, 2, 3]);
        assert_eq!(Jaccard.score(view(&a), view(&a)), 1.0);
        let empty: Vec<VertexId> = vec![];
        assert_eq!(Jaccard.score(view(&empty), view(&empty)), 0.0);
        let b = ids(&[9, 10]);
        assert_eq!(Jaccard.score(view(&a), view(&b)), 0.0);
    }

    #[test]
    fn cosine_dice_overlap_agree_on_disjoint_and_equal() {
        let a = ids(&[1, 2]);
        let b = ids(&[3, 4]);
        for s in [&Cosine as &dyn Similarity, &Dice, &Overlap] {
            assert_eq!(s.score(view(&a), view(&b)), 0.0, "{}", s.name());
            assert!(
                (s.score(view(&a), view(&a)) - 1.0).abs() < 1e-6,
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn common_neighbors_counts() {
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[2, 4, 6]);
        assert_eq!(CommonNeighbors.score(view(&a), view(&b)), 2.0);
    }

    #[test]
    fn inverse_degree_uses_true_degree_of_v() {
        let a = ids(&[1]);
        let b = ids(&[1, 2]); // truncated list of 2, true degree 10
        let v = NeighborhoodView::new(&b, 10);
        assert!((InverseDegree.score(view(&a), v) - 0.1).abs() < 1e-6);
        let zero = NeighborhoodView::new(&[], 0);
        assert_eq!(InverseDegree.score(view(&a), zero), 0.0);
    }

    #[test]
    fn unit_is_constant() {
        let a = ids(&[1]);
        let empty: Vec<VertexId> = vec![];
        assert_eq!(Unit.score(view(&a), view(&empty)), 1.0);
    }

    #[test]
    fn content_blend_mixes_structure_and_tags() {
        let nbrs_a = ids(&[1, 2, 3]);
        let nbrs_b = ids(&[2, 3, 4, 5]);
        let tags_a = [10u32, 11, 12];
        let tags_b = [11u32, 12, 13];
        let a = NeighborhoodView::with_tags(&nbrs_a, 3, &tags_a);
        let b = NeighborhoodView::with_tags(&nbrs_b, 4, &tags_b);
        // topo jaccard = 0.4; tag jaccard = 2/4 = 0.5
        let pure_topo = ContentBlend::new(1.0).score(a, b);
        assert!((pure_topo - 0.4).abs() < 1e-6);
        let pure_content = ContentBlend::new(0.0).score(a, b);
        assert!((pure_content - 0.5).abs() < 1e-6);
        let half = ContentBlend::new(0.5).score(a, b);
        assert!((half - 0.45).abs() < 1e-6);
    }

    #[test]
    fn content_blend_without_tags_degrades_to_weighted_topology() {
        let nbrs_a = ids(&[1, 2]);
        let nbrs_b = ids(&[1, 2]);
        let a = view(&nbrs_a);
        let b = view(&nbrs_b);
        assert!((ContentBlend::new(0.7).score(a, b) - 0.7).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "topology_weight")]
    fn content_blend_rejects_bad_weight() {
        let _ = ContentBlend::new(1.5);
    }

    #[test]
    fn content_blend_rejects_non_finite_weights_at_construction() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = ContentBlend::try_new(bad).unwrap_err();
            assert!(err.contains("finite"), "{err}");
        }
        assert!(ContentBlend::try_new(1.01).unwrap_err().contains("[0, 1]"));
        assert!(ContentBlend::try_new(-0.5).is_err());
        assert_eq!(ContentBlend::try_new(0.5).unwrap().topology_weight, 0.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted")]
    fn intersection_size_asserts_sorted_inputs() {
        // The two-pointer merge silently undercounts on unsorted input
        // (e.g. [3, 1] ∩ [1, 3] would report 1); debug builds catch the
        // contract violation instead.
        let a = ids(&[3, 1]);
        let b = ids(&[1, 3]);
        let _ = intersection_size(&a, &b);
    }

    #[test]
    fn weighted_blend_sums_weighted_kernels() {
        use std::sync::Arc;
        let a = ids(&[1, 2, 3]);
        let b = ids(&[2, 3, 4]);
        let blend = WeightedBlend::new(vec![
            (Arc::new(Jaccard) as Arc<dyn Similarity>, 0.5),
            (Arc::new(CommonNeighbors) as Arc<dyn Similarity>, 1.0),
        ]);
        assert_eq!(blend.name(), "jaccard*0.5+common-neighbors");
        let want =
            0.5 * Jaccard.score(view(&a), view(&b)) + CommonNeighbors.score(view(&a), view(&b));
        assert!((blend.score(view(&a), view(&b)) - want).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn weighted_blend_rejects_bad_weights() {
        use std::sync::Arc;
        let _ = WeightedBlend::new(vec![(Arc::new(Jaccard) as Arc<dyn Similarity>, f32::NAN)]);
    }

    #[test]
    fn all_metrics_are_nonnegative_and_symmetricish() {
        let a = ids(&[1, 3, 5]);
        let b = ids(&[1, 2, 3, 8]);
        for s in [
            &Jaccard as &dyn Similarity,
            &CommonNeighbors,
            &Cosine,
            &Dice,
            &Overlap,
        ] {
            let ab = s.score(view(&a), view(&b));
            let ba = s.score(view(&b), view(&a));
            assert!(ab >= 0.0);
            assert!((ab - ba).abs() < 1e-6, "{} not symmetric", s.name());
        }
    }
}
