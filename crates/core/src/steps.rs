//! SNAPLE's link prediction as a GAS program (paper Algorithm 2).
//!
//! The three steps share the [`SnapleVertex`] state and are driven by the
//! unfused reference path,
//! [`Snaple::execute_unfused_on`](crate::Snaple::execute_unfused_on); they
//! are public so that applications can embed individual phases (e.g.
//! reuse step 1+2 as a standalone neighbor-similarity pipeline).

use snaple_gas::{GasStep, GatherCtx, WorkTally};
use snaple_graph::hash::{edge_unit, hash2};
use snaple_graph::VertexId;

use crate::config::{ScoreComponents, SelectionPolicy};
use crate::similarity::NeighborhoodView;
use crate::state::SnapleVertex;
use crate::topk::{bottom_k_by_score, top_k_by_score};

/// **Step 1** (Algorithm 2, lines 1–6): collect a sample of each vertex's
/// neighbor ids into `Du.Γ̂`.
///
/// When the gathering vertex's degree exceeds `thr_gamma`, each neighbor is
/// kept with probability `thrΓ / |Γ(u)|` (line 3) — evaluated with a
/// deterministic per-edge hash so results do not depend on the partitioning.
#[derive(Clone, Debug)]
pub struct NeighborhoodStep {
    /// Truncation threshold `thrΓ`; `None` disables truncation.
    pub thr_gamma: Option<usize>,
}

impl GasStep for NeighborhoodStep {
    type Vertex = SnapleVertex;
    type Gather = Vec<VertexId>;

    fn name(&self) -> &str {
        "snaple-1-neighborhood"
    }

    fn gather(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        _u_data: &SnapleVertex,
        v: VertexId,
        _v_data: &SnapleVertex,
        _work: &mut WorkTally,
    ) -> Option<Vec<VertexId>> {
        if let Some(thr) = self.thr_gamma {
            let degree = ctx.out_degree(u);
            if degree > thr {
                let keep_probability = thr as f64 / degree as f64;
                if edge_unit(ctx.seed(), u.as_u32(), v.as_u32()) > keep_probability {
                    return None;
                }
            }
        }
        Some(vec![v])
    }

    fn sum(&self, mut a: Vec<VertexId>, b: Vec<VertexId>, work: &mut WorkTally) -> Vec<VertexId> {
        work.add(b.len() as u64);
        a.extend(b);
        a
    }

    fn apply(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        data: &mut SnapleVertex,
        acc: Option<Vec<VertexId>>,
        work: &mut WorkTally,
    ) {
        let mut gamma = acc.unwrap_or_default();
        gamma.sort_unstable();
        gamma.dedup();
        work.add(gamma.len() as u64);
        data.gamma = gamma;
        data.out_degree = ctx.out_degree(u) as u32;
    }
}

/// **Step 2** (Algorithm 2, lines 7–11): compute raw similarities along
/// edges and keep the `klocal` sampled neighbors in `Du.sims`.
///
/// The sampling policy implements the paper's `Γmax`/`Γmin`/`Γrnd`
/// comparison (§5.6); `Γmax` is eq. 11.
#[derive(Clone, Debug)]
pub struct SimilarityStep<'c> {
    /// Scoring components (only the similarity is used in this step).
    pub components: &'c ScoreComponents,
    /// Sampling parameter `klocal`; `None` keeps every neighbor.
    pub klocal: Option<usize>,
    /// Which neighbors survive sampling.
    pub selection: SelectionPolicy,
}

impl GasStep for SimilarityStep<'_> {
    type Vertex = SnapleVertex;
    /// `(neighbor, scoring similarity, selection similarity)` triples. The
    /// selection similarity is eq. 11's `f(Γ̂(u), Γ̂(z))` (Jaccard in every
    /// named configuration) and only ranks neighbors for sampling; the
    /// scoring similarity is what the combinator consumes in step 3.
    type Gather = Vec<(VertexId, f32, f32)>;

    fn name(&self) -> &str {
        "snaple-2-similarity"
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        u_data: &SnapleVertex,
        v: VertexId,
        v_data: &SnapleVertex,
        work: &mut WorkTally,
    ) -> Option<Vec<(VertexId, f32, f32)>> {
        // One work unit per merged neighbor id: the cost of the linear
        // set-intersection behind every neighborhood similarity.
        work.add((u_data.gamma.len() + v_data.gamma.len()) as u64);
        let u_view =
            NeighborhoodView::with_tags(&u_data.gamma, u_data.out_degree as usize, &u_data.tags);
        let v_view =
            NeighborhoodView::with_tags(&v_data.gamma, v_data.out_degree as usize, &v_data.tags);
        let s = self.components.similarity.score(u_view, v_view);
        let sel = if self.components.shares_selection_similarity() {
            s
        } else {
            work.add((u_data.gamma.len() + v_data.gamma.len()) as u64);
            self.components.selection_similarity.score(u_view, v_view)
        };
        Some(vec![(v, s, sel)])
    }

    fn sum(
        &self,
        mut a: Vec<(VertexId, f32, f32)>,
        b: Vec<(VertexId, f32, f32)>,
        work: &mut WorkTally,
    ) -> Vec<(VertexId, f32, f32)> {
        work.add(b.len() as u64);
        a.extend(b);
        a
    }

    fn apply(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        data: &mut SnapleVertex,
        acc: Option<Vec<(VertexId, f32, f32)>>,
        work: &mut WorkTally,
    ) {
        let candidates = acc.unwrap_or_default();
        work.add(candidates.len() as u64);
        // Rank by the selection similarity, carrying the scoring similarity
        // through as payload via an index indirection.
        let ranked: Vec<(VertexId, f32)> = candidates.iter().map(|&(v, _, sel)| (v, sel)).collect();
        let kept_ids: Vec<VertexId> = match self.klocal {
            None => ranked.into_iter().map(|(v, _)| v).collect(),
            Some(klocal) => match self.selection {
                SelectionPolicy::Max => top_k_by_score(ranked, klocal)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect(),
                SelectionPolicy::Min => bottom_k_by_score(ranked, klocal)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect(),
                SelectionPolicy::Random => {
                    // Deterministic uniform subset: order by per-(u, v) hash.
                    let mut hashed: Vec<(u64, VertexId)> = ranked
                        .into_iter()
                        .map(|(v, _)| (hash2(ctx.seed(), u.as_u32() as u64, v.as_u32() as u64), v))
                        .collect();
                    hashed.sort_unstable();
                    hashed.truncate(klocal);
                    hashed.into_iter().map(|(_, v)| v).collect()
                }
            },
        };
        let mut kept_ids = kept_ids;
        kept_ids.sort_unstable();
        let mut kept: Vec<(VertexId, f32)> = candidates
            .into_iter()
            .filter(|(v, _, _)| kept_ids.binary_search(v).is_ok())
            .map(|(v, s, _)| (v, s))
            .collect();
        kept.sort_unstable_by_key(|&(v, _)| v);
        kept.dedup_by_key(|&mut (v, _)| v);
        data.sims = kept;
    }
}

/// Where [`ScoreStep`] reads the second hop's table from.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SecondHop {
    /// The neighbor's sampled similarity table `Dv.sims` (standard 2-hop
    /// SNAPLE).
    #[default]
    Sims,
    /// The neighbor's promoted multi-hop path table `Dv.paths` (the
    /// longer-path extension of paper footnote 2).
    Paths,
}

/// **Step 3** (Algorithm 2, lines 12–20): combine raw similarities into
/// path similarities along the sampled 2-hop paths, aggregate per
/// candidate, and keep the top-`k` scores as predictions.
#[derive(Clone, Debug)]
pub struct ScoreStep<'c> {
    /// Scoring components (combinator + aggregator are used here).
    pub components: &'c ScoreComponents,
    /// Number of predictions kept per vertex.
    pub k: usize,
    /// Second-hop source table.
    pub second_hop: SecondHop,
}

impl GasStep for ScoreStep<'_> {
    type Vertex = SnapleVertex;
    /// `(candidate z, ⊕pre-accumulated lifted path similarity, path count)`
    /// triples, sorted by candidate id.
    type Gather = Vec<(VertexId, f32, u32)>;

    fn name(&self) -> &str {
        "snaple-3-score"
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        u: VertexId,
        u_data: &SnapleVertex,
        v: VertexId,
        v_data: &SnapleVertex,
        work: &mut WorkTally,
    ) -> Option<Vec<(VertexId, f32, u32)>> {
        // Line 13: only edges that survived sampling open paths.
        let sim_uv = u_data.sim_of(v)?;
        let second: &[(VertexId, f32)] = match self.second_hop {
            SecondHop::Sims => &v_data.sims,
            SecondHop::Paths => &v_data.paths,
        };
        work.add(second.len() as u64);
        let mut out: Vec<(VertexId, f32, u32)> = Vec::with_capacity(second.len());
        for &(z, sim_vz) in second {
            // Line 15: z ∈ Γmax(v) \ Γ̂(u). Also drop z = u: predicting a
            // vertex as its own missing neighbor is never useful (Alg. 1
            // scores candidates outside Γ(u) ∪ {u}).
            if z == u || u_data.in_gamma(z) {
                continue;
            }
            let path = self.components.combinator.combine(sim_uv, sim_vz);
            out.push((z, self.components.aggregator.lift(path), 1));
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn sum(
        &self,
        a: Vec<(VertexId, f32, u32)>,
        b: Vec<(VertexId, f32, u32)>,
        work: &mut WorkTally,
    ) -> Vec<(VertexId, f32, u32)> {
        work.add((a.len() + b.len()) as u64);
        merge_triples(self.components, a, b)
    }

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut SnapleVertex,
        acc: Option<Vec<(VertexId, f32, u32)>>,
        work: &mut WorkTally,
    ) {
        let merged = acc.unwrap_or_default();
        work.add(merged.len() as u64);
        let scored: Vec<(VertexId, f32)> = merged
            .into_iter()
            .map(|(z, sigma, n)| (z, self.components.aggregator.post(sigma, n)))
            .collect();
        data.predictions = top_k_by_score(scored, self.k);
    }
}

/// **Promotion step** for the recursive longer-path extension (paper §3.1,
/// footnote 2): moves each vertex's aggregated 2-hop scores into its
/// `Du.paths` table, so that running [`ScoreStep`] again with
/// [`SecondHop::Paths`] combines raw first-hop similarities with 2-hop
/// path scores — i.e. scores 3-hop paths. Apply-only: no gather traffic.
#[derive(Clone, Debug)]
pub struct PromoteScoresStep {
    /// How many of the 2-hop candidates each vertex carries forward
    /// (usually `klocal`, keeping the work bound at `O(klocal²)`).
    pub keep: usize,
}

impl GasStep for PromoteScoresStep {
    type Vertex = SnapleVertex;
    type Gather = ();

    fn name(&self) -> &str {
        "snaple-3b-promote"
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        _u_data: &SnapleVertex,
        _v: VertexId,
        _v_data: &SnapleVertex,
        _work: &mut WorkTally,
    ) -> Option<()> {
        None
    }

    fn sum(&self, _a: (), _b: (), _work: &mut WorkTally) {}

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut SnapleVertex,
        _acc: Option<()>,
        work: &mut WorkTally,
    ) {
        let mut promoted = top_k_by_score(std::mem::take(&mut data.predictions), self.keep);
        work.add(promoted.len() as u64);
        promoted.sort_unstable_by_key(|&(v, _)| v);
        data.paths = promoted;
    }
}

/// The paper's `merge` (line 16): a sorted-merge of two candidate lists
/// folding same-candidate entries with `⊕pre` and adding path counts.
fn merge_triples(
    components: &ScoreComponents,
    a: Vec<(VertexId, f32, u32)>,
    b: Vec<(VertexId, f32, u32)>,
) -> Vec<(VertexId, f32, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (z, sa, na) = a[i];
                let (_, sb, nb) = b[j];
                out.push((z, components.aggregator.pre(sa, sb), na + nb));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NamedScore;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn merge_triples_folds_duplicates_and_stays_sorted() {
        let c = NamedScore::Counter.resolve(0.9);
        let a = vec![(v(1), 1.0, 1), (v(3), 1.0, 2)];
        let b = vec![(v(2), 1.0, 1), (v(3), 1.0, 1)];
        let m = merge_triples(&c, a, b);
        assert_eq!(m, vec![(v(1), 1.0, 1), (v(2), 1.0, 1), (v(3), 2.0, 3)]);
    }

    #[test]
    fn merge_triples_handles_empty_sides() {
        let c = NamedScore::LinearSum.resolve(0.9);
        let a = vec![(v(1), 0.5, 1)];
        assert_eq!(merge_triples(&c, a.clone(), vec![]), a);
        assert_eq!(merge_triples(&c, vec![], a.clone()), a);
    }

    #[test]
    fn merge_triples_is_commutative() {
        let c = NamedScore::LinearSum.resolve(0.9);
        let a = vec![(v(1), 0.25, 1), (v(4), 0.5, 2)];
        let b = vec![(v(1), 0.125, 3), (v(9), 0.75, 1)];
        assert_eq!(
            merge_triples(&c, a.clone(), b.clone()),
            merge_triples(&c, b, a)
        );
    }
}
