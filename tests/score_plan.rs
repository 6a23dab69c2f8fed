//! The fused-execution contract of [`ScorePlan`]: every column of a fused
//! multi-score sweep is **bit-identical** to running that column's spec
//! alone as a standalone [`Snaple`] — for all-vertices runs, for
//! query-subset runs, and before and after streaming graph deltas — while
//! the fused sweep performs a fraction of the independent runs' gather
//! work.
//!
//! Also hosts the regression test for `intersection_size`'s sortedness
//! contract: adjacency built through the shuffled-insertion constructor
//! path must come out sorted, so every similarity computed over it is
//! exact.

use proptest::prelude::*;

use snaple::core::similarity::intersection_size;
use snaple::core::{
    ExecuteRequest, PlanConfig, Predictor, PrepareRequest, QuerySet, Registry, ScorePlan,
};
use snaple::gas::ClusterSpec;
use snaple::graph::gen::datasets;
use snaple::graph::{CsrGraph, GraphBuilder, GraphDelta, VertexId};

fn graph_from(edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(1);
    for (u, v) in edges {
        b.add_edge(*u, *v);
    }
    b.build()
}

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..40, 0u32..40), 1..300)
}

/// A deterministic delta for `graph`: retracts every 7th edge and inserts
/// a few probe non-edges (plus one vertex-growing edge).
fn small_delta(graph: &CsrGraph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for (i, (u, v)) in graph.edges().enumerate() {
        if i % 7 == 0 {
            delta.remove(u.as_u32(), v.as_u32());
        }
    }
    let n = graph.num_vertices() as u32;
    let mut inserted = 0;
    'probe: for u in 0..n {
        for v in (u + 1)..n {
            if !graph.has_edge(VertexId::new(u), VertexId::new(v)) {
                delta.insert(u, v);
                inserted += 1;
                if inserted == 3 {
                    break 'probe;
                }
            }
        }
    }
    delta.insert(n + 2, 0);
    delta
}

/// Asserts every fused column equals its standalone run on `graph`, for
/// the full vertex set and for `queries`; returns (fused, independent)
/// total gather-call counts of the all-vertices comparison.
fn assert_columns_match(plan: &ScorePlan, graph: &CsrGraph, queries: &QuerySet) -> (u64, u64) {
    let cluster = ClusterSpec::type_ii(4);
    let prepared = plan
        .prepare_plan(&PrepareRequest::new(graph, &cluster))
        .expect("prepare plan");
    let full = prepared
        .execute_matrix(&ExecuteRequest::new())
        .expect("fused all-vertices");
    let targeted = prepared
        .execute_matrix(&ExecuteRequest::new().with_queries(queries))
        .expect("fused targeted");

    let fused_gathers: u64 = full.stats.steps.iter().map(|s| s.gather_calls).sum();
    let mut independent_gathers = 0u64;
    for col in 0..plan.num_columns() {
        let standalone = plan.column_snaple(col);
        let solo_prepared = standalone
            .prepare(&PrepareRequest::new(graph, &cluster))
            .expect("prepare standalone");
        let solo = solo_prepared
            .execute(&ExecuteRequest::new())
            .expect("standalone all-vertices");
        independent_gathers += solo.stats.steps.iter().map(|s| s.gather_calls).sum::<u64>();
        for (u, rows) in full.column_rows(col) {
            assert_eq!(rows, solo.for_vertex(u), "column {col} row {u} diverged");
        }
        let solo_targeted = solo_prepared
            .execute(&ExecuteRequest::new().with_queries(queries))
            .expect("standalone targeted");
        for (u, rows) in targeted.column_rows(col) {
            if queries.contains(u) {
                assert_eq!(rows, solo.for_vertex(u), "targeted column {col} row {u}");
                assert_eq!(
                    rows,
                    solo_targeted.for_vertex(u),
                    "targeted-vs-targeted column {col} row {u}"
                );
            } else {
                assert!(rows.is_empty(), "non-queried column {col} row {u}");
            }
        }
    }
    (fused_gathers, independent_gathers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property on arbitrary graphs: a 4-spec plan's
    /// columns are bit-identical to four independent Snaple runs —
    /// all-vertices and query-subset — and the fused sweep performs
    /// < 60% of their combined gather calls (when any gathering happens).
    #[test]
    fn fused_columns_equal_standalone_runs(edges in edges_strategy(), qseed in 0u64..50) {
        let graph = graph_from(&edges);
        let plan = ScorePlan::parse_with(
            &Registry::builtin(),
            "linearSum, counter, PPR, jaccard@agg=max@k3",
            PlanConfig::default().klocal(Some(8)).seed(7),
        ).expect("plan parses");
        let queries = QuerySet::sample(graph.num_vertices(), (graph.num_vertices() / 3).max(1), qseed);
        let (fused, independent) = assert_columns_match(&plan, &graph, &queries);
        if independent > 0 {
            prop_assert!(
                (fused as f64) < 0.6 * independent as f64,
                "fused {fused} gathers !< 60% of independent {independent}"
            );
        }
    }

    /// The same contract holds across a streaming delta: after
    /// `apply_delta` on the prepared plan, every column still equals the
    /// standalone run on the mutated graph (which itself equals a cold
    /// rebuild).
    #[test]
    fn fused_columns_survive_deltas(edges in edges_strategy(), qseed in 0u64..50) {
        let graph = graph_from(&edges);
        let cluster = ClusterSpec::type_ii(4);
        let plan = ScorePlan::parse_with(
            &Registry::builtin(),
            "linearSum, counter@k3",
            PlanConfig::default().klocal(Some(8)).seed(7),
        ).expect("plan parses");

        // Pre-delta equivalence on the base graph.
        let queries = QuerySet::sample(graph.num_vertices(), (graph.num_vertices() / 3).max(1), qseed);
        assert_columns_match(&plan, &graph, &queries);

        // Apply the delta in place, then re-check on the mutated graph.
        let delta = small_delta(&graph);
        let mut prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .expect("prepare plan");
        prepared.apply_delta(&delta).expect("apply delta");
        let mutated = graph.compact(&delta);
        let queries = QuerySet::sample(mutated.num_vertices(), (mutated.num_vertices() / 3).max(1), qseed);
        let warm = prepared
            .execute_matrix(&ExecuteRequest::new().with_queries(&queries))
            .expect("post-delta fused");
        for col in 0..plan.num_columns() {
            let solo = Predictor::predict(
                &plan.column_snaple(col),
                &snaple::core::PredictRequest::new(&mutated, &cluster).with_queries(&queries),
            )
            .expect("standalone on mutated graph");
            for (u, rows) in warm.column_rows(col) {
                prop_assert_eq!(rows, solo.for_vertex(u), "post-delta column {} row {}", col, u);
            }
        }
    }

    /// Adjacency reached through the shuffled-insertion constructor path
    /// is sorted, so `intersection_size`'s two-pointer merge (which
    /// debug-asserts sortedness and silently undercounts on unsorted
    /// input in release builds) is exact against a brute-force count.
    #[test]
    fn shuffled_adjacency_is_sorted_and_intersections_exact(
        mut edges in edges_strategy(),
        flip in 0u8..2,
    ) {
        // Shuffle the insertion order deterministically.
        edges.reverse();
        if flip == 1 {
            let third = edges.len() / 3;
            edges.rotate_left(third);
        }
        let graph = graph_from(&edges);
        let rows: Vec<Vec<VertexId>> = graph
            .vertices()
            .map(|u| graph.out_neighbors(u).to_vec())
            .collect();
        for row in &rows {
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "unsorted CSR row");
        }
        for (i, a) in rows.iter().enumerate().take(12) {
            for b in rows.iter().skip(i) {
                let brute = a.iter().filter(|v| b.contains(v)).count();
                prop_assert_eq!(intersection_size(a, b), brute);
            }
        }
    }
}

/// Two fused plans on an emulated GOWALLA subset under the default plan
/// configuration: the supervised panel's four scores, and a
/// kernel-diverse plan with a custom aggregator, a blend, a `comb=sum`
/// combiner, `invdeg` and `dice`. Every column equals its standalone
/// run, and the fused sweep performs < 60% of their gather calls.
#[test]
fn gowalla_plans_fuse_under_the_gather_bar() {
    let graph = datasets::GOWALLA.emulate(0.004, 42);
    let queries = QuerySet::sample(graph.num_vertices(), graph.num_vertices() / 4, 42);
    for scores in [
        "linearSum, counter, PPR, euclSum",
        "jaccard@agg=max, cosine*0.7+common, invdeg@comb=sum, dice@k3",
    ] {
        let plan = ScorePlan::parse(scores).expect("plan parses");
        let (fused, independent) = assert_columns_match(&plan, &graph, &queries);
        assert!(
            (fused as f64) < 0.6 * independent as f64,
            "{scores}: fused {fused} gathers !< 60% of independent {independent}"
        );
    }
}

/// The supervised feature panel's fused extraction matches the plan's
/// column semantics end to end: each panel column is the standalone run
/// of its named configuration at pool size.
#[test]
fn feature_panel_goes_through_the_fused_path() {
    use snaple::supervised::features::FeaturePanel;
    use snaple::supervised::SupervisedConfig;

    let graph = datasets::GOWALLA.emulate(0.004, 9);
    let cluster = ClusterSpec::type_ii(2);
    let config = SupervisedConfig::new().seed(9);
    let panel = FeaturePanel::new(&config);
    let plan = panel.plan().expect("panel plan");
    assert_eq!(plan.num_columns(), config.panel.len());

    // The panel's plan columns equal standalone runs...
    let queries = QuerySet::sample(graph.num_vertices(), graph.num_vertices() / 4, 3);
    assert_columns_match(&plan, &graph, &queries);

    // ...and the extracted table's score columns carry exactly those rows.
    let table = panel.extract(&graph, &cluster).expect("extract");
    let prepared = plan
        .prepare_plan(&PrepareRequest::new(&graph, &cluster))
        .expect("prepare");
    let matrix = prepared
        .execute_matrix(&ExecuteRequest::new())
        .expect("fused matrix");
    let mut checked = 0usize;
    for (u, z, features) in table.rows() {
        for (col, &feature) in features.iter().take(plan.num_columns()).enumerate() {
            let expected = matrix
                .scores(col, u)
                .iter()
                .find(|&&(id, _)| id == z)
                .map_or(0.0, |&(_, s)| s as f64);
            assert_eq!(feature, expected, "row ({u}, {z}) column {col}");
            checked += 1;
        }
    }
    assert!(checked > 0, "the panel must extract candidate rows");
}

/// One step's pinned accounting: name, gather calls, sum calls, work ops,
/// broadcast bytes, partial bytes and every node's memory peak.
type StepGolden = (&'static str, u64, u64, u64, u64, u64, &'static [u64]);

/// One step's accounting as measured, in [`StepGolden`]'s order.
type StepAccounting = (String, u64, u64, u64, u64, u64, Vec<u64>);

/// The accounting of every step of `plan`'s all-vertices sweep on an
/// emulated GOWALLA subset over a `nodes`-node type-II cluster.
fn step_accounting(plan: &ScorePlan, nodes: usize) -> Vec<StepAccounting> {
    let graph = datasets::GOWALLA.emulate(0.004, 42);
    let cluster = ClusterSpec::type_ii(nodes);
    let matrix = plan
        .prepare_plan(&PrepareRequest::new(&graph, &cluster))
        .expect("prepare plan")
        .execute_matrix(&ExecuteRequest::new())
        .expect("all-vertices sweep");
    matrix
        .stats
        .steps
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.gather_calls,
                s.sum_calls,
                s.work_ops,
                s.broadcast_bytes,
                s.partial_bytes,
                s.per_node.iter().map(|n| n.memory_peak).collect(),
            )
        })
        .collect()
}

/// The four-column plan of the batch-all benchmark, over 2-hop paths.
fn two_hop_plan() -> ScorePlan {
    ScorePlan::parse("linearSum, counter, PPR, jaccard@agg=max").expect("plan parses")
}

/// A 3-hop plan whose columns keep different numbers of promoted paths
/// (`klocal` off, so each column keeps `max(k, 20)`), so the second hop's
/// candidate sets differ per column and a candidate is often absent from
/// some columns.
fn three_hop_plan() -> ScorePlan {
    ScorePlan::parse_with(
        &Registry::builtin(),
        "linearSum@k24, counter, PPR@k40, jaccard@agg=max@k31",
        PlanConfig::default()
            .klocal(None)
            .path_length(snaple::core::PathLength::Three),
    )
    .expect("plan parses")
}

const TWO_HOP_1: &[StepGolden] = &[
    ("plan-1-neighborhood", 7790, 7008, 30382, 0, 0, &[296720]),
    ("plan-2-similarity", 7790, 7008, 738946, 0, 0, &[732960]),
    ("plan-3-score", 7790, 6406, 2029385, 0, 0, &[4016160]),
];
const TWO_HOP_4: &[StepGolden] = &[
    (
        "plan-1-neighborhood",
        7790,
        7008,
        34043,
        230100,
        133996,
        &[131728, 134932, 129756, 130404],
    ),
    (
        "plan-2-similarity",
        7790,
        7008,
        742607,
        322536,
        438664,
        &[264084, 272196, 259412, 259804],
    ),
    (
        "plan-3-score",
        7790,
        6406,
        1531809,
        750036,
        2804464,
        &[1208140, 1228476, 1160348, 1169232],
    ),
];
const THREE_HOP_1: &[StepGolden] = &[
    ("plan-1-neighborhood", 7790, 7008, 30382, 0, 0, &[296720]),
    ("plan-2-similarity", 7790, 7008, 738946, 0, 0, &[732960]),
    ("plan-3-score", 7790, 6983, 3504289, 0, 0, &[5361528]),
    ("plan-3b-promote", 7790, 0, 97335, 0, 0, &[1088256]),
    ("plan-3-score", 7790, 7008, 5125396, 0, 0, &[10534672]),
];
const THREE_HOP_4: &[StepGolden] = &[
    (
        "plan-1-neighborhood",
        7790,
        7008,
        34043,
        230100,
        133996,
        &[131728, 134932, 129756, 130404],
    ),
    (
        "plan-2-similarity",
        7790,
        7008,
        742607,
        322536,
        438664,
        &[264084, 272196, 259412, 259804],
    ),
    (
        "plan-3-score",
        7790,
        6983,
        2362469,
        784716,
        3829392,
        &[1550020, 1586868, 1498244, 1511112],
    ),
    (
        "plan-3b-promote",
        7790,
        0,
        97335,
        3022036,
        0,
        &[1027684, 1032596, 1020252, 1029760],
    ),
    (
        "plan-3-score",
        7790,
        7008,
        4040191,
        3022036,
        7116004,
        &[3400536, 3499216, 3328956, 3328000],
    ),
];

/// Every step's gather and sum calls, work, traffic and per-node memory
/// peaks are pinned, so a change to how the engine walks partitions or
/// how a step folds candidates cannot move the simulated cost. The
/// goldens were captured from the partition-major engine with the
/// pairwise per-column merge.
#[test]
fn step_accounting_matches_the_goldens() {
    for (what, plan, nodes, golden) in [
        ("2-hop, 1 node", two_hop_plan(), 1, TWO_HOP_1),
        ("2-hop, 4 nodes", two_hop_plan(), 4, TWO_HOP_4),
        ("3-hop, 1 node", three_hop_plan(), 1, THREE_HOP_1),
        ("3-hop, 4 nodes", three_hop_plan(), 4, THREE_HOP_4),
    ] {
        let actual = step_accounting(&plan, nodes);
        assert_eq!(actual.len(), golden.len(), "{what}: step count");
        for ((n, g, s, w, b, p, m), &(gn, gg, gs, gw, gb, gp, gm)) in actual.iter().zip(golden) {
            assert_eq!(
                (n.as_str(), *g, *s, *w, *b, *p, m.as_slice()),
                (gn, gg, gs, gw, gb, gp, gm),
                "{what}"
            );
        }
    }
}
