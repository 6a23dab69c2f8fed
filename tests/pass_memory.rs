//! Host memory of the paper's workload: one all-vertices [`ScorePlan`]
//! pass plus its combined ranking must raise the process's resident
//! high-water mark by a bounded number of bytes per edge.
//!
//! The pass runs its supersteps in gatherer blocks and stores top-k rows
//! at exact size, so the rise is ≈130 B per edge on this 98k-edge graph
//! and ≈90–100 B per edge at 0.25–1.0 scale. Collecting every partition's
//! partials at once, with top-k rows that kept the capacity of all their
//! candidates, cost ≈855–880 B per edge, linear in the graph.
//!
//! This file holds exactly one test, so the measurement runs alone in
//! its own process. The high-water mark is reset through
//! `/proc/self/clear_refs`; where that is unavailable the test skips.

use snaple::core::{ExecuteRequest, PrepareRequest, ScorePlan};
use snaple::gas::ClusterSpec;
use snaple::graph::gen::datasets;

/// Bound on the rise in resident high-water mark per edge, in bytes. Set
/// from measurement on a 2-core x86-64 VM (131–136 B per edge here, in
/// debug and release builds; 855 unblocked) with room for allocator
/// noise, and over 3x below the unblocked pass.
const MAX_BYTES_PER_EDGE: u64 = 250;

/// A `kB` field of `/proc/self/status`.
fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[test]
fn all_vertices_pass_memory_is_bounded_per_edge() {
    let graph = datasets::GOWALLA.emulate(0.05, 7);
    let edges = graph.num_edges() as u64;
    assert!(edges >= 80_000, "{edges} edges");
    let plan = ScorePlan::parse("linearSum, counter, PPR, jaccard@agg=max").unwrap();
    let cluster = ClusterSpec::type_ii(4);
    let prepared = plan
        .prepare_plan(&PrepareRequest::new(&graph, &cluster))
        .unwrap();

    // Writing "5" resets VmHWM to the current resident set size.
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("skipped: /proc/self/clear_refs is not writable here");
        return;
    }
    let Some(before) = status_kb("VmHWM:") else {
        eprintln!("skipped: /proc/self/status reports no VmHWM here");
        return;
    };
    let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
    let combined = matrix.combined(plan.combined_k());
    let peak = status_kb("VmHWM:").unwrap();
    assert_eq!(combined.num_vertices(), graph.num_vertices());

    let per_edge = peak.saturating_sub(before) * 1024 / edges;
    eprintln!(
        "all-vertices pass: +{} kB high-water over {edges} edges = {per_edge} B/edge",
        peak.saturating_sub(before)
    );
    assert!(
        per_edge <= MAX_BYTES_PER_EDGE,
        "the pass raised the high-water mark by {per_edge} B per edge \
         (bound {MAX_BYTES_PER_EDGE})"
    );
}
