//! Ablation benchmarks for two design choices the paper's results rest on:
//! partitioner choice (replication factor → traffic) and neighbor-selection
//! policy (Γmax vs Γmin vs Γrnd work profiles).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use snaple_core::{NamedScore, PredictRequest, Predictor, SelectionPolicy, Snaple, SnapleConfig};
use snaple_gas::{ClusterSpec, PartitionStrategy, PartitionedGraph};
use snaple_graph::gen::datasets;

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioner");
    group.sample_size(10);
    let graph = datasets::LIVEJOURNAL.emulate(0.002, 3);
    for strategy in PartitionStrategy::all() {
        group.bench_with_input(
            BenchmarkId::new("build-16-nodes", strategy.name()),
            &strategy,
            |bench, &s| {
                bench.iter(|| black_box(PartitionedGraph::build(&graph, 16, s, 1).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_selection_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection-policy");
    group.sample_size(10);
    let graph = datasets::LIVEJOURNAL.emulate(0.001, 3);
    let cluster = ClusterSpec::type_i(8);
    for policy in SelectionPolicy::all() {
        group.bench_with_input(
            BenchmarkId::new("predict-klocal10", policy.name()),
            &policy,
            |bench, &p| {
                bench.iter(|| {
                    let snaple = Snaple::new(
                        SnapleConfig::new(NamedScore::LinearSum)
                            .klocal(Some(10))
                            .selection(p),
                    );
                    let req = PredictRequest::new(&graph, &cluster);
                    black_box(Predictor::predict(&snaple, &req).unwrap())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners, bench_selection_policies);
criterion_main!(benches);
