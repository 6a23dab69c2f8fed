//! Execution statistics collected by the engine.

/// Per-node tallies for one GAS step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeStats {
    /// Compute operations executed on this node (engine-counted calls plus
    /// program-reported work units).
    pub compute_ops: u64,
    /// Bytes this node sent or received over the simulated network.
    pub net_bytes: u64,
    /// Peak simulated memory footprint of the node during the step.
    pub memory_peak: u64,
}

/// Statistics of one executed GAS step.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Step name as reported by the program.
    pub name: String,
    /// Number of `gather` invocations.
    pub gather_calls: u64,
    /// Number of `sum` invocations (folds within a partition's run plus
    /// folds of run partials across partitions).
    pub sum_calls: u64,
    /// Number of `apply` invocations.
    pub apply_calls: u64,
    /// Total work units, including program-reported extra work.
    pub work_ops: u64,
    /// Bytes of vertex state broadcast from masters to mirrors.
    pub broadcast_bytes: u64,
    /// Bytes of gather partials sent from mirrors to masters.
    pub partial_bytes: u64,
    /// Per-node breakdown.
    pub per_node: Vec<NodeStats>,
    /// Simulated wall-clock duration of the step (cost model output).
    pub simulated_seconds: f64,
}

impl NodeStats {
    /// Folds another run's tally for the same node into this one:
    /// cumulative counters (`compute_ops`, `net_bytes`) add, while
    /// `memory_peak` keeps the larger high-water mark — concurrent peaks
    /// are not assumed to coincide.
    pub fn merge_parallel(&mut self, other: &NodeStats) {
        self.compute_ops += other.compute_ops;
        self.net_bytes += other.net_bytes;
        self.memory_peak = self.memory_peak.max(other.memory_peak);
    }
}

impl StepStats {
    /// Total bytes crossing the simulated network during this step.
    pub fn network_bytes(&self) -> u64 {
        self.broadcast_bytes + self.partial_bytes
    }

    /// Largest per-node compute-op count (the straggler that bounds the
    /// step's compute time).
    pub fn max_node_ops(&self) -> u64 {
        self.per_node
            .iter()
            .map(|n| n.compute_ops)
            .max()
            .unwrap_or(0)
    }

    /// Largest per-node network volume.
    pub fn max_node_net_bytes(&self) -> u64 {
        self.per_node.iter().map(|n| n.net_bytes).max().unwrap_or(0)
    }

    /// Largest per-node memory footprint.
    pub fn peak_memory(&self) -> u64 {
        self.per_node
            .iter()
            .map(|n| n.memory_peak)
            .max()
            .unwrap_or(0)
    }

    /// Folds the same-named step of a run that executed *in parallel*
    /// with this one (e.g. on a sibling shard) into this step's tallies.
    ///
    /// Cumulative counters (calls, work, bytes) add; per-node tallies
    /// merge element-wise (the longer breakdown wins when node counts
    /// differ); `simulated_seconds` keeps the maximum — parallel runs
    /// complete when their slowest member does.
    pub fn merge_parallel(&mut self, other: &StepStats) {
        self.gather_calls += other.gather_calls;
        self.sum_calls += other.sum_calls;
        self.apply_calls += other.apply_calls;
        self.work_ops += other.work_ops;
        self.broadcast_bytes += other.broadcast_bytes;
        self.partial_bytes += other.partial_bytes;
        if self.per_node.len() < other.per_node.len() {
            self.per_node
                .resize(other.per_node.len(), NodeStats::default());
        }
        for (mine, theirs) in self.per_node.iter_mut().zip(&other.per_node) {
            mine.merge_parallel(theirs);
        }
        self.simulated_seconds = self.simulated_seconds.max(other.simulated_seconds);
    }
}

/// Accumulated statistics of a full GAS program run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// One entry per executed step, in order.
    pub steps: Vec<StepStats>,
    /// Replication factor of the partition the run executed on.
    pub replication_factor: f64,
    /// Host wall-clock seconds spent building the partition *for this
    /// run*. An [`Engine`](crate::Engine) always reports zero: it runs on
    /// a [`Deployment`](crate::Deployment) built ahead of time. A one-shot
    /// caller that prepares and executes in one go adds the deployment's
    /// build time back, which is how experiment tables make the
    /// prepare-once amortization win visible.
    pub partition_build_seconds: f64,
    /// Cumulative host wall-clock seconds the run's deployment spent
    /// absorbing graph deltas
    /// ([`Deployment::apply_delta`](crate::Deployment::apply_delta)) —
    /// zero for deployments never updated.
    pub delta_apply_seconds: f64,
    /// Cumulative count of vertex-cut partitions touched by the
    /// deployment's applied deltas: the incremental-repair footprint that
    /// a full repartition would have inflated to every-partition.
    pub delta_touched_partitions: usize,
}

impl RunStats {
    /// Simulated wall-clock seconds across all steps.
    pub fn simulated_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.simulated_seconds).sum()
    }

    /// Total simulated network traffic in bytes.
    pub fn total_network_bytes(&self) -> u64 {
        self.steps.iter().map(StepStats::network_bytes).sum()
    }

    /// Peak per-node memory across all steps.
    pub fn peak_memory(&self) -> u64 {
        self.steps
            .iter()
            .map(StepStats::peak_memory)
            .max()
            .unwrap_or(0)
    }

    /// Total work units across all steps.
    pub fn total_work_ops(&self) -> u64 {
        self.steps.iter().map(|s| s.work_ops).sum()
    }

    /// Folds the stats of a run that executed *in parallel* with this one
    /// (a sibling shard's run over the same program) into this summary.
    ///
    /// Steps pair up by position — sharded runs execute the same program,
    /// so step `i` here and step `i` there are the same superstep — and
    /// merge via [`StepStats::merge_parallel`]; unmatched trailing steps
    /// are appended verbatim. Wall-clock style fields
    /// (`partition_build_seconds`, `delta_apply_seconds`) keep the
    /// maximum (parallel preparation is bounded by its slowest member),
    /// as do `replication_factor` and `delta_touched_partitions`, which
    /// are per-deployment readings rather than cumulative counters.
    pub fn merge_parallel(&mut self, other: &RunStats) {
        for (i, step) in other.steps.iter().enumerate() {
            match self.steps.get_mut(i) {
                Some(mine) => mine.merge_parallel(step),
                None => self.steps.push(step.clone()),
            }
        }
        self.replication_factor = self.replication_factor.max(other.replication_factor);
        self.partition_build_seconds = self
            .partition_build_seconds
            .max(other.partition_build_seconds);
        self.delta_apply_seconds = self.delta_apply_seconds.max(other.delta_apply_seconds);
        self.delta_touched_partitions = self
            .delta_touched_partitions
            .max(other.delta_touched_partitions);
    }

    /// Merges an iterator of parallel runs into one summary; `None` when
    /// the iterator is empty.
    pub fn merged_parallel<'a>(runs: impl IntoIterator<Item = &'a RunStats>) -> Option<RunStats> {
        let mut iter = runs.into_iter();
        let mut acc = iter.next()?.clone();
        for run in iter {
            acc.merge_parallel(run);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(ops: &[u64], net: &[u64], mem: &[u64], secs: f64) -> StepStats {
        StepStats {
            name: "s".into(),
            per_node: ops
                .iter()
                .zip(net)
                .zip(mem)
                .map(|((&o, &n), &m)| NodeStats {
                    compute_ops: o,
                    net_bytes: n,
                    memory_peak: m,
                })
                .collect(),
            broadcast_bytes: net.iter().sum::<u64>() / 2,
            partial_bytes: net.iter().sum::<u64>() / 2,
            simulated_seconds: secs,
            ..Default::default()
        }
    }

    #[test]
    fn step_maxes() {
        let s = step(&[5, 9, 2], &[10, 4, 7], &[100, 50, 200], 1.5);
        assert_eq!(s.max_node_ops(), 9);
        assert_eq!(s.max_node_net_bytes(), 10);
        assert_eq!(s.peak_memory(), 200);
        assert_eq!(s.network_bytes(), 20);
    }

    #[test]
    fn run_aggregates() {
        let run = RunStats {
            steps: vec![
                step(&[5], &[10], &[100], 1.0),
                step(&[7], &[2], &[300], 0.5),
            ],
            replication_factor: 1.5,
            ..Default::default()
        };
        assert!((run.simulated_seconds() - 1.5).abs() < 1e-12);
        assert_eq!(run.peak_memory(), 300);
        assert_eq!(run.total_network_bytes(), 10 + 2);
    }

    #[test]
    fn parallel_step_merge_adds_counters_and_keeps_critical_path() {
        let mut a = step(&[5, 9], &[10, 4], &[100, 50], 1.5);
        a.gather_calls = 7;
        a.apply_calls = 3;
        let mut b = step(&[2, 1], &[6, 6], &[300, 10], 0.5);
        b.gather_calls = 5;
        b.apply_calls = 4;
        a.merge_parallel(&b);
        assert_eq!(a.gather_calls, 12);
        assert_eq!(a.apply_calls, 7);
        assert_eq!(a.per_node[0].compute_ops, 7);
        assert_eq!(a.per_node[1].net_bytes, 10);
        // Peaks keep the high-water mark, not the sum.
        assert_eq!(a.per_node[0].memory_peak, 300);
        assert_eq!(a.per_node[1].memory_peak, 50);
        // Parallel runs complete when the slowest member does.
        assert!((a.simulated_seconds - 1.5).abs() < 1e-12);
        assert_eq!(a.network_bytes(), 14 + 12);
    }

    #[test]
    fn parallel_step_merge_grows_to_the_longer_node_breakdown() {
        let mut a = step(&[5], &[10], &[100], 1.0);
        let b = step(&[1, 2, 3], &[0, 0, 6], &[50, 70, 90], 2.0);
        a.merge_parallel(&b);
        assert_eq!(a.per_node.len(), 3);
        assert_eq!(a.per_node[0].compute_ops, 6);
        assert_eq!(a.per_node[2].compute_ops, 3);
        assert_eq!(a.peak_memory(), 100);
    }

    #[test]
    fn parallel_run_merge_pairs_steps_by_position() {
        let mut a = RunStats {
            steps: vec![step(&[5], &[10], &[100], 1.0)],
            replication_factor: 1.5,
            partition_build_seconds: 0.2,
            ..Default::default()
        };
        let b = RunStats {
            steps: vec![step(&[7], &[2], &[300], 0.25), step(&[1], &[4], &[10], 0.5)],
            replication_factor: 1.2,
            partition_build_seconds: 0.6,
            delta_apply_seconds: 0.1,
            delta_touched_partitions: 3,
        };
        a.merge_parallel(&b);
        assert_eq!(a.steps.len(), 2, "unmatched trailing steps append");
        assert_eq!(a.steps[0].per_node[0].compute_ops, 12);
        assert!((a.steps[0].simulated_seconds - 1.0).abs() < 1e-12);
        assert!((a.replication_factor - 1.5).abs() < 1e-12);
        assert!((a.partition_build_seconds - 0.6).abs() < 1e-12);
        assert_eq!(a.delta_touched_partitions, 3);
        assert_eq!(a.total_work_ops(), 0, "work_ops untouched by helper steps");
    }

    #[test]
    fn merged_parallel_folds_a_whole_fleet() {
        let runs: Vec<RunStats> = (0..3u64)
            .map(|i| RunStats {
                steps: vec![step(&[i + 1], &[10], &[100 * (i + 1)], i as f64)],
                replication_factor: 1.0 + i as f64 / 10.0,
                ..Default::default()
            })
            .collect();
        let merged = RunStats::merged_parallel(&runs).unwrap();
        assert_eq!(merged.steps[0].per_node[0].compute_ops, 1 + 2 + 3);
        assert_eq!(merged.peak_memory(), 300);
        assert!((merged.simulated_seconds() - 2.0).abs() < 1e-12);
        assert!(RunStats::merged_parallel(std::iter::empty()).is_none());
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = StepStats::default();
        assert_eq!(s.max_node_ops(), 0);
        assert_eq!(s.peak_memory(), 0);
        let r = RunStats::default();
        assert_eq!(r.simulated_seconds(), 0.0);
        assert_eq!(r.total_work_ops(), 0);
    }
}
