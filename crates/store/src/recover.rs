//! Crash recovery: the [`Durability`] handle tying the commitlog and
//! the snapshot store together.
//!
//! # Lifecycle
//!
//! * **First open** of a data dir seeds it: a snapshot of the caller's
//!   base graph is published at `covers_seq = 0`, so later recoveries
//!   are self-contained.
//! * **[`Durability::record`]** appends the delta to the commitlog
//!   (applying the fsync policy) *before* the server applies it — the
//!   log is a write-ahead log. Every `snapshot_every` records, the
//!   accumulated deltas are folded into the base graph with the
//!   consuming [`CsrGraph::compact_owned`] on Durability's own copy (an
//!   epoch-consistent clone — the serving predictor's state is
//!   untouched and serving continues), a new snapshot is streamed out
//!   atomically in the `SNPLG2` serving layout (see
//!   [`crate::snapshot`]), old snapshots beyond the retention window
//!   are pruned, and the log is trimmed below the oldest retained
//!   snapshot's coverage.
//! * **Reopen** = recovery: load the newest snapshot that validates
//!   (falling back to older ones on checksum failure), then replay the
//!   log tail (`seq >= covers_seq`). The caller applies the returned
//!   [`RecoveredState::replay`] deltas through its normal
//!   `apply_update` path *before* attaching the handle, reconstructing
//!   a state bit-identical to a server that never crashed. Torn log
//!   tails and corrupt snapshots surface as typed errors inside the
//!   [`RecoveryReport`] — handled, reported, never a panic.

use std::path::{Path, PathBuf};
use std::time::Instant;

use snaple_graph::{CsrGraph, GraphDelta, GraphStore};

use crate::log::{Commitlog, FsyncPolicy, LogOpen, TornTail};
use crate::snapshot::{SnapshotMeta, SnapshotStore};
use crate::StoreError;

/// Tuning knobs for a [`Durability`] handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// When log appends hit the disk (default: [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Publish a snapshot after this many logged deltas; `0` disables
    /// periodic snapshots (default: 64).
    pub snapshot_every: usize,
    /// How many snapshots to retain (minimum and default: 2 — the
    /// newest plus one fallback).
    pub retain: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            snapshot_every: 64,
            retain: 2,
        }
    }
}

impl DurabilityOptions {
    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the snapshot cadence (`0` = never snapshot periodically).
    pub fn snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Sets the snapshot retention count (clamped to at least 1).
    pub fn retain(mut self, retain: usize) -> Self {
        self.retain = retain.max(1);
        self
    }
}

/// What recovery found and did — the typed trail of every error it
/// handled on the way. Folded into `ServerStats` by the serving layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// `covers_seq` of the snapshot recovery restored from (`None` =
    /// no snapshot loaded; the caller's base graph was used).
    pub snapshot_seq: Option<u64>,
    /// Newer snapshots skipped because they failed validation, with the
    /// typed error each produced.
    pub snapshots_skipped: Vec<(PathBuf, StoreError)>,
    /// Log frames replayed on top of the snapshot.
    pub frames_replayed: usize,
    /// Bytes truncated from a torn log tail (0 = the tail was clean).
    pub tail_truncated_bytes: u64,
    /// The typed error the torn tail produced, when one was truncated.
    pub tail_error: Option<StoreError>,
}

impl RecoveryReport {
    /// Whether recovery had to repair anything (truncate a torn tail or
    /// skip a corrupt snapshot).
    pub fn repaired(&self) -> bool {
        self.tail_error.is_some() || !self.snapshots_skipped.is_empty()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = match self.snapshot_seq {
            Some(seq) => format!("recovered from snapshot@{seq}"),
            None => "recovered from base graph".to_string(),
        };
        s.push_str(&format!(", replayed {} frames", self.frames_replayed));
        if !self.snapshots_skipped.is_empty() {
            s.push_str(&format!(
                ", skipped {} corrupt snapshot(s)",
                self.snapshots_skipped.len()
            ));
        }
        if let Some(err) = &self.tail_error {
            s.push_str(&format!(
                ", truncated {}-byte torn tail ({err})",
                self.tail_truncated_bytes
            ));
        }
        s
    }
}

/// Counters a [`Durability`] handle accumulates; surfaced through
/// `ServerStats` so durability overhead is visible next to serve
/// timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityStats {
    /// Deltas appended to the commitlog through this handle.
    pub logged_deltas: usize,
    /// Bytes appended to the commitlog through this handle.
    pub logged_bytes: u64,
    /// fsyncs issued by the commitlog.
    pub fsyncs: u64,
    /// Snapshots published by this handle.
    pub snapshots_written: usize,
    /// Wall seconds spent appending (and fsyncing) log frames.
    pub log_wall_seconds: f64,
    /// Wall seconds spent compacting + publishing snapshots.
    pub snapshot_wall_seconds: f64,
    /// The recovery that produced this handle, when the data dir held
    /// prior state.
    pub recovery: Option<RecoveryReport>,
}

/// The state a reopened data dir restores, to be replayed by the
/// caller before serving resumes.
#[derive(Debug)]
pub struct RecoveredState {
    /// The recovered base graph (newest valid snapshot, or the caller's
    /// base when no snapshot loaded).
    pub graph: CsrGraph,
    /// Log-tail deltas to replay through `apply_update`, in log order.
    pub replay: Vec<GraphDelta>,
    /// The serve config blob the snapshot recorded (empty when no
    /// snapshot loaded). Callers compare it against their current
    /// config to detect a restart with changed flags.
    pub config: Vec<u8>,
}

/// A data dir's durability handle: write-ahead delta log + periodic
/// snapshots. See the [module docs](self).
#[derive(Debug)]
pub struct Durability {
    log: Commitlog,
    snapshots: SnapshotStore,
    /// Durability's own copy of the graph as of the last snapshot.
    graph: CsrGraph,
    /// Ops logged (or replayed) since the last snapshot, in arrival
    /// order — concatenation preserves last-wins resolution, so one
    /// compact over the accumulated delta equals compacting each delta
    /// in sequence.
    pending: GraphDelta,
    pending_frames: usize,
    config: Vec<u8>,
    opts: DurabilityOptions,
    stats: DurabilityStats,
}

fn fold_into(pending: &mut GraphDelta, delta: &GraphDelta) {
    for (u, v, w, insert) in delta.ops() {
        if insert {
            pending.insert_weighted(u, v, w);
        } else {
            pending.remove(u, v);
        }
    }
}

impl Durability {
    /// Opens (creating if needed) the data dir at `dir`.
    ///
    /// Fresh dir: seeds a `covers_seq = 0` snapshot of `base` and
    /// returns no recovered state. Existing dir: loads the newest valid
    /// snapshot + replays the log tail, returning a [`RecoveredState`]
    /// the caller must apply before serving, plus the
    /// [`RecoveryReport`] of everything recovery repaired. When every
    /// snapshot is corrupt, recovery falls back to `base` and replays
    /// the whole log.
    ///
    /// `base` may be any backend. It is read (materialized with
    /// [`GraphStore::to_csr`], which becomes the handle's own copy) only
    /// on a fresh dir or on that fallback; a recovery that loads a
    /// snapshot never touches it.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the dir cannot be created or the log/seed
    /// snapshot cannot be written, and [`StoreError::Corrupt`] when
    /// `base` is needed and a section of it fails to load — corrupt
    /// *existing* state is handled (reported, fallen back from), not
    /// returned.
    pub fn open(
        dir: &Path,
        base: &dyn GraphStore,
        config: &[u8],
        opts: DurabilityOptions,
    ) -> Result<(Durability, Option<RecoveredState>, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir)?;
        let snapshots = SnapshotStore::new(dir, opts.retain);
        let (loaded, skipped) = snapshots.load_latest()?;
        let LogOpen {
            mut log,
            frames,
            tail,
        } = Commitlog::open(&dir.join(crate::log::LOG_FILE), opts.fsync)?;

        let (tail_truncated_bytes, tail_error) = match tail {
            Some(TornTail {
                dropped_bytes,
                error,
            }) => (dropped_bytes, Some(error)),
            None => (0, None),
        };

        let had_prior_state = loaded.is_some() || !frames.is_empty() || !skipped.is_empty();
        let (graph, covers_seq, snapshot_seq, recovered_config) = match loaded {
            Some((g, SnapshotMeta { covers_seq, config })) => {
                (g, covers_seq, Some(covers_seq), config)
            }
            // No loadable snapshot: fall back to the caller's base and
            // replay the whole log.
            None => {
                let graph = base.to_csr();
                base.check_fault()
                    .map_err(|e| StoreError::Corrupt(format!("base graph: {e}")))?;
                (graph, 0, None, Vec::new())
            }
        };
        // Every logged frame is older than the snapshot (the log was
        // trimmed empty, or a torn tail took the newer frames): new frames
        // must number past the snapshot, or the next recovery skips them.
        if log.next_seq() < covers_seq {
            log.trim_below(covers_seq)?;
        }

        let replay: Vec<GraphDelta> = frames
            .into_iter()
            .filter(|&(seq, _)| seq >= covers_seq)
            .map(|(_, delta)| delta)
            .collect();

        let report = RecoveryReport {
            snapshot_seq,
            snapshots_skipped: skipped,
            frames_replayed: replay.len(),
            tail_truncated_bytes,
            tail_error,
        };

        let mut pending = GraphDelta::new();
        for delta in &replay {
            fold_into(&mut pending, delta);
        }

        let mut durable = Durability {
            log,
            snapshots,
            pending_frames: replay.len(),
            pending,
            config: config.to_vec(),
            opts,
            stats: DurabilityStats::default(),
            graph,
        };

        if had_prior_state {
            durable.stats.recovery = Some(report.clone());
            let recovered = RecoveredState {
                graph: durable.graph.clone(),
                replay,
                config: recovered_config,
            };
            Ok((durable, Some(recovered), report))
        } else {
            // Fresh dir: publish the seed snapshot so future recoveries
            // never need the original graph file.
            durable.checkpoint()?;
            Ok((durable, None, report))
        }
    }

    /// Write-ahead-logs one delta (fsync per policy) and, at the
    /// snapshot cadence, publishes a checkpoint. Call *before* applying
    /// the delta to the serving state.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the append or checkpoint hits an I/O
    /// failure — the delta must then be considered not applied.
    pub fn record(&mut self, delta: &GraphDelta) -> Result<u64, StoreError> {
        let started = Instant::now();
        let before = self.log.len_bytes();
        let seq = self.log.append(delta)?;
        self.stats.log_wall_seconds += started.elapsed().as_secs_f64();
        self.stats.logged_deltas += 1;
        self.stats.logged_bytes += self.log.len_bytes() - before;
        self.stats.fsyncs = self.log.fsyncs();
        fold_into(&mut self.pending, delta);
        self.pending_frames += 1;
        if self.opts.snapshot_every > 0 && self.pending_frames >= self.opts.snapshot_every {
            self.checkpoint()?;
        }
        Ok(seq)
    }

    /// Folds the pending deltas into Durability's graph copy and
    /// publishes a snapshot now, regardless of cadence; prunes old
    /// snapshots and trims the log below the oldest retained one.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on serialization or filesystem failures.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let started = Instant::now();
        // Everything logged so far is on disk before the snapshot that
        // supersedes it (matters under the batch fsync policy).
        self.log.sync()?;
        if !self.pending.is_empty() {
            // Consuming compact: the old adjacency is moved into the
            // rebuild instead of cloned next to it, so checkpointing a
            // 100M-edge graph never transiently doubles memory.
            let graph = std::mem::replace(&mut self.graph, CsrGraph::from_edges(0, &[]));
            self.graph = graph.compact_owned(&self.pending);
            self.pending = GraphDelta::new();
        }
        self.pending_frames = 0;
        let covers_seq = self.log.next_seq();
        self.snapshots
            .write(&self.graph, covers_seq, &self.config)?;
        self.stats.snapshots_written += 1;
        if let Some(oldest_retained) = self.snapshots.prune()? {
            self.log.trim_below(oldest_retained)?;
        }
        self.stats.fsyncs = self.log.fsyncs();
        self.stats.snapshot_wall_seconds += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Forces the log to disk (a no-op under [`FsyncPolicy::Always`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()?;
        self.stats.fsyncs = self.log.fsyncs();
        Ok(())
    }

    /// The sequence number the next recorded delta will carry.
    pub fn next_seq(&self) -> u64 {
        self.log.next_seq()
    }

    /// Accumulated counters (including the recovery report, when this
    /// handle came from a recovery).
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }

    /// The data dir this handle persists into.
    pub fn data_dir(&self) -> &Path {
        self.snapshots.dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_graph::{io, GraphBuilder};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snaple-recover-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn base_graph() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn graph_bytes(g: &CsrGraph) -> Vec<u8> {
        let mut out = Vec::new();
        io::write_binary(g, &mut out).expect("encode");
        out
    }

    fn delta(i: u32) -> GraphDelta {
        let mut d = GraphDelta::new();
        d.insert(i % 5, 4 + i).remove(i % 5, (i + 1) % 5);
        d
    }

    #[test]
    fn fresh_open_seeds_a_snapshot() {
        let dir = tmp_dir("fresh");
        let base = base_graph();
        let (durable, recovered, report) =
            Durability::open(&dir, &base, b"cfg", DurabilityOptions::default()).expect("open");
        assert!(recovered.is_none());
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(durable.stats().snapshots_written, 1);
        // The seed snapshot alone is enough to recover from — even
        // with a *different* base passed on reopen.
        let other = CsrGraph::from_edges(2, &[(0, 1)]);
        let (_d2, recovered, report) =
            Durability::open(&dir, &other, b"cfg", DurabilityOptions::default()).expect("reopen");
        let rec = recovered.expect("recovers");
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(graph_bytes(&rec.graph), graph_bytes(&base));
        assert_eq!(rec.config, b"cfg");
        assert!(rec.replay.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_an_emptied_log_resume_past_the_snapshot() {
        // With one retained snapshot a checkpoint trims the whole log, so
        // a reopened log has no frame to take its next seq from. New
        // frames must still number past the snapshot, or the next
        // recovery skips them as already covered.
        let dir = tmp_dir("resume-seq");
        let base = base_graph();
        let opts = DurabilityOptions::default().snapshot_every(2).retain(1);
        let mut oracle = base.clone();
        let mut next = 0;
        // Two records reach the cadence and empty the log; one more is
        // then the only frame; the last open checks both survived.
        for (round, records) in [2, 1, 0].into_iter().enumerate() {
            let (mut durable, recovered, _) =
                Durability::open(&dir, &base, b"cfg", opts.clone()).expect("open");
            if let Some(rec) = recovered {
                let mut restored = rec.graph;
                for d in &rec.replay {
                    restored = restored.compact(d);
                }
                assert_eq!(
                    graph_bytes(&restored),
                    graph_bytes(&oracle),
                    "round {round}"
                );
            }
            for _ in 0..records {
                durable.record(&delta(next)).expect("record");
                oracle = oracle.compact(&delta(next));
                next += 1;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concatenated_pending_compacts_like_sequential_deltas() {
        // The correctness keystone of snapshotting at cadence K > 1:
        // compacting one accumulated delta must equal compacting each
        // delta in sequence (last-wins over the concatenated op list).
        let base = base_graph();
        let deltas: Vec<GraphDelta> = (0..8).map(delta).collect();
        let mut sequential = base.clone();
        for d in &deltas {
            sequential = sequential.compact(d);
        }
        let mut folded = GraphDelta::new();
        for d in &deltas {
            fold_into(&mut folded, d);
        }
        let concatenated = base.compact(&folded);
        assert_eq!(graph_bytes(&sequential), graph_bytes(&concatenated));
    }

    #[test]
    fn record_snapshots_at_cadence_and_recovery_replays_the_tail() {
        let dir = tmp_dir("cadence");
        let base = base_graph();
        let opts = DurabilityOptions::default().snapshot_every(3).retain(2);
        let (mut durable, _, _) =
            Durability::open(&dir, &base, b"cfg", opts.clone()).expect("open");

        // 7 deltas: snapshots after #3 and #6, one frame in the tail.
        let mut oracle = base.clone();
        for i in 0..7 {
            durable.record(&delta(i)).expect("record");
            oracle = oracle.compact(&delta(i));
        }
        assert_eq!(durable.stats().snapshots_written, 3); // seed + 2 cadence
        assert_eq!(durable.stats().logged_deltas, 7);
        drop(durable);

        let (_d2, recovered, report) = Durability::open(&dir, &base, b"cfg", opts).expect("reopen");
        let rec = recovered.expect("recovers");
        assert_eq!(report.snapshot_seq, Some(6));
        assert_eq!(report.frames_replayed, 1);
        assert!(!report.repaired());
        // Snapshot graph + replay tail == the never-crashed state.
        let mut restored = rec.graph;
        for d in &rec.replay {
            restored = restored.compact(d);
        }
        assert_eq!(graph_bytes(&restored), graph_bytes(&oracle));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_with_longer_replay() {
        let dir = tmp_dir("fallback");
        let base = base_graph();
        let opts = DurabilityOptions::default().snapshot_every(2).retain(3);
        let (mut durable, _, _) =
            Durability::open(&dir, &base, b"cfg", opts.clone()).expect("open");
        let mut oracle = base.clone();
        for i in 0..4 {
            durable.record(&delta(i)).expect("record");
            oracle = oracle.compact(&delta(i));
        }
        drop(durable);

        // Corrupt the newest snapshot (covers_seq = 4).
        let snaps = SnapshotStore::new(&dir, 3).list().expect("list");
        let (&(newest_seq, ref newest_path), rest) = snaps.split_last().expect("snapshots");
        assert_eq!(newest_seq, 4);
        assert!(!rest.is_empty());
        let mut bytes = std::fs::read(newest_path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(newest_path, &bytes).expect("corrupt");

        let (_d2, recovered, report) = Durability::open(&dir, &base, b"cfg", opts).expect("reopen");
        let rec = recovered.expect("recovers");
        assert_eq!(
            report.snapshot_seq,
            Some(2),
            "fell back to the older snapshot"
        );
        assert_eq!(report.snapshots_skipped.len(), 1);
        assert_eq!(report.frames_replayed, 2, "longer replay covers the gap");
        assert!(report.repaired());
        let mut restored = rec.graph;
        for d in &rec.replay {
            restored = restored.compact(d);
        }
        assert_eq!(graph_bytes(&restored), graph_bytes(&oracle));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_snapshots_corrupt_falls_back_to_base_and_full_log() {
        let dir = tmp_dir("allcorrupt");
        let base = base_graph();
        // Never snapshot periodically: only the seed snapshot exists.
        let opts = DurabilityOptions::default().snapshot_every(0);
        let (mut durable, _, _) =
            Durability::open(&dir, &base, b"cfg", opts.clone()).expect("open");
        let mut oracle = base.clone();
        for i in 0..5 {
            durable.record(&delta(i)).expect("record");
            oracle = oracle.compact(&delta(i));
        }
        drop(durable);
        for (_, path) in SnapshotStore::new(&dir, 2).list().expect("list") {
            std::fs::write(&path, b"garbage").expect("corrupt");
        }

        let (_d2, recovered, report) = Durability::open(&dir, &base, b"cfg", opts).expect("reopen");
        let rec = recovered.expect("recovers");
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(report.snapshots_skipped.len(), 1);
        assert_eq!(report.frames_replayed, 5);
        let mut restored = rec.graph;
        for d in &rec.replay {
            restored = restored.compact(d);
        }
        assert_eq!(graph_bytes(&restored), graph_bytes(&oracle));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The base is read only when recovery needs it: a dir with a valid
    /// snapshot recovers over a base file whose out-targets fail their
    /// checksum, while a fresh dir seeded from that file is refused.
    #[test]
    fn a_corrupt_base_file_fails_only_the_opens_that_read_it() {
        use snaple_graph::v2;
        let dir = tmp_dir("corruptbase");
        let base = base_graph();
        let opts = DurabilityOptions::default().snapshot_every(0);
        let (mut durable, _, _) =
            Durability::open(&dir, &base, b"cfg", opts.clone()).expect("open");
        durable.record(&delta(1)).expect("record");
        drop(durable);

        let mut bytes = graph_bytes(&base);
        let header = v2::parse_header(&bytes, bytes.len() as u64).expect("header");
        let at = header.section(v2::SEC_OUT_TARGETS).expect("section").offset as usize + 1;
        bytes[at] ^= 0xff;
        let path = dir.with_extension("snplg");
        std::fs::write(&path, &bytes).expect("write");
        let corrupt = v2::FileCsr::open(&path).expect("open reads the prelude only");
        std::fs::remove_file(&path).ok();

        let (_d2, recovered, report) =
            Durability::open(&dir, &corrupt, b"cfg", opts.clone()).expect("reopen");
        let rec = recovered.expect("recovers");
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(graph_bytes(&rec.graph), graph_bytes(&base));
        assert_eq!(rec.replay.len(), 1);
        assert!(corrupt.check_fault().is_ok(), "the base was never read");

        let fresh = tmp_dir("corruptbase-fresh");
        let err = Durability::open(&fresh, &corrupt, b"cfg", opts).expect_err("fresh seed");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }

    #[test]
    fn retention_prunes_snapshots_and_trims_the_log() {
        let dir = tmp_dir("retention");
        let base = base_graph();
        let opts = DurabilityOptions::default().snapshot_every(2).retain(2);
        let (mut durable, _, _) =
            Durability::open(&dir, &base, b"cfg", opts.clone()).expect("open");
        let mut oracle = base.clone();
        for i in 0..10 {
            durable.record(&delta(i)).expect("record");
            oracle = oracle.compact(&delta(i));
        }
        drop(durable);

        let snaps = SnapshotStore::new(&dir, 2).list().expect("list");
        assert_eq!(snaps.len(), 2, "retention keeps 2 snapshots");
        // The log was trimmed below the oldest retained snapshot.
        let log = Commitlog::open(&dir.join(crate::log::LOG_FILE), FsyncPolicy::Always)
            .expect("open log");
        let oldest_retained = snaps.first().expect("non-empty").0;
        assert!(log.frames.iter().all(|&(seq, _)| seq >= oldest_retained));

        let (_d2, recovered, _) = Durability::open(&dir, &base, b"cfg", opts).expect("reopen");
        let rec = recovered.expect("recovers");
        let mut restored = rec.graph;
        for d in &rec.replay {
            restored = restored.compact(d);
        }
        assert_eq!(graph_bytes(&restored), graph_bytes(&oracle));
        std::fs::remove_dir_all(&dir).ok();
    }
}
