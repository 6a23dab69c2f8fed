#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Durability for restartable serving: a delta commitlog, a snapshot
//! store, and crash recovery that stitches the two back together.
//!
//! Serving without this crate is ephemeral — a restart loses the graph,
//! every applied [`GraphDelta`](snaple_graph::GraphDelta), and all
//! stats. `snaple-store` gives a serving process a `--data-dir`:
//!
//! * [`log`] — an append-only **commitlog**. Every applied delta is one
//!   fsync'd, length-prefixed, CRC-32-checksummed
//!   [`snaple_graph::codec`] frame (the same frame reader, writer and
//!   delta encoding as the shard wire protocol). A torn or truncated
//!   tail — the signature of a crash mid-write — is detected on open and
//!   cleanly truncated away, never panicking.
//! * [`snapshot`] — versioned, checksummed binary checkpoints of the
//!   compacted graph plus the serve config, written after every K
//!   logged deltas and published atomically (tmp + rename). The last N
//!   snapshots are retained so a corrupt newest checkpoint falls back
//!   to an older one. The graph section is a verbatim raw
//!   [`snaple_graph::v2`] (`SNPLG2`) file — checkpoint **is** the
//!   serving layout, streamed out in bounded chunks, and recovery is an
//!   open with no per-edge re-encode; snapshots from pre-`SNPLG2`
//!   builds remain readable.
//! * [`recover`] — the [`Durability`] handle tying both together.
//!   Opening a data dir loads the newest *valid* snapshot and replays
//!   the log tail, reconstructing a state bit-identical to a server
//!   that never crashed (property-tested, including kill-at-random-
//!   byte and kill-mid-snapshot simulations).
//!
//! # Quickstart
//!
//! ```
//! use snaple_graph::{GraphBuilder, GraphDelta};
//! use snaple_store::{Durability, DurabilityOptions};
//!
//! let dir = std::env::temp_dir().join("snaple-store-doc");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! let base = b.build();
//!
//! // First open: seeds the dir with a snapshot of the base graph.
//! let opts = DurabilityOptions::default().snapshot_every(2);
//! let (mut durable, recovered, _report) =
//!     Durability::open(&dir, &base, b"config-v1", opts.clone())?;
//! assert!(recovered.is_none(), "fresh dir: nothing to recover");
//!
//! let mut delta = GraphDelta::new();
//! delta.insert(0, 2);
//! durable.record(&delta)?; // logged (and fsync'd) before it is served
//!
//! // ... process crashes here; on restart:
//! let (_durable2, recovered, report) =
//!     Durability::open(&dir, &base, b"config-v1", opts)?;
//! let recovered = recovered.expect("prior state recovered");
//! assert_eq!(report.frames_replayed, 1);
//! assert_eq!(recovered.replay.len(), 1); // replay through apply_update
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), snaple_store::StoreError>(())
//! ```
//!
//! The serving integration lives in `snaple-core`
//! (`serve::Server::attach_durability`,
//! `concurrent::ConcurrentServer::run_prepared_durable`) and behind
//! `snaple-cli serve --data-dir DIR`; a server without a data dir pays
//! zero overhead.

use std::error::Error as StdError;
use std::fmt;
use std::path::Path;

pub mod log;
pub mod recover;
pub mod snapshot;

pub use crate::log::{Commitlog, FsyncPolicy, LogOpen, TornTail};
pub use crate::recover::{
    Durability, DurabilityOptions, DurabilityStats, RecoveredState, RecoveryReport,
};
pub use crate::snapshot::{SnapshotMeta, SnapshotStore};

/// Everything that can go wrong in the store. Every variant is a typed,
/// non-panicking error; recovery folds the errors it *handled* (torn
/// tails, corrupt snapshots it fell back from) into a
/// [`RecoveryReport`] instead of returning them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying I/O failure (message of the `std::io::Error`).
    Io(String),
    /// Structural corruption: bad magic, unsupported version, a lying
    /// length, a checksum mismatch, or a malformed payload. The message
    /// names the file and field.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store i/o error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
        }
    }
}

impl StdError for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Renames `tmp` over `path`, then fsyncs the parent directory so the
/// rename itself survives a crash: without the directory sync the old
/// inode can come back, taking everything written to the new one with
/// it.
fn rename_durably(tmp: &Path, path: &Path) -> Result<(), StoreError> {
    std::fs::rename(tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    // A platform that cannot open a directory has no directory fsync to
    // issue; a failed fsync is an error like any other.
    if let Ok(dir) = std::fs::File::open(dir) {
        dir.sync_all()?;
    }
    Ok(())
}
