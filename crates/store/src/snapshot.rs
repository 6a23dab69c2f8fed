//! Versioned, checksummed graph checkpoints with atomic publication.
//!
//! A snapshot freezes the compacted graph plus the serve config at a
//! log position:
//!
//! ```text
//! offset  0  magic      "SNPLSNAP"            8 B
//!         8  version    u32 LE                 (currently 1)
//!        12  flags      u32 LE                 (reserved, 0)
//!        16  covers_seq u64 LE                 first log seq NOT covered
//!        24  config_len u64 LE
//!        32  graph_len  u64 LE
//!        40  reserved   24 B                   (zero)
//!        64  config     config_len B
//!         …  padding    to an 8-byte boundary
//!         …  graph      graph_len B            snaple_graph::io binary
//!       end  crc32      u32 LE                 over every prior byte
//! ```
//!
//! # The graph section *is* the serving layout
//!
//! Since the `SNPLG2` rebase the embedded graph section is a verbatim
//! raw-flavor `SNPLG2` file (the on-disk CSR format of
//! [`snaple_graph::v2`]): checkpointing **streams** the CSR arrays to
//! disk through [`snaple_graph::v2::write_v2`] — its size is known up
//! front via [`snaple_graph::v2::encoded_len`], so nothing is buffered
//! beyond a 64 KiB chunk — and recovery decodes the same arrays back
//! with no per-edge re-encode. Snapshots written by older builds embed
//! a `SNPLG1` section instead; [`SnapshotStore::load`] auto-detects the
//! magic and reads both.
//!
//! Publication is atomic: the snapshot is written and fsync'd as
//! `*.tmp`, then renamed into place (`snapshot-<covers_seq>.snap`), so
//! a reader never observes a half-written file under the published
//! name — a crash mid-write leaves only a `*.tmp` that the next
//! [`SnapshotStore::prune`] sweeps away. Validation re-checks magic,
//! version, lengths and the trailing CRC-32 before trusting a byte, so
//! a corrupted snapshot is a typed [`StoreError`], never a panic —
//! recovery then falls back to the next older snapshot.

use std::fs::File;
use std::path::{Path, PathBuf};

use snaple_graph::codec::crc32;
use snaple_graph::{io, v2, CsrGraph, GraphStore};

use crate::StoreError;

/// Forwards writes while chaining a CRC-32 over every byte — what lets
/// [`SnapshotStore::write`] stream the graph section straight to the
/// file and still emit the trailing whole-file checksum.
struct CrcWriter<W> {
    inner: W,
    crc: u32,
    written: u64,
}

impl<W: std::io::Write> std::io::Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        // snaple-lint: allow(index) — n is the count the writer just accepted, so n <= buf.len()
        self.crc = crc32(self.crc, &buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The eight magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SNPLSNAP";

/// The current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Fixed header size; the config section starts here.
pub const HEADER_LEN: usize = 64;

/// Everything a snapshot carries besides the graph itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The first commitlog sequence number this snapshot does *not*
    /// cover: recovery replays frames with `seq >= covers_seq`.
    pub covers_seq: u64,
    /// The serve configuration blob, verbatim.
    pub config: Vec<u8>,
}

/// Writes, lists, validates and prunes the `snapshot-*.snap` files of a
/// data dir. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    retain: usize,
}

fn snapshot_name(covers_seq: u64) -> String {
    format!("snapshot-{covers_seq:020}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    digits.parse().ok()
}

impl SnapshotStore {
    /// A store over `dir` retaining the newest `retain` snapshots
    /// (minimum 1).
    pub fn new(dir: &Path, retain: usize) -> SnapshotStore {
        SnapshotStore {
            dir: dir.to_path_buf(),
            retain: retain.max(1),
        }
    }

    /// All published snapshots, sorted by ascending `covers_seq`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, StoreError> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(seq) = name.to_str().and_then(parse_snapshot_name) {
                found.push((seq, entry.path()));
            }
        }
        found.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(found)
    }

    /// Serializes and atomically publishes a snapshot covering log
    /// frames `< covers_seq`. Returns the published path.
    ///
    /// The graph section is streamed through
    /// [`snaple_graph::v2::write_v2`] in bounded chunks — a checkpoint
    /// never materializes a second copy of the adjacency in memory, so
    /// a 100M-edge snapshot costs the graph itself plus a 64 KiB
    /// buffer, not 3× the graph.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::Corrupt`]
    /// when the graph fails to serialize.
    pub fn write(
        &self,
        graph: &dyn GraphStore,
        covers_seq: u64,
        config: &[u8],
    ) -> Result<PathBuf, StoreError> {
        // The raw SNPLG2 size is exact and known up front, which is
        // what allows the header to precede the streamed section.
        let graph_len = v2::encoded_len(graph);
        let config_end = HEADER_LEN + config.len();
        let graph_start = config_end.div_ceil(8) * 8; // 8-byte-aligned graph section

        let mut head = Vec::with_capacity(graph_start);
        head.extend_from_slice(&SNAPSHOT_MAGIC);
        head.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes()); // flags
        head.extend_from_slice(&covers_seq.to_le_bytes());
        head.extend_from_slice(&(config.len() as u64).to_le_bytes());
        head.extend_from_slice(&graph_len.to_le_bytes());
        head.resize(HEADER_LEN, 0); // reserved
        head.extend_from_slice(config);
        head.resize(graph_start, 0); // alignment padding

        let path = self.dir.join(snapshot_name(covers_seq));
        let tmp = self.dir.join(format!("{}.tmp", snapshot_name(covers_seq)));
        {
            use std::io::Write as _;
            let mut out = CrcWriter {
                inner: File::create(&tmp)?,
                crc: 0,
                written: 0,
            };
            out.write_all(&head)?;
            v2::write_v2(graph, &mut out)
                .map_err(|e| StoreError::Corrupt(format!("snapshot graph encode: {e}")))?;
            if out.written != graph_start as u64 + graph_len {
                return Err(StoreError::Corrupt(format!(
                    "snapshot graph encode: wrote {} bytes where the header \
                     promised {graph_len}",
                    out.written - graph_start as u64
                )));
            }
            let crc = out.crc;
            let mut file = out.inner;
            file.write_all(&crc.to_le_bytes())?;
            file.sync_data()?;
        }
        crate::rename_durably(&tmp, &path)?;
        Ok(path)
    }

    /// Loads and fully validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read;
    /// [`StoreError::Corrupt`] on any structural or checksum failure.
    pub fn load(path: &Path) -> Result<(CsrGraph, SnapshotMeta), StoreError> {
        let bytes = std::fs::read(path)?;
        let name = path.display();
        if bytes.len() < HEADER_LEN + 4 {
            return Err(StoreError::Corrupt(format!("{name}: too short")));
        }
        let Some((body, crc_bytes)) = bytes.split_last_chunk::<4>() else {
            return Err(StoreError::Corrupt(format!("{name}: too short")));
        };
        let expected = u32::from_le_bytes(*crc_bytes);
        let computed = crc32(0, body);
        if expected != computed {
            return Err(StoreError::Corrupt(format!(
                "{name}: checksum mismatch (file says {expected:#010x}, computed {computed:#010x})"
            )));
        }
        let magic = body.get(..8);
        if magic != Some(SNAPSHOT_MAGIC.as_slice()) {
            return Err(StoreError::Corrupt(format!("{name}: bad magic")));
        }
        let field_u32 = |at: usize| -> Option<u32> {
            body.get(at..at + 4)
                .and_then(|b| b.try_into().ok())
                .map(u32::from_le_bytes)
        };
        let field_u64 = |at: usize| -> Option<u64> {
            body.get(at..at + 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
        };
        let version = field_u32(8);
        if version != Some(SNAPSHOT_VERSION) {
            return Err(StoreError::Corrupt(format!(
                "{name}: unsupported version {version:?}"
            )));
        }
        let (Some(covers_seq), Some(config_len), Some(graph_len)) =
            (field_u64(16), field_u64(24), field_u64(32))
        else {
            return Err(StoreError::Corrupt(format!("{name}: truncated header")));
        };
        let config_end = (HEADER_LEN as u64).saturating_add(config_len);
        let graph_start = config_end.div_ceil(8) * 8;
        let graph_end = graph_start.saturating_add(graph_len);
        if graph_end != body.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "{name}: section lengths disagree with file size"
            )));
        }
        let Some(config) = body.get(HEADER_LEN..config_end as usize) else {
            return Err(StoreError::Corrupt(format!("{name}: truncated config")));
        };
        let Some(graph_blob) = body.get(graph_start as usize..graph_end as usize) else {
            return Err(StoreError::Corrupt(format!("{name}: truncated graph")));
        };
        let graph = io::read_binary(graph_blob)
            .map_err(|e| StoreError::Corrupt(format!("{name}: graph decode: {e}")))?;
        Ok((
            graph,
            SnapshotMeta {
                covers_seq,
                config: config.to_vec(),
            },
        ))
    }

    /// Loads the newest snapshot that validates, walking older ones on
    /// failure. Returns the loaded state plus the `(path, error)` of
    /// every newer snapshot that was skipped; `None` when no snapshot
    /// loads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be listed (missing
    /// dir counts as empty, not an error).
    #[allow(clippy::type_complexity)]
    pub fn load_latest(
        &self,
    ) -> Result<(Option<(CsrGraph, SnapshotMeta)>, Vec<(PathBuf, StoreError)>), StoreError> {
        let listed = match self.list() {
            Ok(l) => l,
            Err(StoreError::Io(_)) if !self.dir.exists() => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut skipped = Vec::new();
        for (_, path) in listed.into_iter().rev() {
            match Self::load(&path) {
                Ok(loaded) => return Ok((Some(loaded), skipped)),
                Err(e) => skipped.push((path, e)),
            }
        }
        Ok((None, skipped))
    }

    /// Deletes all but the newest `retain` snapshots and every stale
    /// `*.tmp` left by a crash mid-write. Returns the smallest retained
    /// `covers_seq` (`None` when no snapshot remains).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be listed; removal
    /// failures of individual files are ignored (they will be retried
    /// on the next prune).
    pub fn prune(&self) -> Result<Option<u64>, StoreError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".snap.tmp") {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        let listed = self.list()?;
        let drop_count = listed.len().saturating_sub(self.retain);
        for (_, path) in listed.iter().take(drop_count) {
            std::fs::remove_file(path).ok();
        }
        Ok(listed.get(drop_count).map(|&(seq, _)| seq))
    }

    /// The data dir this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_graph::GraphBuilder;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snaple-snap-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn graph(extra: u32) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, extra.max(3));
        b.build()
    }

    fn graph_bytes(g: &CsrGraph) -> Vec<u8> {
        let mut out = Vec::new();
        io::write_binary(g, &mut out).expect("encode");
        out
    }

    #[test]
    fn write_then_load_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let store = SnapshotStore::new(&dir, 2);
        let g = graph(5);
        let path = store.write(&g, 42, b"cfg").expect("write");
        let (loaded, meta) = SnapshotStore::load(&path).expect("load");
        assert_eq!(meta.covers_seq, 42);
        assert_eq!(meta.config, b"cfg");
        assert_eq!(graph_bytes(&loaded), graph_bytes(&g));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_section_is_aligned() {
        let dir = tmp_dir("align");
        let store = SnapshotStore::new(&dir, 2);
        for config in [&b""[..], b"x", b"seven b", b"eight by", b"longer config!!"] {
            let path = store.write(&graph(4), 1, config).expect("write");
            let bytes = std::fs::read(&path).expect("read");
            let config_end = HEADER_LEN + config.len();
            let graph_start = config_end.div_ceil(8) * 8;
            assert_eq!(graph_start % 8, 0);
            // The graph section must be a verbatim SNPLG2 file.
            assert_eq!(&bytes[graph_start..graph_start + 6], b"SNPLG2");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_with_v1_graph_sections_still_load() {
        // Snapshots written before the SNPLG2 rebase embed a SNPLG1
        // graph section; hand-assemble one and require `load` to read
        // it via the auto-detecting binary reader.
        let dir = tmp_dir("v1compat");
        let g = graph(6);
        let mut graph_blob = Vec::new();
        io::write_binary_v1(&g, &mut graph_blob).expect("v1 encode");
        let config = b"legacy-cfg";

        let config_end = HEADER_LEN + config.len();
        let graph_start = config_end.div_ceil(8) * 8;
        let mut buf = Vec::with_capacity(graph_start + graph_blob.len() + 4);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&17u64.to_le_bytes());
        buf.extend_from_slice(&(config.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(graph_blob.len() as u64).to_le_bytes());
        buf.resize(HEADER_LEN, 0);
        buf.extend_from_slice(config);
        buf.resize(graph_start, 0);
        buf.extend_from_slice(&graph_blob);
        let crc = crc32(0, &buf);
        buf.extend_from_slice(&crc.to_le_bytes());

        let path = dir.join("snapshot-00000000000000000017.snap");
        std::fs::write(&path, &buf).expect("write v1-era snapshot");

        let (loaded, meta) = SnapshotStore::load(&path).expect("load v1-era snapshot");
        assert_eq!(meta.covers_seq, 17);
        assert_eq!(meta.config, config);
        assert_eq!(graph_bytes(&loaded), graph_bytes(&g));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_corrupt_byte_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let store = SnapshotStore::new(&dir, 2);
        let path = store.write(&graph(9), 7, b"config").expect("write");
        let pristine = std::fs::read(&path).expect("read");
        for pos in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).expect("write corrupt");
            let err = SnapshotStore::load(&path).expect_err("corruption must fail");
            assert!(matches!(err, StoreError::Corrupt(_)), "pos {pos}: {err:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_falls_back_over_corrupt_newest() {
        let dir = tmp_dir("fallback");
        let store = SnapshotStore::new(&dir, 3);
        store.write(&graph(3), 10, b"old").expect("write old");
        let newest = store.write(&graph(8), 20, b"new").expect("write new");
        // Corrupt the newest snapshot's graph section.
        let mut bytes = std::fs::read(&newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).expect("write corrupt");

        let (loaded, skipped) = store.load_latest().expect("load_latest");
        let (g, meta) = loaded.expect("older snapshot loads");
        assert_eq!(meta.covers_seq, 10);
        assert_eq!(meta.config, b"old");
        assert_eq!(graph_bytes(&g), graph_bytes(&graph(3)));
        assert_eq!(skipped.len(), 1);
        assert!(matches!(skipped[0].1, StoreError::Corrupt(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_retains_newest_and_sweeps_tmp_files() {
        let dir = tmp_dir("prune");
        let store = SnapshotStore::new(&dir, 2);
        for seq in [1u64, 2, 3, 4] {
            store.write(&graph(3), seq, b"c").expect("write");
        }
        // A crash mid-snapshot leaves a tmp file behind.
        std::fs::write(
            dir.join("snapshot-00000000000000000009.snap.tmp"),
            b"partial",
        )
        .expect("write tmp");
        let oldest = store.prune().expect("prune");
        assert_eq!(oldest, Some(3));
        let listed = store.list().expect("list");
        assert_eq!(
            listed.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(!dir.join("snapshot-00000000000000000009.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
