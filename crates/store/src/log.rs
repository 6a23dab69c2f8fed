//! The append-only delta commitlog.
//!
//! One [`snaple_graph::codec`] frame per applied [`GraphDelta`], tag
//! [`TAG_DELTA_FRAME`], payload `seq: u64` followed by the shared delta
//! encoding, so a logged delta is byte-identical to one sent to a shard.
//! The codec owns the magic, the length cap and the CRC; the log checks
//! only what is its own: the tag, a payload with no trailing bytes, and
//! monotone seq numbers. `seq` is the frame's sequence number;
//! snapshots record the first seq they do *not* cover, so recovery
//! replays exactly the frames a snapshot misses.
//!
//! # Crash safety
//!
//! A crash mid-append leaves a torn tail: a partial frame, or a full
//! frame whose checksum does not match. [`Commitlog::open`] scans the
//! file frame by frame, stops at the first invalid byte, truncates the
//! file back to the last good frame boundary, and reports the typed
//! error plus the byte count dropped in a [`TornTail`] — it never
//! panics, and the next append continues from the clean boundary.
//!
//! Durability of an append is governed by [`FsyncPolicy`]: `Always`
//! fsyncs every frame (a crash loses at most the in-flight frame),
//! `Batch` fsyncs every [`BATCH_SYNC_EVERY`] frames and at every
//! snapshot (bounded loss window, much cheaper).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use snaple_graph::codec::{self, WireError};
use snaple_graph::GraphDelta;

use crate::StoreError;

/// The commitlog's file name inside a data dir.
pub const LOG_FILE: &str = "commitlog.bin";

/// The delta frame tag. Outside the shard protocol's request/reply tag
/// ranges so a log frame misrouted onto the wire (or vice versa) is an
/// immediate `UnknownTag`, not a confused decode.
pub const TAG_DELTA_FRAME: u8 = b'd';

/// Under [`FsyncPolicy::Batch`], fsync after this many appends.
pub const BATCH_SYNC_EVERY: usize = 32;

/// When the log must hit the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every appended frame: a crash loses at most the frame
    /// being written.
    Always,
    /// fsync every [`BATCH_SYNC_EVERY`] frames and at every snapshot:
    /// a crash can lose the unsynced window, recovery still restores a
    /// consistent prefix.
    Batch,
}

impl FsyncPolicy {
    /// Parses the `--fsync` CLI value (`"always"` or `"batch"`).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            _ => None,
        }
    }
}

/// What a crash left behind at the end of the log: the typed error the
/// first invalid frame produced and how many bytes were truncated away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Bytes dropped from the end of the file.
    pub dropped_bytes: u64,
    /// Why the tail failed to decode.
    pub error: StoreError,
}

/// The result of opening a commitlog: the writable log positioned after
/// the last good frame, every good frame's `(seq, delta)`, and the torn
/// tail (if any) that was truncated away.
#[derive(Debug)]
pub struct LogOpen {
    /// The log, ready to append.
    pub log: Commitlog,
    /// All valid frames, in file (= seq) order.
    pub frames: Vec<(u64, GraphDelta)>,
    /// Present when a torn/corrupt tail was detected and truncated.
    pub tail: Option<TornTail>,
}

/// The append-only, checksummed delta log. See the [module docs](self).
#[derive(Debug)]
pub struct Commitlog {
    file: File,
    path: PathBuf,
    next_seq: u64,
    len_bytes: u64,
    policy: FsyncPolicy,
    unsynced: usize,
    appended: u64,
    fsyncs: u64,
}

/// The good prefix of a log image: each frame's `(offset, seq, delta)`
/// in file order, where that prefix ends, and the typed error that
/// stopped the scan before the end of the bytes, if one did.
struct Scan {
    frames: Vec<(u64, u64, GraphDelta)>,
    good_len: u64,
    error: Option<StoreError>,
}

/// Reads one log frame off the front of `input`: a codec frame tagged
/// [`TAG_DELTA_FRAME`] whose payload is exactly `seq` and a delta.
fn read_log_frame(
    input: &mut &[u8],
    payload: &mut Vec<u8>,
) -> Result<(u64, GraphDelta), WireError> {
    let tag = codec::read_frame(input, payload)?;
    if tag != TAG_DELTA_FRAME {
        return Err(WireError::UnknownTag(tag));
    }
    let mut rest = payload.as_slice();
    let seq = codec::get_u64(&mut rest, "frame seq")?;
    let delta = codec::decode_delta(&mut rest)?;
    if !rest.is_empty() {
        return Err(WireError::Malformed("trailing frame payload bytes"));
    }
    Ok((seq, delta))
}

/// Scans `bytes` frame by frame until the end or the first invalid
/// frame.
fn scan_frames(bytes: &[u8]) -> Scan {
    let mut rest = bytes;
    let mut payload = Vec::new();
    let mut frames: Vec<(u64, u64, GraphDelta)> = Vec::new();
    loop {
        let good_len = (bytes.len() - rest.len()) as u64;
        let error = match read_log_frame(&mut rest, &mut payload) {
            Err(WireError::Closed) => None, // clean end on a frame boundary
            Err(e) => Some(StoreError::Corrupt(format!("commitlog frame: {e}"))),
            Ok((seq, _)) if frames.last().is_some_and(|f| seq != f.1.wrapping_add(1)) => Some(
                StoreError::Corrupt("commitlog frame: non-monotonic seq".into()),
            ),
            Ok((seq, delta)) => {
                frames.push((good_len, seq, delta));
                continue;
            }
        };
        return Scan {
            frames,
            good_len,
            error,
        };
    }
}

impl Commitlog {
    /// Opens (creating if absent) the commitlog at `path`, scanning and
    /// validating every frame. A torn or corrupt tail is truncated back
    /// to the last good frame boundary and reported — never an error,
    /// never a panic. The returned log appends after the good prefix.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened, read, or
    /// truncated.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<LogOpen, StoreError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let Scan {
            frames,
            good_len,
            error,
        } = scan_frames(&bytes);
        let next_seq = frames.last().map_or(0, |&(_, seq, _)| seq + 1);

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let tail = match error {
            Some(error) => {
                let dropped_bytes = (bytes.len() as u64).saturating_sub(good_len);
                file.set_len(good_len)?;
                file.sync_data()?;
                Some(TornTail {
                    dropped_bytes,
                    error,
                })
            }
            None => None,
        };
        file.seek(SeekFrom::Start(good_len))?;

        let frames = frames
            .into_iter()
            .map(|(_, seq, delta)| (seq, delta))
            .collect();
        Ok(LogOpen {
            log: Commitlog {
                file,
                path: path.to_path_buf(),
                next_seq,
                len_bytes: good_len,
                policy,
                unsynced: 0,
                appended: 0,
                fsyncs: 0,
            },
            frames,
            tail,
        })
    }

    /// Appends one delta as a checksummed frame and applies the fsync
    /// policy. Returns the frame's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write or fsync fails; the log then
    /// ends on whatever the OS kept, which the next open's tail scan
    /// cleans up.
    pub fn append(&mut self, delta: &GraphDelta) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(12 + delta.len() * codec::OP_BYTES);
        codec::put_u64(&mut payload, seq);
        codec::encode_delta(&mut payload, delta);
        let frame = codec::encode_frame(TAG_DELTA_FRAME, &payload)
            .map_err(|e| StoreError::Corrupt(format!("commitlog append: {e}")))?;

        self.file.write_all(&frame)?;
        self.next_seq = seq + 1;
        self.len_bytes += frame.len() as u64;
        self.appended += 1;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch => {
                if self.unsynced >= BATCH_SYNC_EVERY {
                    self.sync()?;
                }
            }
        }
        Ok(seq)
    }

    /// Forces everything appended so far to disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Drops every frame with `seq < keep_from` by rewriting the log
    /// (tmp + rename), called after snapshot retention pruning so the
    /// log never outgrows what the oldest retained snapshot needs. The
    /// next appended frame is numbered at least `keep_from`, even when
    /// no frame is left to number it from.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn trim_below(&mut self, keep_from: u64) -> Result<(), StoreError> {
        self.next_seq = self.next_seq.max(keep_from);
        self.sync()?;
        let bytes = std::fs::read(&self.path)?;
        let keep_offset = scan_frames(&bytes)
            .frames
            .iter()
            .find(|&&(_, seq, _)| seq >= keep_from)
            .map_or(bytes.len() as u64, |&(offset, _, _)| offset);
        if keep_offset == 0 {
            return Ok(()); // nothing to trim
        }
        let tmp = self.path.with_extension("bin.tmp");
        {
            let mut out = File::create(&tmp)?;
            if let Some(kept) = bytes.get(keep_offset as usize..) {
                out.write_all(kept)?;
            }
            out.sync_data()?;
        }
        crate::rename_durably(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        let len = file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.len_bytes = len;
        self.unsynced = 0;
        Ok(())
    }

    /// The sequence number the next appended frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current log size in bytes (good frames only).
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Frames appended through this handle (not counting recovered
    /// ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// fsyncs issued through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snaple-log-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn delta(i: u32) -> GraphDelta {
        let mut d = GraphDelta::new();
        d.insert(i, i + 1)
            .insert_weighted(i + 1, i, 0.5)
            .remove(i, 7);
        d
    }

    #[test]
    fn appends_then_reopens_with_identical_frames() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(LOG_FILE);
        let mut log = Commitlog::open(&path, FsyncPolicy::Always)
            .expect("open")
            .log;
        for i in 0..5 {
            let seq = log.append(&delta(i)).expect("append");
            assert_eq!(seq, i as u64);
        }
        assert_eq!(log.fsyncs(), 5);

        let reopened = Commitlog::open(&path, FsyncPolicy::Always).expect("reopen");
        assert!(reopened.tail.is_none());
        assert_eq!(reopened.frames.len(), 5);
        assert_eq!(reopened.log.next_seq(), 5);
        for (i, (seq, d)) in reopened.frames.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(
                d.ops().collect::<Vec<_>>(),
                delta(i as u32).ops().collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_frame_golden_bytes() {
        // Pins the commitlog format byte for byte: existing data dirs must
        // keep recovering, so an appended frame must serialize to exactly
        // these bytes, and these bytes alone must reopen as a log.
        let dir = tmp_dir("golden");
        let path = dir.join(LOG_FILE);
        let mut golden = GraphDelta::new();
        golden.insert_weighted(1, 2, 1.5).remove(3, 4);
        let mut log = Commitlog::open(&path, FsyncPolicy::Always)
            .expect("open")
            .log;
        log.append(&delta(0)).expect("append seq 0");
        let start = log.len_bytes() as usize;
        assert_eq!(log.append(&golden).expect("append seq 1"), 1);
        let bytes = std::fs::read(&path).expect("read log");
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            b'S', b'L',                                     // magic
            b'd',                                           // TAG_DELTA_FRAME
            38, 0, 0, 0,                                    // payload len
            1, 0, 0, 0, 0, 0, 0, 0,                         // seq LE
            2, 0, 0, 0,                                     // op count
            1, 0, 0, 0,   2, 0, 0, 0,                       // u, v
            0x00, 0x00, 0xC0, 0x3F,                         // 1.5f32.to_bits()
            1,                                              // insert
            3, 0, 0, 0,   4, 0, 0, 0,                       // u, v
            0, 0, 0, 0,                                     // 0.0
            0,                                              // remove
            0x83, 0x53, 0x98, 0x88,                         // crc32 LE
        ];
        assert_eq!(&bytes[start..], expected.as_slice());

        std::fs::write(&path, &expected).expect("write golden frame");
        let reopened = Commitlog::open(&path, FsyncPolicy::Always).expect("reopen");
        assert!(reopened.tail.is_none());
        assert_eq!(reopened.log.next_seq(), 2);
        let [(seq, d)] = reopened.frames.as_slice() else {
            panic!("expected exactly one frame, got {}", reopened.frames.len());
        };
        assert_eq!(*seq, 1);
        assert_eq!(
            d.ops().collect::<Vec<_>>(),
            golden.ops().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_recovers_a_clean_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join(LOG_FILE);
        let mut boundaries = vec![0u64];
        {
            let mut log = Commitlog::open(&path, FsyncPolicy::Always)
                .expect("open")
                .log;
            for i in 0..4 {
                log.append(&delta(i)).expect("append");
                boundaries.push(log.len_bytes());
            }
        }
        let full = std::fs::read(&path).expect("read log");
        for cut in 0..full.len() as u64 {
            std::fs::write(&path, &full[..cut as usize]).expect("write cut");
            let opened = Commitlog::open(&path, FsyncPolicy::Always).expect("open cut");
            let expect_frames = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(opened.frames.len(), expect_frames, "cut at {cut}");
            if boundaries.contains(&cut) {
                assert!(opened.tail.is_none(), "cut at {cut} is a clean boundary");
            } else {
                let tail = opened.tail.expect("mid-frame cut must report a torn tail");
                assert!(tail.dropped_bytes > 0);
            }
            // The file was truncated back to the last good boundary...
            let healed = std::fs::metadata(&path).expect("metadata").len();
            assert_eq!(
                healed,
                boundaries
                    .iter()
                    .filter(|&&b| b <= cut)
                    .max()
                    .copied()
                    .unwrap_or(0)
            );
            // ...and appending continues from there.
            let mut log = opened.log;
            let next = log.append(&delta(9)).expect("append after heal");
            assert_eq!(next, expect_frames as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_truncates_from_that_frame_on() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(LOG_FILE);
        let second_frame_start = {
            let mut log = Commitlog::open(&path, FsyncPolicy::Batch)
                .expect("open")
                .log;
            log.append(&delta(0)).expect("append");
            let start = log.len_bytes() as usize;
            log.append(&delta(1)).expect("append");
            log.append(&delta(2)).expect("append");
            log.sync().expect("sync");
            start
        };
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[second_frame_start + 10] ^= 0xFF; // corrupt frame 1's payload
        std::fs::write(&path, &bytes).expect("write corrupt");

        let opened = Commitlog::open(&path, FsyncPolicy::Always).expect("open corrupt");
        assert_eq!(opened.frames.len(), 1, "only frame 0 survives");
        let tail = opened.tail.expect("corruption reported");
        assert!(matches!(tail.error, StoreError::Corrupt(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trim_below_keeps_a_suffix() {
        let dir = tmp_dir("trim");
        let path = dir.join(LOG_FILE);
        let mut log = Commitlog::open(&path, FsyncPolicy::Always)
            .expect("open")
            .log;
        for i in 0..6 {
            log.append(&delta(i)).expect("append");
        }
        log.trim_below(4).expect("trim");
        assert_eq!(log.next_seq(), 6);

        let reopened = Commitlog::open(&path, FsyncPolicy::Always).expect("reopen");
        assert!(reopened.tail.is_none());
        assert_eq!(
            reopened.frames.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(reopened.log.next_seq(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
