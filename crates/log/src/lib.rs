//! # aria-log — sealed append-only segment log + verified checkpoint
//!
//! The durability substrate for Aria's hot/cold tiering: each shard
//! appends every write to a segment log of **sealed records** (value
//! and key CTR-encrypted under a log key derived from the store's
//! master secret, authenticated by a CMAC) framed by a CRC32 so the
//! enclave can tell *crash damage* (torn tail, garbage suffix) apart
//! from *tampering* (CRC-consistent bytes whose MAC does not verify).
//!
//! On-disk layout inside the log directory:
//!
//! * `seg-<id>.log` — append-only record segments, rotated at
//!   [`LogConfig::segment_bytes`]. Record framing is described in
//!   [`record`].
//! * `CHECKPOINT` — the latest verified checkpoint (epoch, last
//!   sequence number, pair count, content-root digest), written
//!   atomically via a temp file + rename. See [`checkpoint`].
//! * `LOGID` — the directory's random identity nonce, mixed into the
//!   log-key derivation so logs sharing a master secret never share a
//!   CTR keystream. See [`meta`].
//! * `SEQNO` — the sealed seqno high-water reservation, preventing
//!   seqno (and therefore keystream) reuse after a torn-tail
//!   truncation. See [`meta`].
//!
//! Opening a log replays every segment in id order. A record that ends
//! past the end of the **last** segment is a torn tail from a crash and
//! is truncated away; any other framing or CRC failure is
//! [`LogError::Corrupt`], and a CRC-consistent record whose MAC fails
//! is [`LogError::Tampered`] — bit flips are *detected*, never silently
//! truncated into oblivion.
//!
//! The log stores bytes on the untrusted host filesystem; nothing read
//! back is trusted until its MAC verifies inside the (simulated)
//! enclave. What the log alone cannot detect is *rollback* — the host
//! serving a stale-but-internally-consistent prefix. That is the
//! checkpoint's job, together with a minimum-epoch expectation the
//! caller carries (modelling an SGX monotonic counter); see
//! `aria-store`'s tiered recovery and DESIGN.md §15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod meta;
pub mod record;
pub mod segment;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub use checkpoint::{load_checkpoint, save_checkpoint, Checkpoint};
pub use meta::load_or_create_log_nonce;
pub use record::{RecordKind, RecordPtr, MAX_KEY_LEN, MAX_VALUE_LEN};
pub use segment::{
    AppendFaultHook, AppendInfo, CopyOutcome, FrameCopy, ReplayRecord, SegmentLog, SegmentStats,
};

/// Why a log operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// An underlying filesystem operation failed. Not an integrity
    /// verdict — the bytes never made it to or from disk.
    Io {
        /// The operation that failed (`"open"`, `"append"`, ...).
        op: &'static str,
        /// The I/O error kind.
        kind: io::ErrorKind,
        /// Human-readable detail for logs.
        msg: String,
    },
    /// A record frame is structurally broken where a crash cannot
    /// explain it: bad CRC on a fully-present frame, impossible length
    /// fields, or a tear in a non-final segment. The log refuses to
    /// decode past it.
    Corrupt {
        /// Segment the broken frame lives in.
        segment: u64,
        /// Byte offset of the frame within the segment.
        offset: u64,
    },
    /// A record frame is CRC-consistent but its MAC does not verify:
    /// the host rewrote sealed bytes (and fixed up the CRC, which is
    /// not a secret). Detected tampering, never served.
    Tampered {
        /// Segment the tampered frame lives in.
        segment: u64,
        /// Byte offset of the frame within the segment.
        offset: u64,
    },
    /// The checkpoint file exists but fails its CRC or MAC, or has an
    /// impossible layout. Recovery must refuse rather than guess.
    CheckpointCorrupt,
    /// A sealed log metadata file (`LOGID` identity nonce or `SEQNO`
    /// reservation) is malformed, fails its MAC, or is missing where
    /// the write protocol guarantees it exists. Both files are written
    /// atomically before the state they protect, so a crash cannot
    /// explain their absence — this is host tampering.
    MetaCorrupt {
        /// Which file failed (`"LOGID"` or `"SEQNO"`).
        file: &'static str,
    },
    /// The configuration is unusable (zero segment size, missing dir).
    Config(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io { op, kind, msg } => write!(f, "log {op} failed ({kind:?}): {msg}"),
            LogError::Corrupt { segment, offset } => {
                write!(f, "corrupt log record in segment {segment} at offset {offset}")
            }
            LogError::Tampered { segment, offset } => {
                write!(f, "tampered log record in segment {segment} at offset {offset}")
            }
            LogError::CheckpointCorrupt => write!(f, "checkpoint file corrupt or tampered"),
            LogError::MetaCorrupt { file } => {
                write!(f, "log metadata file {file} missing, corrupt or tampered")
            }
            LogError::Config(msg) => write!(f, "log config: {msg}"),
        }
    }
}

impl std::error::Error for LogError {}

impl LogError {
    pub(crate) fn io(op: &'static str, e: io::Error) -> LogError {
        LogError::Io { op, kind: e.kind(), msg: e.to_string() }
    }

    /// Whether this error reports detected tampering (as opposed to
    /// crash damage or plain I/O failure).
    pub fn is_tamper(&self) -> bool {
        matches!(
            self,
            LogError::Tampered { .. } | LogError::CheckpointCorrupt | LogError::MetaCorrupt { .. }
        )
    }
}

/// Configuration for a [`SegmentLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding the segments and checkpoint.
    pub dir: PathBuf,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// `fsync` data after appends (benches leave it off and model the
    /// flush boundary explicitly). With [`LogConfig::sync_window_bytes`]
    /// at 0 every append pays its own fsync; with a window, fsyncs are
    /// group-committed.
    pub sync_writes: bool,
    /// Group-commit window, in bytes, effective only with
    /// [`LogConfig::sync_writes`]. `0` keeps the classic
    /// fsync-per-append. Non-zero lets appends accumulate un-fsynced
    /// until the window fills (then an inline fsync covers them) or the
    /// owner calls [`SegmentLog::sync`] — the covering fsync it must
    /// issue *before acknowledging* any write in the window. A crash
    /// inside the window can lose only that unacknowledged suffix.
    pub sync_window_bytes: u64,
}

impl LogConfig {
    /// A configuration rooted at `dir` with an 8 MiB segment target.
    pub fn new<P: Into<PathBuf>>(dir: P) -> LogConfig {
        LogConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            sync_writes: false,
            sync_window_bytes: 0,
        }
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> LogConfig {
        self.segment_bytes = bytes;
        self
    }

    /// Enable fsync-per-append.
    pub fn sync_writes(mut self, on: bool) -> LogConfig {
        self.sync_writes = on;
        self
    }

    /// Set the group-commit fsync window (bytes; 0 = fsync per append).
    pub fn sync_window_bytes(mut self, bytes: u64) -> LogConfig {
        self.sync_window_bytes = bytes;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), LogError> {
        // A segment must fit at least one maximal record, or rotation
        // would loop forever trying to make room.
        if self.segment_bytes < 4096 {
            return Err(LogError::Config(format!(
                "segment_bytes {} is below the 4096-byte minimum",
                self.segment_bytes
            )));
        }
        Ok(())
    }
}

/// Path of segment `id` inside `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

// ---------------------------------------------------------------------------
// Crash/tamper actuators for tests, benches and chaos drivers.
//
// These operate on the raw files, the way a crashing kernel or a
// malicious host would — the log itself never calls them.

/// Truncate segment `id` to `keep_bytes`, simulating a SIGKILL-style
/// crash that lost the tail of the last write. Returns the previous
/// file length.
pub fn crash_cut(dir: &Path, id: u64, keep_bytes: u64) -> io::Result<u64> {
    let path = segment_path(dir, id);
    let len = std::fs::metadata(&path)?.len();
    let f = std::fs::OpenOptions::new().write(true).open(&path)?;
    f.set_len(keep_bytes.min(len))?;
    Ok(len)
}

/// XOR one byte of segment `id` at `offset` with `mask`, simulating
/// host tampering (or bit rot) in the cold store.
pub fn flip_byte(dir: &Path, id: u64, offset: u64, mask: u8) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let path = segment_path(dir, id);
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path)?;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut b)?;
    b[0] ^= if mask == 0 { 0x01 } else { mask };
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)?;
    Ok(())
}

/// Length in bytes of segment `id` on disk.
pub fn segment_file_len(dir: &Path, id: u64) -> io::Result<u64> {
    Ok(std::fs::metadata(segment_path(dir, id))?.len())
}
