//! The append-only segment log: rotation, replay with torn-tail
//! truncation, verified point reads, dead-byte accounting for the
//! compactor, and a crash/tamper fault hook for the chaos harness.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::record::{DecodedRecord, RecordKind, RecordPtr, Sealer, MAX_FRAME_LEN, MIN_FRAME_LEN};
use crate::{segment_path, LogConfig, LogError};

/// One record surfaced during replay. Records are surfaced in on-disk
/// order (segment id, then offset) — the *caller* resolves latest-wins
/// by `seqno`, because compaction rewrites preserve the original seqno
/// of a record while moving it to a younger segment.
#[derive(Debug)]
pub struct ReplayRecord {
    /// Where the record lives (for later reads / dead-marking).
    pub ptr: RecordPtr,
    /// The record's logical write sequence number.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Plaintext key.
    pub key: Vec<u8>,
    /// Plaintext value (empty for tombstones).
    pub value: Vec<u8>,
}

/// What an append did, for index maintenance.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// Where the new record was written.
    pub ptr: RecordPtr,
    /// The sequence number the record was stamped with.
    pub seqno: u64,
}

/// Per-segment occupancy counters, exposed for telemetry and the
/// compactor's victim choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentStats {
    /// Total bytes of record frames in the segment.
    pub total_bytes: u64,
    /// Bytes belonging to superseded (dead) records.
    pub dead_bytes: u64,
    /// Number of record frames.
    pub records: u64,
    /// Number of superseded record frames.
    pub dead_records: u64,
}

impl SegmentStats {
    /// Fraction of the segment's bytes that are dead (0.0 when empty).
    pub fn dead_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.dead_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Fault hook invoked on the encoded frame just before it hits the
/// file. Returning `Some(n)` writes only the first `n` bytes (a torn
/// append — the process is assumed to die before retrying); the hook
/// may also mutate bytes in place (a host-side bit flip). Installed by
/// the chaos harness only.
pub type AppendFaultHook = Box<dyn FnMut(&mut Vec<u8>) -> Option<usize> + Send>;

/// Reserve seqnos in blocks of this size: the sealed `SEQNO` file is
/// rewritten (one fsync) once per block, and each reopen burns at most
/// one block of the 2^64 seqno space.
const SEQNO_RESERVE_STEP: u64 = 1 << 16;

/// Sealed-segment read handles kept open at once (one fd each). A
/// sealed segment never changes, so a handle stays valid until
/// [`SegmentLog::remove_segment`] drops it; past this many, the
/// longest-held handle is closed.
const READ_HANDLES: usize = 64;

/// Largest positional read [`SegmentLog::copy_frames`] issues: the
/// frames it moves are read in spans of at most this many bytes (a
/// larger frame is read alone), so a victim segment costs a few reads,
/// not one per record, and the read buffer stays bounded.
const COPY_READ_BYTES: u64 = 256 << 10;

/// One record [`SegmentLog::copy_frames`] is asked to move.
#[derive(Debug, Clone, Copy)]
pub struct FrameCopy<'k> {
    /// Where the record lives now.
    pub ptr: RecordPtr,
    /// The sequence number the caller indexed the record under.
    pub seqno: u64,
    /// The plaintext key the frame must hold, when the caller knows it
    /// (a seqno alone names one record per log).
    pub key: Option<&'k [u8]>,
    /// Whether a frame that fails verification fails the whole batch
    /// before anything is appended (`true`), or only itself (`false`:
    /// the others are copied and its error is reported in its place).
    pub required: bool,
}

/// What [`SegmentLog::copy_frames`] did with one requested frame: its
/// kind and where the copy landed, or why it was not copied (always
/// `Corrupt` or `Tampered`: any other failure fails the whole call).
pub type CopyOutcome = Result<(RecordKind, AppendInfo), LogError>;

/// Open segment `id` for appending. Readable too: point reads into the
/// active segment go through this same handle.
fn open_writer(dir: &Path, id: u64) -> Result<File, LogError> {
    OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(segment_path(dir, id))
        .map_err(|e| LogError::io("open-segment", e))
}

/// An append-only log of sealed records split across rotated segment
/// files. All reads verify CRC + MAC before returning plaintext.
pub struct SegmentLog {
    dir: PathBuf,
    cfg: LogConfig,
    sealer: Sealer,
    log_key: [u8; 16],
    /// Occupancy for every segment, active included.
    stats: BTreeMap<u64, SegmentStats>,
    active_id: u64,
    active_len: u64,
    writer: File,
    next_seqno: u64,
    /// Exclusive sealed upper bound on allocated seqnos: every seqno
    /// handed out is `< reserved`, and `reserved` is fsynced to the
    /// `SEQNO` file before allocation crosses the previous bound. A
    /// reopen resumes at the bound, so a seqno lost to a torn tail is
    /// never re-allocated to a different plaintext (CTR keystream
    /// reuse).
    reserved: u64,
    /// Bytes appended since the last fsync while group-commit is on
    /// (`sync_writes` with a non-zero `sync_window_bytes`). These bytes
    /// are NOT yet durable; the owner must not acknowledge them until a
    /// covering [`SegmentLog::sync`].
    unsynced_bytes: u64,
    /// Data fsyncs issued (append path + explicit syncs), for tests and
    /// telemetry to verify group-commit actually coalesces.
    syncs: u64,
    /// Read handles of sealed segments, oldest first; at most
    /// [`READ_HANDLES`], never the active segment.
    readers: VecDeque<(u64, File)>,
    /// Positional reads issued, for tests to verify that maintenance
    /// reads only what it moves.
    reads: u64,
    fault_hook: Option<AppendFaultHook>,
}

impl SegmentLog {
    /// Open (or create) the log in `cfg.dir`, replaying every record in
    /// segment order through `sink`. A torn tail on the *last* segment
    /// is truncated away; any other framing violation is an error and
    /// the log refuses to open.
    pub fn open(
        cfg: LogConfig,
        log_key: &[u8; 16],
        sink: &mut dyn FnMut(ReplayRecord),
    ) -> Result<SegmentLog, LogError> {
        cfg.validate()?;
        std::fs::create_dir_all(&cfg.dir).map_err(|e| LogError::io("create-dir", e))?;
        let sealer = Sealer::new(log_key);

        let mut ids = list_segment_ids(&cfg.dir)?;
        ids.sort_unstable();

        let mut stats = BTreeMap::new();
        let mut next_seqno = 1u64;
        for (i, &id) in ids.iter().enumerate() {
            let last = i + 1 == ids.len();
            let seg_stats = replay_segment(&cfg.dir, id, &sealer, last, &mut next_seqno, sink)?;
            stats.insert(id, seg_stats);
        }

        // Resume seqno allocation at the sealed reservation bound, not
        // at max(replayed) + 1: a torn-tail truncation may have erased
        // records whose seqnos (and CTR keystreams) were already used.
        // The file is written before the first segment is created, so
        // "segments exist but no reservation" is host tampering.
        match crate::meta::load_seqno_reserve(&cfg.dir, log_key)? {
            Some(bound) => next_seqno = next_seqno.max(bound),
            None if !ids.is_empty() => {
                return Err(LogError::MetaCorrupt { file: "SEQNO" });
            }
            None => {}
        }
        let reserved = next_seqno + SEQNO_RESERVE_STEP;
        crate::meta::save_seqno_reserve(&cfg.dir, log_key, reserved)?;

        let active_id = ids.last().copied().unwrap_or(0);
        stats.entry(active_id).or_default();
        let mut writer = open_writer(&cfg.dir, active_id)?;
        let active_len =
            writer.seek(SeekFrom::End(0)).map_err(|e| LogError::io("seek-segment", e))?;

        Ok(SegmentLog {
            dir: cfg.dir.clone(),
            cfg,
            sealer,
            log_key: *log_key,
            stats,
            active_id,
            active_len,
            writer,
            next_seqno,
            reserved,
            unsynced_bytes: 0,
            syncs: 0,
            readers: VecDeque::new(),
            reads: 0,
            fault_hook: None,
        })
    }

    /// Append a record under a freshly allocated sequence number.
    pub fn append(
        &mut self,
        kind: RecordKind,
        key: &[u8],
        value: &[u8],
    ) -> Result<AppendInfo, LogError> {
        let seqno = self.next_seqno;
        if seqno >= self.reserved {
            let bound = seqno + SEQNO_RESERVE_STEP;
            crate::meta::save_seqno_reserve(&self.dir, &self.log_key, bound)?;
            self.reserved = bound;
        }
        let frame = self.sealer.encode(seqno, kind, key, value);
        let len = frame.len() as u64;
        if self.active_len > 0 && self.active_len + len > self.cfg.segment_bytes {
            self.rotate()?;
        }
        let ptr = RecordPtr { segment: self.active_id, offset: self.active_len, len: len as u32 };
        self.write_run(&frame, 1)?;
        self.next_seqno = seqno + 1;
        Ok(AppendInfo { ptr, seqno })
    }

    /// Copy records to the end of the log unchanged — the compactor
    /// moving a segment's records into a younger one. Every frame is
    /// read (in a few positional reads of at most 256 KiB each
    /// over the span the frames cover), verified (CRC + CMAC, as
    /// [`SegmentLog::read`] does, decrypting only the key) and checked
    /// to be the record the caller indexed: sequence number `seqno`
    /// and, when given, key `key`. A frame that fails verification is
    /// `Corrupt` or `Tampered`; a genuine frame of another record at
    /// its `ptr` (the host moved it there) is `Tampered`. If a
    /// [`FrameCopy::required`] frame fails, the call returns that error
    /// and appends nothing. Only then are the verified frames appended,
    /// in source order (segment, offset), as runs of consecutive
    /// frames: one `write` per run, split where the active segment
    /// rotates. The bytes appended are the bytes read, so a record
    /// keeps its seqno, its ciphertext and its MAC, and replay's
    /// latest-wins resolution and any checkpointed content root are
    /// unaffected. Returns, per requested frame and in request order,
    /// its [`CopyOutcome`].
    pub fn copy_frames(&mut self, frames: &[FrameCopy<'_>]) -> Result<Vec<CopyOutcome>, LogError> {
        let mut order: Vec<usize> = (0..frames.len()).collect();
        order.sort_unstable_by_key(|&i| (frames[i].ptr.segment, frames[i].ptr.offset));
        let mut outcomes: Vec<Option<CopyOutcome>> = vec![None; frames.len()];
        // Read and verify everything first: the verified frames, in
        // source order, and which request each one is.
        let mut verified: Vec<u8> = Vec::new();
        let mut kept: Vec<(usize, RecordKind)> = Vec::new();
        let mut span = Vec::new();
        let mut at = 0;
        while at < order.len() {
            let first = frames[order[at]].ptr;
            let mut end = first.offset + u64::from(first.len);
            let mut next = at + 1;
            while let Some(&i) = order.get(next) {
                let ptr = frames[i].ptr;
                let ptr_end = (ptr.offset + u64::from(ptr.len)).max(end);
                if ptr.segment != first.segment || ptr_end - first.offset > COPY_READ_BYTES {
                    break;
                }
                end = ptr_end;
                next += 1;
            }
            self.read_span(first.segment, first.offset, end - first.offset, &mut span)?;
            for &i in &order[at..next] {
                let FrameCopy { ptr, seqno, key, required } = frames[i];
                let checked = frame_in(&span, first.offset, ptr).and_then(|frame| {
                    let (found, kind, k) =
                        self.sealer.decode_key(frame, ptr.segment, ptr.offset)?;
                    if found != seqno || key.is_some_and(|key| key != k) {
                        return Err(LogError::Tampered {
                            segment: ptr.segment,
                            offset: ptr.offset,
                        });
                    }
                    debug_assert!(seqno < self.next_seqno, "a copy must reuse an allocated seqno");
                    verified.extend_from_slice(frame);
                    Ok(kind)
                });
                match checked {
                    Ok(kind) => kept.push((i, kind)),
                    Err(e) if required => return Err(e),
                    Err(e) => outcomes[i] = Some(Err(e)),
                }
            }
            at = next;
        }
        // Append them as runs, rotating exactly where one append per
        // frame would have.
        let (mut run_start, mut run_records, mut pos) = (0usize, 0u64, 0usize);
        for (i, kind) in kept {
            let len = frames[i].ptr.len;
            let at = self.active_len + (pos - run_start) as u64;
            if at > 0 && at + u64::from(len) > self.cfg.segment_bytes {
                if pos > run_start {
                    self.write_run(&verified[run_start..pos], run_records)?;
                }
                self.rotate()?;
                (run_start, run_records) = (pos, 0);
            }
            let offset = self.active_len + (pos - run_start) as u64;
            let ptr = RecordPtr { segment: self.active_id, offset, len };
            outcomes[i] = Some(Ok((kind, AppendInfo { ptr, seqno: frames[i].seqno })));
            pos += len as usize;
            run_records += 1;
        }
        if pos > run_start {
            self.write_run(&verified[run_start..pos], run_records)?;
        }
        Ok(outcomes.into_iter().map(|o| o.expect("every frame was copied or refused")).collect())
    }

    /// Write `records` sealed frames, back to back in `run`, at the
    /// append frontier with one `write`: the fault hook, fsync or
    /// group-commit accounting, and occupancy. The caller has rotated
    /// if the run would not fit.
    fn write_run(&mut self, run: &[u8], records: u64) -> Result<(), LogError> {
        let len = run.len() as u64;
        let mut hooked = None;
        if let Some(hook) = self.fault_hook.as_mut() {
            let mut bytes = run.to_vec();
            if let Some(torn) = hook(&mut bytes) {
                bytes.truncate(torn);
            }
            hooked = Some(bytes);
        }
        let bytes = hooked.as_deref().unwrap_or(run);
        self.writer.write_all(bytes).map_err(|e| LogError::io("append", e))?;
        if self.cfg.sync_writes {
            if self.cfg.sync_window_bytes == 0 {
                // Classic durability: every append pays its own fsync.
                self.do_sync()?;
            } else {
                // Group commit: accumulate until the window fills; the
                // owner's covering sync() before acking closes smaller
                // windows.
                self.unsynced_bytes += len;
                if self.unsynced_bytes >= self.cfg.sync_window_bytes {
                    self.do_sync()?;
                }
            }
        }
        // Account the intended length even when the hook tore the
        // write: the harness kills the process right after, and replay
        // truncates the tail.
        self.active_len += len;
        let s = self.stats.entry(self.active_id).or_default();
        s.total_bytes += len;
        s.records += records;
        Ok(())
    }

    fn do_sync(&mut self) -> Result<(), LogError> {
        self.writer.sync_data().map_err(|e| LogError::io("sync", e))?;
        self.unsynced_bytes = 0;
        self.syncs += 1;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), LogError> {
        // A retiring segment is always fully synced — the group-commit
        // window never spans a rotation.
        self.do_sync()?;
        self.active_id += 1;
        self.active_len = 0;
        self.stats.entry(self.active_id).or_default();
        self.writer = open_writer(&self.dir, self.active_id)?;
        Ok(())
    }

    /// Read and verify the record at `ptr`. Any mismatch between the
    /// bytes on disk and what was sealed is a typed error, never a
    /// wrong answer. One positional read on an already-open handle:
    /// the writer's for the active segment (appends are unbuffered, so
    /// an indexed record's bytes are already in the file), a cached
    /// one for a sealed segment.
    pub fn read(
        &mut self,
        ptr: RecordPtr,
    ) -> Result<(RecordKind, Vec<u8>, Vec<u8>, u64), LogError> {
        let mut bytes = Vec::new();
        self.read_span(ptr.segment, ptr.offset, u64::from(ptr.len), &mut bytes)?;
        let frame = frame_in(&bytes, ptr.offset, ptr)?;
        let rec: DecodedRecord = self.sealer.decode(frame, ptr.segment, ptr.offset)?;
        Ok((rec.kind, rec.key, rec.value, rec.seqno))
    }

    /// One positional read of `len` bytes of segment `id` at `offset`
    /// into `buf`. A read that fails leaves `buf` empty, so every frame
    /// it was to hold is `Corrupt`, not an I/O error: the host owns the
    /// file's length.
    fn read_span(
        &mut self,
        id: u64,
        offset: u64,
        len: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), LogError> {
        self.reads += 1;
        buf.clear();
        buf.resize(len as usize, 0);
        let file = if id == self.active_id { &self.writer } else { self.sealed_reader(id)? };
        if file.read_exact_at(buf, offset).is_err() {
            buf.clear();
        }
        Ok(())
    }

    /// The cached read handle of sealed segment `id`, opened on first
    /// use.
    fn sealed_reader(&mut self, id: u64) -> Result<&File, LogError> {
        let at = match self.readers.iter().position(|(seg, _)| *seg == id) {
            Some(at) => at,
            None => {
                let file = File::open(segment_path(&self.dir, id))
                    .map_err(|e| LogError::io("open-segment", e))?;
                if self.readers.len() == READ_HANDLES {
                    self.readers.pop_front();
                }
                self.readers.push_back((id, file));
                self.readers.len() - 1
            }
        };
        Ok(&self.readers[at].1)
    }

    /// Mark the record at `ptr` superseded, feeding the compactor's
    /// victim choice.
    pub fn mark_dead(&mut self, ptr: RecordPtr) {
        if let Some(s) = self.stats.get_mut(&ptr.segment) {
            s.dead_bytes = (s.dead_bytes + ptr.len as u64).min(s.total_bytes);
            s.dead_records = (s.dead_records + 1).min(s.records);
        }
    }

    /// The sealed (non-active) segment with the highest dead ratio at
    /// or above `min_dead_ratio`, if any.
    pub fn victim_segment(&self, min_dead_ratio: f64) -> Option<u64> {
        self.stats
            .iter()
            .filter(|(&id, s)| id != self.active_id && s.total_bytes > 0)
            .filter(|(_, s)| s.dead_ratio() >= min_dead_ratio)
            .max_by(|a, b| {
                a.1.dead_ratio().partial_cmp(&b.1.dead_ratio()).expect("ratios are finite")
            })
            .map(|(&id, _)| id)
    }

    /// Delete a fully-compacted segment file. Refuses the active
    /// segment.
    pub fn remove_segment(&mut self, id: u64) -> Result<(), LogError> {
        assert_ne!(id, self.active_id, "cannot remove the active segment");
        // Close the read handle first: an unlinked file stays readable
        // through an open fd.
        self.readers.retain(|(seg, _)| *seg != id);
        std::fs::remove_file(segment_path(&self.dir, id))
            .map_err(|e| LogError::io("remove-segment", e))?;
        self.stats.remove(&id);
        Ok(())
    }

    /// Flush and fsync the active segment — the covering fsync that
    /// closes an open group-commit window.
    pub fn sync(&mut self) -> Result<(), LogError> {
        self.do_sync()
    }

    /// Bytes appended since the last fsync (0 when every append syncs).
    /// Non-zero means acknowledging those writes requires a covering
    /// [`SegmentLog::sync`] first.
    pub fn pending_sync_bytes(&self) -> u64 {
        self.unsynced_bytes
    }

    /// Data fsyncs issued so far (group-commit coalescing metric).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Positional reads issued so far: one per [`SegmentLog::read`],
    /// and one per span of at most 256 KiB that
    /// [`SegmentLog::copy_frames`] reads.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// The highest sequence number handed out so far (0 if none).
    pub fn last_seqno(&self) -> u64 {
        self.next_seqno - 1
    }

    /// The current append frontier: (active segment id, byte offset).
    /// Everything at strictly lower (segment, offset) is flushed state
    /// a crash cut can land in.
    pub fn frontier(&self) -> (u64, u64) {
        (self.active_id, self.active_len)
    }

    /// Occupancy stats per segment, in id order.
    pub fn segment_stats(&self) -> Vec<(u64, SegmentStats)> {
        self.stats.iter().map(|(&id, &s)| (id, s)).collect()
    }

    /// Total record bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.stats.values().map(|s| s.total_bytes).sum()
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> usize {
        self.stats.len()
    }

    /// Install (or clear) the append fault hook. Chaos harness only.
    pub fn set_fault_hook(&mut self, hook: Option<AppendFaultHook>) {
        self.fault_hook = hook;
    }
}

/// The frame `ptr` names inside `bytes`, which hold its segment from
/// byte `base` on, with its length field checked against `ptr.len`;
/// nothing else is verified yet. Missing bytes are `Corrupt`.
fn frame_in(bytes: &[u8], base: u64, ptr: RecordPtr) -> Result<&[u8], LogError> {
    let from = (ptr.offset - base) as usize;
    match bytes.get(from..from + ptr.len as usize) {
        Some(frame)
            if frame.len() >= 4
                && u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")).checked_add(4)
                    == Some(ptr.len) =>
        {
            Ok(frame)
        }
        _ => Err(LogError::Corrupt { segment: ptr.segment, offset: ptr.offset }),
    }
}

/// Whether `dir` holds any segment files (used by [`crate::meta`] to
/// refuse re-minting a nonce over an existing log).
pub(crate) fn dir_has_segments(dir: &std::path::Path) -> Result<bool, LogError> {
    match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(LogError::io("read-dir", e)),
        Ok(_) => Ok(!list_segment_ids(dir)?.is_empty()),
    }
}

fn list_segment_ids(dir: &std::path::Path) -> Result<Vec<u64>, LogError> {
    let mut ids = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| LogError::io("read-dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LogError::io("read-dir", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".log")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    Ok(ids)
}

/// Replay one segment file. `last` selects torn-tail tolerance: only
/// the final segment may end mid-frame (a crash), and the tear is
/// truncated off so the next append starts clean. `next_seqno` is
/// raised past every seqno seen.
fn replay_segment(
    dir: &std::path::Path,
    id: u64,
    sealer: &Sealer,
    last: bool,
    next_seqno: &mut u64,
    sink: &mut dyn FnMut(ReplayRecord),
) -> Result<SegmentStats, LogError> {
    let path = segment_path(dir, id);
    let mut bytes = Vec::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| LogError::io("open-segment", e))?;

    let mut stats = SegmentStats::default();
    let mut off = 0usize;
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        let torn = |n: usize| -> bool { remaining < n };
        // An incomplete length field, or a frame whose declared extent
        // runs past EOF, is a torn tail — tolerable only on the last
        // segment.
        let frame_total = if torn(4) {
            None
        } else {
            let flen = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
            if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&flen) {
                // A length a writer could never have produced: not a
                // tear, corruption.
                return Err(LogError::Corrupt { segment: id, offset: off as u64 });
            }
            if torn(4 + flen as usize) {
                None
            } else {
                Some(4 + flen as usize)
            }
        };
        let Some(frame_total) = frame_total else {
            if last {
                // Crash tear: drop the tail and stop.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| LogError::io("open-segment", e))?;
                f.set_len(off as u64).map_err(|e| LogError::io("truncate", e))?;
                break;
            }
            return Err(LogError::Corrupt { segment: id, offset: off as u64 });
        };
        let frame = &bytes[off..off + frame_total];
        let rec = sealer.decode(frame, id, off as u64)?;
        let ptr = RecordPtr { segment: id, offset: off as u64, len: frame_total as u32 };
        *next_seqno = (*next_seqno).max(rec.seqno + 1);
        stats.total_bytes += frame_total as u64;
        stats.records += 1;
        sink(ReplayRecord {
            ptr,
            seqno: rec.seqno,
            kind: rec.kind,
            key: rec.key,
            value: rec.value,
        });
        off += frame_total;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crash_cut, flip_byte, segment_file_len};
    use std::sync::atomic::{AtomicU64, Ordering};

    const KEY: &[u8; 16] = b"segment-test-key";

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aria-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn collect_replay(
        dir: &std::path::Path,
        segment_bytes: u64,
    ) -> Result<Vec<ReplayRecord>, LogError> {
        let mut seen = Vec::new();
        SegmentLog::open(
            LogConfig::new(dir.to_path_buf()).segment_bytes(segment_bytes),
            KEY,
            &mut |r| seen.push(r),
        )?;
        Ok(seen)
    }

    #[test]
    fn append_read_replay_round_trip() {
        let dir = tmpdir("rt");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        let a = log.append(RecordKind::Put, b"k1", b"v1").unwrap();
        let b = log.append(RecordKind::Put, b"k2", b"v2").unwrap();
        let c = log.append(RecordKind::Delete, b"k1", b"").unwrap();
        assert_eq!((a.seqno, b.seqno, c.seqno), (1, 2, 3));
        let (kind, key, value, seqno) = log.read(b.ptr).unwrap();
        assert_eq!(
            (kind, key.as_slice(), value.as_slice(), seqno),
            (RecordKind::Put, b"k2".as_slice(), b"v2".as_slice(), 2)
        );
        drop(log);

        let seen = collect_replay(&dir, 8 << 20).unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2].kind, RecordKind::Delete);
        assert_eq!(seen[2].key, b"k1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = tmpdir("rot");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4096), KEY, &mut |_| {})
                .unwrap();
        for i in 0..200u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), &[0u8; 64]).unwrap();
        }
        assert!(log.segment_count() > 1, "200 records must rotate past 4 KiB");
        drop(log);
        let seen = collect_replay(&dir, 4096).unwrap();
        assert_eq!(seen.len(), 200);
        // Seqnos survive replay in order.
        assert!(seen.windows(2).all(|w| w[0].seqno < w[1].seqno));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        for i in 0..20u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"payload").unwrap();
        }
        let (seg, frontier) = log.frontier();
        drop(log);

        // Cut inside the last record at every byte of its frame.
        let full = segment_file_len(&dir, seg).unwrap();
        assert_eq!(full, frontier);
        for cut in [frontier - 1, frontier - 17, frontier - 30] {
            // Restore then cut.
            let dir2 = tmpdir("torn-cut");
            copy_dir(&dir, &dir2);
            crash_cut(&dir2, seg, cut).unwrap();
            let seen = collect_replay(&dir2, 8 << 20).unwrap();
            assert_eq!(seen.len(), 19, "cut at {cut} must drop exactly the torn record");
            // File was truncated to the last intact frame boundary.
            let after = segment_file_len(&dir2, seg).unwrap();
            assert!(after <= cut);
            // And the log is appendable again.
            let mut log = SegmentLog::open(LogConfig::new(dir2.clone()), KEY, &mut |_| {}).unwrap();
            log.append(RecordKind::Put, b"new", b"write").unwrap();
            let _ = std::fs::remove_dir_all(&dir2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_not_truncated() {
        let dir = tmpdir("flip");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        for i in 0..10u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"payload").unwrap();
        }
        drop(log);
        // Flip a byte in the middle of the file (inside some record's
        // sealed body, not a length field).
        let len = segment_file_len(&dir, 0).unwrap();
        flip_byte(&dir, 0, len / 2, 0x10).unwrap();
        let err = collect_replay(&dir, 8 << 20).expect_err("flip must fail replay");
        assert!(
            matches!(err, LogError::Corrupt { segment: 0, .. }),
            "plain flip breaks the CRC: {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bytes of the frame at `ptr`, straight from the file.
    fn frame_bytes(dir: &Path, ptr: RecordPtr) -> Vec<u8> {
        let file = File::open(segment_path(dir, ptr.segment)).unwrap();
        let mut frame = vec![0u8; ptr.len as usize];
        file.read_exact_at(&mut frame, ptr.offset).unwrap();
        frame
    }

    /// Ask for every record in `infos` as a required copy under `key`.
    fn required<'k>(infos: &[(AppendInfo, &'k [u8])]) -> Vec<FrameCopy<'k>> {
        infos
            .iter()
            .map(|(info, key)| FrameCopy {
                ptr: info.ptr,
                seqno: info.seqno,
                key: Some(key),
                required: true,
            })
            .collect()
    }

    #[test]
    fn copy_frames_preserve_seqno_and_bytes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let dir = tmpdir("copy");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4096), KEY, &mut |_| {})
                .unwrap();
        // Puts and tombstones; keys from empty to three CTR blocks long
        // (the key is decrypted alone, as a keystream prefix); values
        // empty on every tombstone and on every fifth put.
        let mut rng = StdRng::seed_from_u64(0xc0b1);
        let mut records = Vec::new();
        for i in 0..64u32 {
            let kind = if i % 4 == 3 { RecordKind::Delete } else { RecordKind::Put };
            let mut key = vec![0u8; rng.gen_range(0..48usize)];
            rng.fill(&mut key[..]);
            let vlen = match kind {
                RecordKind::Put if i % 5 != 0 => rng.gen_range(1..200usize),
                _ => 0,
            };
            let mut value = vec![0u8; vlen];
            rng.fill(&mut value[..]);
            let info = log.append(kind, &key, &value).unwrap();
            records.push((info, kind, key, value));
        }
        // Each copy is exactly the frame a re-seal of the same record
        // under the same seqno would write, and the copies keep the
        // records' source order.
        let sealer = Sealer::new(KEY);
        let reads = log.read_count();
        let sources: std::collections::BTreeSet<u64> =
            records.iter().map(|(info, ..)| info.ptr.segment).collect();
        let wanted: Vec<(AppendInfo, &[u8])> =
            records.iter().map(|(info, _, key, _)| (*info, key.as_slice())).collect();
        let copies = log.copy_frames(&required(&wanted)).unwrap();
        let mut last = None;
        for ((info, kind, key, value), copied) in records.iter().zip(copies) {
            let (copied_kind, copy) = copied.unwrap();
            assert_eq!((copied_kind, copy.seqno), (*kind, info.seqno));
            assert_eq!(copy.ptr.len, info.ptr.len);
            assert_eq!(frame_bytes(&dir, copy.ptr), sealer.encode(info.seqno, *kind, key, value));
            assert!(last < Some((copy.ptr.segment, copy.ptr.offset)), "copies out of order");
            last = Some((copy.ptr.segment, copy.ptr.offset));
        }
        // One positional read per source segment (each is smaller than
        // a read span), not one per record.
        assert_eq!(log.read_count(), reads + sources.len() as u64);
        // Every original in segment 0 now has a copy: it is all dead,
        // the compactor's victim, and can go.
        for (info, ..) in records.iter().filter(|(i, ..)| i.ptr.segment == 0) {
            log.mark_dead(info.ptr);
        }
        assert_eq!(log.victim_segment(0.5), Some(0));
        log.remove_segment(0).unwrap();
        let next = log.append(RecordKind::Put, b"after", b"compaction").unwrap();
        assert!(next.seqno > 64, "fresh seqnos must not collide with copied ones");
        drop(log);

        // Replay: every record surfaces with its original seqno, key
        // and value; the removed segment is simply gone.
        let seen = collect_replay(&dir, 4096).unwrap();
        for (info, kind, key, value) in &records {
            let found = seen.iter().find(|r| r.seqno == info.seqno).expect("copied record");
            assert_eq!((found.kind, &found.key, &found.value), (*kind, key, value));
        }
        assert!(seen.iter().all(|r| r.ptr.segment != 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn copy_frames_refuse_a_damaged_frame_and_append_nothing() {
        let dir = tmpdir("copy-flip");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        // A sound record before the one that gets damaged: nothing of
        // the batch may land, not even what verified first.
        let sound = log.append(RecordKind::Put, b"sound-key", b"sound value").unwrap();
        let info = log.append(RecordKind::Put, b"some-key", b"value-one").unwrap();
        let newer = log.append(RecordKind::Put, b"some-key", b"value-two").unwrap();
        let ptr = info.ptr;
        let batch = |key: &'static [u8]| required(&[(sound, b"sound-key"), (info, key)]);
        let copy = |log: &mut SegmentLog| log.copy_frames(&batch(b"some-key"));
        let rewrite = |frame: &[u8]| {
            let file = OpenOptions::new().write(true).open(segment_path(&dir, 0)).unwrap();
            file.write_all_at(frame, ptr.offset).unwrap();
        };
        let original = frame_bytes(&dir, ptr);
        let last = original.len() - 1;
        // Header (frame_len, seqno, kind, klen), ciphertext, MAC: a plain
        // flip, and the same flip with the CRC recomputed by the host.
        for at in [1, 10, 16, 18, crate::record::HEADER_LEN, crate::record::HEADER_LEN + 9, last] {
            for fix_crc in [false, true] {
                let mut bad = original.clone();
                bad[at] ^= 0x20;
                if fix_crc {
                    let crc = crate::record::crc32(&bad[8..]);
                    bad[4..8].copy_from_slice(&crc.to_le_bytes());
                }
                rewrite(&bad);
                let before = (log.frontier(), log.segment_stats()[0].1.records);
                let err = copy(&mut log).expect_err("a damaged frame must not be copied");
                assert!(
                    matches!(err, LogError::Corrupt { .. } | LogError::Tampered { .. }),
                    "flip at {at} (crc fixed: {fix_crc}) gave {err:?}"
                );
                if fix_crc && at >= crate::record::HEADER_LEN {
                    assert!(err.is_tamper(), "a CRC-consistent flip at {at} is tampering");
                }
                assert_eq!((log.frontier(), log.segment_stats()[0].1.records), before);
            }
        }
        // A genuine frame of another record, moved to `ptr` by the host
        // (here the key's newer version, the same length), and the
        // right frame asked for under another key: both are refused
        // before anything is appended.
        rewrite(&frame_bytes(&dir, newer.ptr));
        let before = (log.frontier(), log.segment_stats()[0].1.records);
        assert!(copy(&mut log).expect_err("a moved frame must not be copied").is_tamper());
        assert_eq!((log.frontier(), log.segment_stats()[0].1.records), before);
        // Not required, the moved frame is reported in its place and
        // the sound one is copied alone.
        let mut optional = batch(b"some-key");
        optional[1].required = false;
        let outcomes = log.copy_frames(&optional).unwrap();
        assert!(outcomes[1].as_ref().expect_err("a moved frame is never copied").is_tamper());
        let (_, alone) = outcomes[0].clone().unwrap();
        assert_eq!((alone.ptr.segment, alone.ptr.offset), before.0);
        assert_eq!(log.frontier(), (0, before.0 .1 + u64::from(sound.ptr.len)));
        rewrite(&original);
        let before = (log.frontier(), log.segment_stats()[0].1.records);
        let err = log.copy_frames(&batch(b"other-key")).unwrap_err();
        assert!(err.is_tamper(), "got {err:?}");
        assert_eq!((log.frontier(), log.segment_stats()[0].1.records), before);
        let copied = copy(&mut log).unwrap();
        let (_, copied) = copied[1].clone().unwrap();
        assert_eq!(frame_bytes(&dir, copied.ptr), original);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn copy_frames_read_in_bounded_spans() {
        let dir = tmpdir("copy-spans");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4 << 20), KEY, &mut |_| {})
                .unwrap();
        let keys: Vec<[u8; 4]> = (0..150u32).map(u32::to_le_bytes).collect();
        let infos: Vec<(AppendInfo, &[u8])> = keys
            .iter()
            .map(|k| (log.append(RecordKind::Put, k, &[7u8; 4096]).unwrap(), k.as_slice()))
            .collect();
        let frame = u64::from(infos[0].0.ptr.len);
        let per_span = (COPY_READ_BYTES / frame) as usize;
        let reads = log.read_count();
        log.copy_frames(&required(&infos)).unwrap();
        assert_eq!(log.read_count() - reads, infos.len().div_ceil(per_span) as u64);
        assert!(log.read_count() - reads > 1, "the span must be split");
        // A frame larger than a span is read alone, in one read.
        let big = log.append(RecordKind::Put, b"big", &vec![9u8; 300 << 10]).unwrap();
        assert!(u64::from(big.ptr.len) > COPY_READ_BYTES);
        let reads = log.read_count();
        let copied = log.copy_frames(&required(&[(big, b"big")])).unwrap();
        assert_eq!(log.read_count() - reads, 1);
        assert_eq!(log.read(copied[0].clone().unwrap().1.ptr).unwrap().2, vec![9u8; 300 << 10]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records appended until segment 0 is sealed, with their keys.
    fn sealed_segment_zero(log: &mut SegmentLog) -> Vec<(AppendInfo, Vec<u8>)> {
        let mut records = Vec::new();
        let mut i = 0u32;
        while log.frontier().0 == 0 {
            let key = i.to_le_bytes().to_vec();
            records.push((log.append(RecordKind::Put, &key, &[5u8; 100]).unwrap(), key));
            i += 1;
        }
        records.retain(|(info, _)| info.ptr.segment == 0);
        records
    }

    /// A fault hook that counts the writes it sees and tears the first
    /// one at `tear` bytes, if given.
    fn counting_hook(tear: Option<usize>) -> (AppendFaultHook, std::sync::Arc<AtomicU64>) {
        let writes = std::sync::Arc::new(AtomicU64::new(0));
        let seen = std::sync::Arc::clone(&writes);
        let hook = Box::new(move |_: &mut Vec<u8>| {
            let first = seen.fetch_add(1, Ordering::SeqCst) == 0;
            tear.filter(|_| first)
        });
        (hook, writes)
    }

    #[test]
    fn torn_copy_run_reopens_to_the_frames_before_the_tear() {
        let dir = tmpdir("copy-torn");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4096), KEY, &mut |_| {})
                .unwrap();
        let records = sealed_segment_zero(&mut log);
        let moved: Vec<(AppendInfo, &[u8])> =
            records[..8].iter().map(|(info, key)| (*info, key.as_slice())).collect();
        let (active, start) = log.frontier();
        // Tear the run in the middle of its fourth frame.
        let frame = moved[0].0.ptr.len as usize;
        let (hook, writes) = counting_hook(Some(3 * frame + 7));
        log.set_fault_hook(Some(hook));
        let copies = log.copy_frames(&required(&moved)).unwrap();
        assert_eq!(writes.load(Ordering::SeqCst), 1, "eight frames, one run, one write");
        assert!(copies.iter().all(|c| c.as_ref().unwrap().1.ptr.segment == active));
        drop(log);
        let seen = collect_replay(&dir, 4096).unwrap();
        let survivors: Vec<u64> = seen
            .iter()
            .filter(|r| r.ptr.segment == active && r.ptr.offset >= start)
            .map(|r| r.seqno)
            .collect();
        let before_tear: Vec<u64> = moved[..3].iter().map(|(info, _)| info.seqno).collect();
        assert_eq!(survivors, before_tear);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn copy_run_that_crosses_a_rotation_lands_in_both_segments() {
        let dir = tmpdir("copy-rotate");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4096), KEY, &mut |_| {})
                .unwrap();
        let records = sealed_segment_zero(&mut log);
        let frame = u64::from(records[0].0.ptr.len);
        // Fill segment 1 until two more frames fit, then move six.
        while log.frontier().1 + 3 * frame <= 4096 {
            log.append(RecordKind::Put, b"filler", &[6u8; 100]).unwrap();
        }
        let (active, _) = log.frontier();
        let moved: Vec<(AppendInfo, &[u8])> =
            records[..6].iter().map(|(info, key)| (*info, key.as_slice())).collect();
        let (hook, writes) = counting_hook(None);
        log.set_fault_hook(Some(hook));
        let copies: Vec<AppendInfo> =
            log.copy_frames(&required(&moved)).unwrap().into_iter().map(|c| c.unwrap().1).collect();
        assert_eq!(writes.load(Ordering::SeqCst), 2, "one run per segment");
        let segments: Vec<u64> = copies.iter().map(|c| c.ptr.segment).collect();
        assert_eq!(segments, [active, active, active + 1, active + 1, active + 1, active + 1]);
        assert_eq!(copies[2].ptr.offset, 0);
        for ((info, _), copy) in moved.iter().zip(&copies) {
            assert_eq!(frame_bytes(&dir, copy.ptr), frame_bytes(&dir, info.ptr));
        }
        drop(log);
        let seen = collect_replay(&dir, 4096).unwrap();
        for copy in &copies {
            assert!(seen.iter().any(|r| r.ptr == copy.ptr && r.seqno == copy.seqno));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_ptr_never_reads_through_a_cached_handle() {
        let dir = tmpdir("stale-ptr");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4096), KEY, &mut |_| {})
                .unwrap();
        let first = log.append(RecordKind::Put, b"first", &[1u8; 64]).unwrap();
        // Read while segment 0 is active, then rotate it away: the same
        // ptr must now resolve against sealed segment 0, not against
        // the writer's handle (which points at the new active file).
        assert_eq!(log.read(first.ptr).unwrap().1, b"first");
        let mut i = 0u32;
        while log.frontier().0 == 0 {
            log.append(RecordKind::Put, &i.to_le_bytes(), &[2u8; 64]).unwrap();
            i += 1;
        }
        let (_, key, value, seqno) = log.read(first.ptr).unwrap();
        assert_eq!(
            (key.as_slice(), value.as_slice(), seqno),
            (b"first".as_slice(), &[1u8; 64][..], 1)
        );
        // Segment 0's handle is cached now. Removing the segment must
        // drop it: the unlinked file would still serve bytes otherwise.
        log.remove_segment(0).unwrap();
        let err = log.read(first.ptr).expect_err("ptr into a removed segment");
        assert!(
            matches!(
                err,
                LogError::Io { op: "open-segment", kind: std::io::ErrorKind::NotFound, .. }
            ),
            "got {err:?}"
        );
        // The active segment still reads through the writer's handle.
        let live = log.append(RecordKind::Put, b"live", b"record").unwrap();
        assert_eq!(log.read(live.ptr).unwrap().1, b"live");
        assert_eq!(log.read_count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_handles_are_bounded() {
        let dir = tmpdir("handles");
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).segment_bytes(4096), KEY, &mut |_| {})
                .unwrap();
        let mut ptrs = Vec::new();
        let mut i = 0u32;
        while log.segment_count() <= READ_HANDLES + 8 {
            ptrs.push(log.append(RecordKind::Put, &i.to_le_bytes(), &[3u8; 1024]).unwrap().ptr);
            i += 1;
        }
        // Two passes over more sealed segments than the cache holds:
        // every read is right whether its handle was kept or reopened.
        for _ in 0..2 {
            for (i, ptr) in ptrs.iter().enumerate() {
                assert_eq!(log.read(*ptr).unwrap().1, (i as u32).to_le_bytes());
            }
            assert_eq!(log.readers.len(), READ_HANDLES);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_hook_simulates_crash() {
        let dir = tmpdir("hook");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        log.append(RecordKind::Put, b"whole", b"record").unwrap();
        log.set_fault_hook(Some(Box::new(|frame: &mut Vec<u8>| Some(frame.len() / 2))));
        log.append(RecordKind::Put, b"torn", b"record").unwrap();
        drop(log);
        let seen = collect_replay(&dir, 8 << 20).unwrap();
        assert_eq!(seen.len(), 1, "torn append must vanish on replay");
        assert_eq!(seen[0].key, b"whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_window_coalesces_fsyncs() {
        let dir = tmpdir("gc-coalesce");
        // Per-append fsync: every append is one sync.
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()).sync_writes(true), KEY, &mut |_| {})
                .unwrap();
        for i in 0..8u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"payload").unwrap();
        }
        assert_eq!(log.sync_count(), 8);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);

        // Windowed: appends accumulate, the covering sync pays once.
        let dir = tmpdir("gc-window");
        let mut log = SegmentLog::open(
            LogConfig::new(dir.clone()).sync_writes(true).sync_window_bytes(1 << 20),
            KEY,
            &mut |_| {},
        )
        .unwrap();
        for i in 0..8u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"payload").unwrap();
        }
        assert_eq!(log.sync_count(), 0, "small appends must not fsync inside the window");
        assert!(log.pending_sync_bytes() > 0);
        log.sync().unwrap();
        assert_eq!(log.sync_count(), 1, "one covering fsync for the whole batch");
        assert_eq!(log.pending_sync_bytes(), 0);
        // A full window triggers an inline fsync without waiting for
        // the owner.
        let big = vec![0u8; 4096];
        let mut tiny = SegmentLog::open(
            LogConfig::new(tmpdir("gc-full")).sync_writes(true).sync_window_bytes(4096),
            KEY,
            &mut |_| {},
        )
        .unwrap();
        tiny.append(RecordKind::Put, b"k", &big).unwrap();
        assert_eq!(tiny.sync_count(), 1, "window overflow must fsync inline");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_inside_sync_window_loses_only_unacked_suffix() {
        let dir = tmpdir("gc-crash");
        let mut log = SegmentLog::open(
            LogConfig::new(dir.clone()).sync_writes(true).sync_window_bytes(1 << 20),
            KEY,
            &mut |_| {},
        )
        .unwrap();
        // Ten acked writes: the covering sync ran before any ack.
        for i in 0..10u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"acked").unwrap();
        }
        log.sync().unwrap();
        let (seg, durable_frontier) = log.frontier();
        // Five more inside the open window — never acked.
        for i in 10..15u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"unacked").unwrap();
        }
        drop(log);
        // The crash model: everything past the last fsync is lost.
        crash_cut(&dir, seg, durable_frontier).unwrap();
        let seen = collect_replay(&dir, 8 << 20).unwrap();
        assert_eq!(seen.len(), 10, "exactly the acked prefix survives");
        assert!(seen.iter().all(|r| r.value == b"acked"));
        // And the log remains appendable with fresh seqnos.
        let mut log = SegmentLog::open(
            LogConfig::new(dir.clone()).sync_writes(true).sync_window_bytes(1 << 20),
            KEY,
            &mut |_| {},
        )
        .unwrap();
        let fresh = log.append(RecordKind::Put, b"after", b"crash").unwrap();
        assert!(fresh.seqno > 15, "torn seqnos must not be reused");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_seqno_is_never_reallocated() {
        let dir = tmpdir("seqno-reuse");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        for i in 0..5u32 {
            log.append(RecordKind::Put, &i.to_le_bytes(), b"payload").unwrap();
        }
        let (seg, frontier) = log.frontier();
        drop(log);
        // Tear the last record (seqno 5) off; the host may have kept
        // the torn ciphertext bytes.
        crash_cut(&dir, seg, frontier - 3).unwrap();
        let mut seen = Vec::new();
        let mut log =
            SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |r| seen.push(r.seqno))
                .unwrap();
        assert_eq!(seen.last().copied(), Some(4));
        // The next allocation must NOT reuse seqno 5 with different
        // plaintext — that would repeat a CTR (key, counter) pair. The
        // sealed reservation forces allocation past the pre-crash
        // bound.
        let fresh = log.append(RecordKind::Put, b"other", b"plaintext").unwrap();
        assert!(fresh.seqno > 5, "torn seqno reallocated: got {}", fresh.seqno);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_seqno_reservation_with_segments_refused() {
        let dir = tmpdir("seqno-gone");
        let mut log = SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}).unwrap();
        log.append(RecordKind::Put, b"k", b"v").unwrap();
        drop(log);
        std::fs::remove_file(crate::meta::seqno_path(&dir)).unwrap();
        let err = match SegmentLog::open(LogConfig::new(dir.clone()), KEY, &mut |_| {}) {
            Ok(_) => panic!("deleted reservation over live segments must refuse"),
            Err(e) => e,
        };
        assert_eq!(err, LogError::MetaCorrupt { file: "SEQNO" });
        assert!(err.is_tamper());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn copy_dir(from: &PathBuf, to: &PathBuf) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}
