//! Hot/cold tiering: a RAM-resident hot region over an append-only
//! sealed segment log, with verified crash recovery.
//!
//! [`TieredStore`] wraps any [`KvStore`] as the *hot* region and pairs
//! it with an `aria-log` [`SegmentLog`] as the *cold* tier:
//!
//! * **Writes** go to the hot store first (so its validation and
//!   integrity machinery applies), then append a sealed record to the
//!   log. The log is therefore always a complete history of
//!   acknowledged writes — the hot region is a cache of the log's
//!   latest state, not a separate source of truth.
//! * **Reads** hit the hot region; a miss that lands on a cold key
//!   reads the record from the log (CRC + MAC verified inside the
//!   enclave, crypto charged to the cost model) and answers from that
//!   read. A cold key is *promoted* back into the hot region only on
//!   its B-th cold read within a window of recently read cold keys,
//!   with B a fixed 20 ([`TierStats::promotion_threshold`]). A
//!   promotion costs a hot put now and an inner delete when the entry
//!   is demoted again, about 5.4 µs together where the log sits in the
//!   page cache, and saves about 0.25 µs on each later read (software
//!   AES and CMAC dominate a hot hit and a verified cold read alike),
//!   so it pays only for a key read about 20 times over. This departs
//!   from "the hot region absorbs the working set": PUTs keep the hot
//!   region filled, and only the head of a skewed read load is
//!   promoted. For its first 1 024 cold reads after open the tier
//!   promotes on the second read: open indexes every key cold, so this
//!   refills an empty hot region with the keys read again, at a
//!   bounded cost (at most 512 promotions). Either way a
//!   key touched once costs the hot region nothing, so a scan or a
//!   low-skew tail cannot push the working set out of it.
//! * **Migration** ([`KvStore::maintain`]) evicts the
//!   least-recently-accessed hot entries once the hot region exceeds
//!   its byte budget — just enough of them to cover the excess, popped
//!   oldest first from an ordered map kept beside the hot index, so a
//!   pass costs what it evicts. A hot hit only stamps its entry's
//!   access time and leaves the map alone (the paper's Secure Cache
//!   writes no metadata on a hit either); an entry popped with a stale
//!   time is filed again at its last access, so the victims are still
//!   exactly the least recently used. Eviction is free of log writes:
//!   every hot entry already has a live log record.
//! * **Compaction** copies the live records (including tombstones) of
//!   the deadest sealed segment into the active segment as verified,
//!   unchanged frames ([`SegmentLog::copy_frames`]: a few positional
//!   reads over the victim, every frame verified before any is
//!   appended, then one write per run in source-offset order), fsyncs
//!   them, and deletes the victim file. A copy keeps the record's sequence
//!   number and bytes, so replay ordering — and any checkpointed
//!   content root — is unaffected by compaction. A record that died
//!   *after* the last checkpoint is still that checkpoint's winner for
//!   its key (a *frontier winner*), and recovery needs it to rebuild
//!   the checkpointed root: such records are pinned when superseded
//!   and carried forward by compaction like live ones until the next
//!   checkpoint releases them. Compaction checkpoints first only when
//!   the victim's pinned bytes exceed half of what a checkpointed
//!   compaction would reclaim, or when [`KvStore::recover`] destroyed
//!   a frontier winner (a damaged record is never carried); a pinned
//!   record that fails verification during the copy makes it
//!   checkpoint before the victim goes.
//! * **Checkpoints** pin the store's content root (the same
//!   commutative digest anti-entropy re-sync uses, see
//!   [`crate::resync`]) to a log sequence number, sealed under the log
//!   key. [`TieredStore::open`] replays the log, recomputes the root
//!   over the state at the checkpoint's sequence number, and refuses
//!   to serve ([`StoreError::RecoveryDiverged`]) unless it matches —
//!   torn writes past the checkpoint are truncated, but silent
//!   corruption, tampering, and rollback below the caller's
//!   `min_epoch` floor are detected and refused, never served.
//! * **Digests live with the index.** The root is a function of one
//!   16-byte digest per live pair, and the enclave-side index keeps
//!   that digest beside the record pointer. It is computed where the
//!   verified plaintext is inside the enclave anyway — replay, a cold
//!   GET, or the first checkpoint after the write (the PUT path pays
//!   nothing) — and kept until the key is overwritten. A checkpoint
//!   therefore reads only the pairs written since the last one, and
//!   compaction only the segment it moves; neither re-reads the tier.
//!   The price: a checkpoint is no longer a scrub. Damage to a cold
//!   record the index already has a digest for goes unseen until
//!   something *uses* the bytes — a GET, compaction of its segment,
//!   [`KvStore::recover`]'s audit, or the next open's replay — and
//!   each of those verifies CRC + MAC and refuses; none serves it.
//!
//! The trust model — what the checkpoint does and does not protect
//! against — is spelled out in DESIGN.md §15.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use aria_crypto::CmacKey;
use aria_log::{
    load_checkpoint, save_checkpoint, AppendFaultHook, Checkpoint, FrameCopy, LogConfig, LogError,
    RecordKind, RecordPtr, SegmentLog,
};
use aria_sim::Enclave;

use crate::error::RecoveryFailure;
use crate::resync::{content_root_from_digests, pair_digest_keyed};
use crate::sharded::{fnv1a, splitmix64};
use crate::{CacheStats, KvStore, MaintenanceReport, RecoveryReport, StoreError};

/// Tiering knobs for a [`TieredStore`].
#[derive(Debug, Clone)]
pub struct TieredOptions {
    /// Directory holding the shard's segment log and checkpoint.
    pub dir: PathBuf,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Byte budget (plaintext key+value) for the hot region; migration
    /// evicts down to this.
    pub hot_budget_bytes: usize,
    /// Compact a sealed segment once this fraction of its bytes is
    /// dead.
    pub compact_min_dead_ratio: f64,
    /// Checkpoint after this many mutations (puts + deletes) during
    /// [`KvStore::maintain`]. `0` disables automatic checkpoints.
    pub checkpoint_every: u64,
    /// Minimum checkpoint epoch accepted at open — the rollback floor
    /// the caller carries across restarts (an SGX monotonic counter in
    /// a real deployment). `0` accepts any state, including a missing
    /// checkpoint (first boot).
    pub min_epoch: u64,
    /// Maximum entries migrated per maintenance pass (bounds pause
    /// length).
    pub migrate_batch: usize,
    /// fsync appended log data before acknowledging (see
    /// [`TieredOptions::sync_window_bytes`] for the group-commit
    /// variant). Off by default: benches model the flush boundary
    /// explicitly.
    pub sync_writes: bool,
    /// Group-commit fsync window in bytes, effective with
    /// [`TieredOptions::sync_writes`]. `0` = fsync per append; non-zero
    /// coalesces appends behind one covering fsync issued by
    /// [`KvStore::flush`] (the sharded layer calls it once per submitted
    /// batch, before replying) or inline when the window fills.
    pub sync_window_bytes: u64,
}

impl TieredOptions {
    /// Defaults rooted at `dir`: 8 MiB segments, 64 MiB hot budget,
    /// compaction at 40% dead, checkpoint every 4096 mutations.
    pub fn new<P: Into<PathBuf>>(dir: P) -> TieredOptions {
        TieredOptions {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            hot_budget_bytes: 64 << 20,
            compact_min_dead_ratio: 0.4,
            checkpoint_every: 4096,
            min_epoch: 0,
            migrate_batch: 4096,
            sync_writes: false,
            sync_window_bytes: 0,
        }
    }

    /// Set the hot-region byte budget.
    pub fn hot_budget_bytes(mut self, bytes: usize) -> TieredOptions {
        self.hot_budget_bytes = bytes;
        self
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> TieredOptions {
        self.segment_bytes = bytes;
        self
    }

    /// Set the automatic checkpoint interval (mutations; 0 disables).
    pub fn checkpoint_every(mut self, ops: u64) -> TieredOptions {
        self.checkpoint_every = ops;
        self
    }

    /// Set the rollback floor.
    pub fn min_epoch(mut self, epoch: u64) -> TieredOptions {
        self.min_epoch = epoch;
        self
    }

    /// Set the compaction dead-ratio threshold.
    pub fn compact_min_dead_ratio(mut self, ratio: f64) -> TieredOptions {
        self.compact_min_dead_ratio = ratio;
        self
    }

    /// Enable fsync-before-ack on the log append path.
    pub fn sync_writes(mut self, on: bool) -> TieredOptions {
        self.sync_writes = on;
        self
    }

    /// Set the group-commit fsync window (bytes; 0 = fsync per append).
    pub fn sync_window_bytes(mut self, bytes: u64) -> TieredOptions {
        self.sync_window_bytes = bytes;
        self
    }
}

/// Point-in-time tier occupancy, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Entries resident in the hot region.
    pub hot_entries: u64,
    /// Entries resident only in the cold log.
    pub cold_entries: u64,
    /// Live tombstones awaiting compaction.
    pub tombstones: u64,
    /// Plaintext bytes held by the hot region.
    pub hot_bytes: u64,
    /// Total record bytes across log segments.
    pub log_bytes: u64,
    /// Number of log segment files.
    pub segments: u64,
    /// Epoch of the most recent checkpoint (0 = none yet).
    pub checkpoint_epoch: u64,
    /// Positional log reads since open: one per record read by a cold
    /// GET, a digest fill or an audit, and one per span (of at most
    /// 256 KiB) of a compaction victim that holds records it moves —
    /// a victim costs a few reads, not one per record.
    pub log_reads: u64,
    /// Cold keys promoted into the hot region since open. Demotions are
    /// the `migrations` telemetry counter; the two together are the
    /// tier's churn.
    pub promotions: u64,
    /// The cold read, within the touch window, on which a cold key is
    /// promoted now: 2 for the first 1 024 cold reads after open, 20
    /// from then on (see the module docs).
    pub promotion_threshold: u32,
}

/// Where a live key's latest record lives, and what it digests to.
#[derive(Debug, Clone, Copy)]
struct KeyMeta {
    ptr: RecordPtr,
    seqno: u64,
    /// Plaintext key+value bytes (hot accounting); 0 for cold entries.
    bytes: usize,
    /// Logical access clock value at last touch (hot LRU).
    last_access: u64,
    /// The clock value the entry is filed under in `hot_lru`: its
    /// `last_access` when it was last filed, so never later than it.
    queued: u64,
    /// The pair's content digest ([`pair_digest_keyed`]), once some
    /// verified read has had the plaintext inside the enclave: replay,
    /// a cold GET, or the first checkpoint after the write. `None` on
    /// tombstones, and on a put until then (the PUT path pays no CMAC
    /// for it).
    digest: Option<[u8; 16]>,
}

/// A frontier winner that is no longer its key's live record: the
/// key's latest record at or below the last checkpoint's `last_seqno`,
/// superseded since. Recovery needs it to rebuild the checkpointed
/// root, so compaction carries it forward until the next checkpoint.
#[derive(Debug, Clone, Copy)]
struct Pin {
    ptr: RecordPtr,
    seqno: u64,
    /// Whether `ptr` is a compaction copy. A copy counts as live in its
    /// segment until the next checkpoint marks it dead; the original
    /// was marked dead when its key was overwritten.
    carried: bool,
}

/// The index a key's record belongs to, for [`KvStore::recover`]'s
/// audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Index {
    Cold,
    Hot,
    Tombstone,
}

/// Smallest cold-touch window, so a nearly empty hot region (just after
/// [`TieredStore::open`]) can still re-heat.
const MIN_TOUCH_WINDOW: usize = 64;

/// The keys most recently read cold, with how often each was: a FIFO
/// window of 64-bit fingerprints under a per-store random key (a
/// client cannot craft keys that collide). Residency metadata like
/// `hot_meta` — enclave-side, never persisted, and only ever consulted
/// to choose between two ways of returning the same verified value, so
/// a collision or a stale entry costs an early promotion, not a wrong
/// reply.
#[derive(Default)]
struct ColdTouches {
    hasher: RandomState,
    order: VecDeque<u64>,
    seen: HashMap<u64, u32>,
}

impl ColdTouches {
    /// Count a cold read of `key` and return how many the window holds
    /// for it, this one included. A key new to the window pushes the
    /// oldest out once it holds `window` keys.
    fn touch(&mut self, key: &[u8], window: usize) -> u32 {
        let fingerprint = self.hasher.hash_one(key);
        if let Some(reads) = self.seen.get_mut(&fingerprint) {
            *reads = reads.saturating_add(1);
            return *reads;
        }
        self.seen.insert(fingerprint, 1);
        self.order.push_back(fingerprint);
        while self.order.len() > window {
            let oldest = self.order.pop_front().expect("len > window >= 0");
            self.seen.remove(&oldest);
        }
        1
    }
}

/// The cold read, within the touch window, on which a cold key is
/// promoted once the tier is warm: about what a promotion (a hot put,
/// then an inner delete at demotion) costs over what a hot hit saves
/// against a verified cold read, measured on a log in the page cache.
const PROMOTE_ON_COLD_READ: u32 = 20;

/// Cold reads after open during which a cold key is promoted on its
/// second one, refilling the hot region that open leaves empty.
const WARM_UP_COLD_READS: u64 = 1024;

/// A [`KvStore`] split into a hot in-memory region and a cold sealed
/// segment log, with verified crash recovery. See the module docs.
pub struct TieredStore<S: KvStore> {
    hot: S,
    log: SegmentLog,
    log_key: [u8; 16],
    opts: TieredOptions,
    /// Keys resident in the hot region (their record also lives in the
    /// log).
    hot_meta: HashMap<Vec<u8>, KeyMeta>,
    /// The same keys by [`KeyMeta::queued`], oldest first. A hit moves
    /// no entry; demotion files an entry popped with a stale time again
    /// at its `last_access`, so it still evicts exactly the
    /// least-recently-used entries, without scanning. Times are unique
    /// (the clock ticks on every touch).
    hot_lru: BTreeMap<u64, Vec<u8>>,
    /// Keys resident only in the log.
    cold: HashMap<Vec<u8>, KeyMeta>,
    /// The cold keys by [`cold_position`], sorted once per export pass
    /// (see `export_chunk`); empty between passes.
    export_order: Vec<(u64, Vec<u8>)>,
    /// Deleted keys whose tombstone record must stay live until a new
    /// put supersedes it (dropping it would resurrect older puts on
    /// replay).
    tombstones: HashMap<Vec<u8>, KeyMeta>,
    /// Keys whose cold record failed verification during a recovery
    /// sweep; reads fail closed ([`crate::Violation::DataDestroyed`]).
    destroyed: HashSet<Vec<u8>>,
    /// Cold keys read once and not promoted (see [`ColdTouches`]).
    cold_touches: ColdTouches,
    /// Cold reads since open: the warm-up of the promotion threshold.
    cold_reads: u64,
    promotions: u64,
    hot_bytes: usize,
    /// Logical access clock for hot LRU.
    clock: u64,
    mutations_since_checkpoint: u64,
    checkpoint_epoch: u64,
    /// The last checkpoint's `last_seqno` (0 = none yet).
    frontier_seqno: u64,
    /// Frontier winners superseded since the last checkpoint, at most
    /// one per key (see [`Pin`]).
    pinned: Vec<Pin>,
    /// Whether [`KvStore::recover`] destroyed a frontier winner since
    /// the last checkpoint: it cannot be carried, so the next
    /// compaction checkpoints first.
    frontier_destroyed: bool,
    tele: Option<Arc<aria_telemetry::ShardTelemetry>>,
}

impl<S: KvStore> std::fmt::Debug for TieredStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("hot_entries", &self.hot_meta.len())
            .field("cold_entries", &self.cold.len())
            .field("tombstones", &self.tombstones.len())
            .field("hot_bytes", &self.hot_bytes)
            .field("checkpoint_epoch", &self.checkpoint_epoch)
            .finish_non_exhaustive()
    }
}

/// A cold key's export position: a 63-bit hash, so an export cursor keeps
/// its tier tag bit.
fn cold_position(key: &[u8]) -> u64 {
    splitmix64(fnv1a(key)) >> 1
}

/// Map a log failure on the *runtime* read path: detected corruption or
/// tampering of a sealed record is an integrity violation (it triggers
/// shard quarantine + recovery like any other tampered entry); plain
/// I/O failure is not.
fn runtime_log_err(e: LogError) -> StoreError {
    match e {
        LogError::Corrupt { .. } | LogError::Tampered { .. } => {
            StoreError::Integrity(crate::Violation::EntryMacMismatch)
        }
        LogError::Io { op, msg, .. } => StoreError::Log { op, detail: msg },
        LogError::CheckpointCorrupt => {
            StoreError::RecoveryDiverged { reason: RecoveryFailure::CheckpointCorrupt }
        }
        LogError::MetaCorrupt { file } => {
            StoreError::RecoveryDiverged { reason: RecoveryFailure::MetaCorrupt { file } }
        }
        LogError::Config(msg) => StoreError::Log { op: "config", detail: msg },
    }
}

/// Map a log failure during *recovery*: integrity failures become typed
/// [`StoreError::RecoveryDiverged`] refusals.
fn recovery_log_err(e: LogError) -> StoreError {
    match e {
        LogError::Corrupt { segment, offset } => {
            StoreError::RecoveryDiverged { reason: RecoveryFailure::LogCorrupt { segment, offset } }
        }
        LogError::Tampered { segment, offset } => StoreError::RecoveryDiverged {
            reason: RecoveryFailure::LogTampered { segment, offset },
        },
        LogError::CheckpointCorrupt => {
            StoreError::RecoveryDiverged { reason: RecoveryFailure::CheckpointCorrupt }
        }
        LogError::MetaCorrupt { file } => {
            StoreError::RecoveryDiverged { reason: RecoveryFailure::MetaCorrupt { file } }
        }
        LogError::Io { op, msg, .. } => StoreError::Log { op, detail: msg },
        LogError::Config(msg) => StoreError::Log { op: "config", detail: msg },
    }
}

/// Derive the log sealing key from the store's master secret and the
/// log directory's identity nonce (domain separated from the
/// entry/counter keys the hot store derives). Mixing the nonce in
/// gives every log its own key: the shards of a `ShardedStore` share
/// one master secret and all start their seqnos at 1, so a
/// nonce-less derivation would encrypt shard A's seqno `n` and shard
/// B's seqno `n` under the same CTR keystream.
fn derive_log_key(master_key: &[u8; 16], log_nonce: &[u8; 16]) -> [u8; 16] {
    let mut input = Vec::with_capacity(20 + 16);
    input.extend_from_slice(b"aria-log-tier-key-v2");
    input.extend_from_slice(log_nonce);
    CmacKey::new(master_key).mac(&input)
}

/// Replay bookkeeping for one key while scanning segments.
struct ReplayState {
    /// Latest record overall (the live state after full replay).
    all: (u64, RecordKind, RecordPtr),
    /// Latest record at or below the checkpoint seqno: its seqno, for
    /// a put the pair's digest (all the checkpointed root needs —
    /// holding values here would hold the whole data set in memory),
    /// and where it lives (pinned when it is not the overall winner).
    at_checkpoint: Option<(u64, Option<[u8; 16]>, RecordPtr)>,
}

/// Read the cold pair `meta` points at: CRC + MAC verified by the log,
/// then checked to be the record the index says it is.
fn read_cold_pair(
    log: &mut SegmentLog,
    key: &[u8],
    meta: &KeyMeta,
) -> Result<(Vec<u8>, Vec<u8>), StoreError> {
    let (kind, k, v, seqno) = log.read(meta.ptr).map_err(runtime_log_err)?;
    if kind != RecordKind::Put || k != key || seqno != meta.seqno {
        return Err(StoreError::Integrity(crate::Violation::EntryMacMismatch));
    }
    Ok((k, v))
}

impl<S: KvStore> TieredStore<S> {
    /// Open the tier over `hot` (which must be empty — recovery leaves
    /// every key cold and re-heats lazily): replay the log, verify the
    /// replayed state against the sealed checkpoint, and refuse to
    /// serve on any divergence. A directory with no log and no
    /// checkpoint is a first boot (only accepted when
    /// `opts.min_epoch == 0`).
    pub fn open(
        hot: S,
        master_key: &[u8; 16],
        opts: TieredOptions,
    ) -> Result<TieredStore<S>, StoreError> {
        let log_nonce = aria_log::load_or_create_log_nonce(&opts.dir).map_err(recovery_log_err)?;
        let log_key = derive_log_key(master_key, &log_nonce);
        let checkpoint = load_checkpoint(&opts.dir, &log_key).map_err(recovery_log_err)?;
        if let Some(cp) = &checkpoint {
            if cp.epoch < opts.min_epoch {
                return Err(StoreError::RecoveryDiverged {
                    reason: RecoveryFailure::Rollback {
                        checkpoint_epoch: cp.epoch,
                        min_epoch: opts.min_epoch,
                    },
                });
            }
        } else if opts.min_epoch > 0 {
            // The caller has attested state; a missing checkpoint is a
            // rollback to before the first attestation.
            return Err(StoreError::RecoveryDiverged {
                reason: RecoveryFailure::Rollback {
                    checkpoint_epoch: 0,
                    min_epoch: opts.min_epoch,
                },
            });
        }
        let checkpoint_seqno = checkpoint.map(|c| c.last_seqno).unwrap_or(0);

        // Replay every segment; per key keep the overall winner (live
        // state) and the winner at the checkpoint frontier (for root
        // verification). Compaction rewrites reuse seqnos, so
        // latest-wins MUST resolve by seqno, not file order.
        let mut state: HashMap<Vec<u8>, ReplayState> = HashMap::new();
        let mut dead: Vec<RecordPtr> = Vec::new();
        let mut unattested = 0u64;
        let log_cfg = LogConfig::new(opts.dir.clone())
            .segment_bytes(opts.segment_bytes)
            .sync_writes(opts.sync_writes)
            .sync_window_bytes(opts.sync_window_bytes);
        let log = SegmentLog::open(log_cfg, &log_key, &mut |r| {
            unattested += u64::from(r.seqno > checkpoint_seqno);
            let frontier = |key: &[u8]| {
                let digest = (r.kind == RecordKind::Put).then(|| pair_digest_keyed(key, &r.value));
                (r.seqno, digest, r.ptr)
            };
            match state.entry(r.key) {
                Entry::Vacant(slot) => {
                    let at_checkpoint = (r.seqno <= checkpoint_seqno).then(|| frontier(slot.key()));
                    slot.insert(ReplayState { all: (r.seqno, r.kind, r.ptr), at_checkpoint });
                }
                Entry::Occupied(mut slot) => {
                    let wins_frontier = r.seqno <= checkpoint_seqno
                        && slot.get().at_checkpoint.is_none_or(|(winner, ..)| winner < r.seqno);
                    if wins_frontier {
                        let at_checkpoint = frontier(slot.key());
                        slot.get_mut().at_checkpoint = Some(at_checkpoint);
                    }
                    let st = slot.get_mut();
                    if r.seqno > st.all.0 {
                        dead.push(st.all.2);
                        st.all = (r.seqno, r.kind, r.ptr);
                    } else {
                        // A compaction rewrite of an older record (or
                        // the original of a rewritten one): dead.
                        dead.push(r.ptr);
                    }
                }
            }
        })
        .map_err(recovery_log_err)?;

        // Verify: the state at the checkpoint frontier must reproduce
        // the sealed root exactly.
        if let Some(cp) = &checkpoint {
            let digests =
                state.values().filter_map(|st| st.at_checkpoint.and_then(|(_, d, _)| d)).collect();
            let root = content_root_from_digests(digests);
            if root.pairs != cp.pairs || root.digest != cp.root {
                return Err(StoreError::RecoveryDiverged { reason: RecoveryFailure::RootMismatch });
            }
        }

        // Build the live (all-cold) index from the overall winners.
        let mut store = TieredStore {
            hot,
            log,
            log_key,
            opts,
            hot_meta: HashMap::new(),
            hot_lru: BTreeMap::new(),
            cold: HashMap::new(),
            export_order: Vec::new(),
            tombstones: HashMap::new(),
            destroyed: HashSet::new(),
            cold_touches: ColdTouches::default(),
            cold_reads: 0,
            promotions: 0,
            hot_bytes: 0,
            clock: 0,
            // Records past the frontier are mutations no checkpoint
            // covers; the periodic rule counts them as this process's.
            mutations_since_checkpoint: unattested,
            checkpoint_epoch: checkpoint.map(|c| c.epoch).unwrap_or(0),
            frontier_seqno: checkpoint_seqno,
            pinned: Vec::new(),
            frontier_destroyed: false,
            tele: None,
        };
        // Sized once: `state` is still alive here, and growing the index
        // by doubling beside it is the memory high-water mark of an open.
        store.cold.reserve(state.len());
        for (key, st) in state {
            let (seqno, kind, ptr) = st.all;
            // The digest replay computed is this record's only if the
            // frontier winner is also the overall winner. Otherwise the
            // tail past the frontier superseded it, and it is pinned
            // exactly as `supersede` would have pinned it before the
            // restart.
            let digest = match st.at_checkpoint {
                Some((s, d, _)) if s == seqno => d,
                Some((seqno, _, ptr)) => {
                    store.pinned.push(Pin { ptr, seqno, carried: false });
                    None
                }
                None => None,
            };
            let meta = KeyMeta { ptr, seqno, bytes: 0, last_access: 0, queued: 0, digest };
            match kind {
                RecordKind::Put => {
                    store.cold.insert(key, meta);
                }
                RecordKind::Delete => {
                    store.tombstones.insert(key, meta);
                }
            }
        }
        for ptr in dead {
            store.log.mark_dead(ptr);
        }
        Ok(store)
    }

    /// Tier occupancy snapshot.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            hot_entries: self.hot_meta.len() as u64,
            cold_entries: self.cold.len() as u64,
            tombstones: self.tombstones.len() as u64,
            hot_bytes: self.hot_bytes as u64,
            log_bytes: self.log.total_bytes(),
            segments: self.log.segment_count() as u64,
            checkpoint_epoch: self.checkpoint_epoch,
            log_reads: self.log.read_count(),
            promotions: self.promotions,
            promotion_threshold: self.promotion_threshold(),
        }
    }

    /// Whether `key` is resident in the hot region. Every live key's
    /// latest record is in the log either way; this is residency only.
    pub fn is_hot(&self, key: &[u8]) -> bool {
        self.hot_meta.contains_key(key)
    }

    /// The cold read, within the touch window, on which the next cold
    /// read of a key promotes it.
    fn promotion_threshold(&self) -> u32 {
        if self.cold_reads < WARM_UP_COLD_READS {
            2
        } else {
            PROMOTE_ON_COLD_READ
        }
    }

    /// The log's append frontier (segment id, byte offset) — everything
    /// below it is flushed state a crash cut can land in. Used by the
    /// durability bench to aim SIGKILL-style cuts.
    pub fn log_frontier(&self) -> (u64, u64) {
        self.log.frontier()
    }

    /// The epoch of the most recent checkpoint (0 = none yet). Carry
    /// `epoch` forward as [`TieredOptions::min_epoch`] across restarts
    /// to arm the rollback defence.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Install (or clear) the chaos harness's append fault hook (torn
    /// appends / host bit flips on the write path).
    pub fn set_log_fault_hook(&mut self, hook: Option<AppendFaultHook>) {
        self.log.set_fault_hook(hook);
    }

    /// Checkpoint now: combine the per-pair digests the index already
    /// holds into the content root, flush the log, and seal root +
    /// counters to disk. Only a pair whose digest is still missing is
    /// read — a hot one from the inner store, a cold one by a
    /// MAC-verified log read — and its digest is kept from then on, so
    /// a checkpoint costs what changed since the last one plus one
    /// pass over 16 bytes per key, not a re-read of the tier. Returns
    /// the new checkpoint.
    pub fn force_checkpoint(&mut self) -> Result<Checkpoint, StoreError> {
        let mut digests: Vec<[u8; 16]> = Vec::with_capacity(self.len() as usize);
        for (key, meta) in self.hot_meta.iter_mut() {
            if meta.digest.is_none() {
                let value = self
                    .hot
                    .get(key)?
                    .ok_or(StoreError::Integrity(crate::Violation::EntryMacMismatch))?;
                self.hot.enclave().charge_mac(16 + key.len() + value.len());
                meta.digest = Some(pair_digest_keyed(key, &value));
            }
            digests.extend(meta.digest);
        }
        for (key, meta) in self.cold.iter_mut() {
            if meta.digest.is_none() {
                let (k, v) = read_cold_pair(&mut self.log, key, meta)?;
                self.hot.enclave().charge_crypt(k.len() + v.len());
                self.hot.enclave().charge_mac(16 + k.len() + v.len());
                meta.digest = Some(pair_digest_keyed(&k, &v));
            }
            digests.extend(meta.digest);
        }
        let root = content_root_from_digests(digests);
        self.log.sync().map_err(runtime_log_err)?;
        let cp = Checkpoint {
            epoch: self.checkpoint_epoch + 1,
            last_seqno: self.log.last_seqno(),
            pairs: root.pairs,
            root: root.digest,
        };
        save_checkpoint(&self.opts.dir, &self.log_key, &cp).map_err(runtime_log_err)?;
        self.checkpoint_epoch = cp.epoch;
        self.mutations_since_checkpoint = 0;
        // Every key's frontier winner is now its live record: the pins
        // are released, and their carried copies are garbage.
        self.frontier_seqno = cp.last_seqno;
        self.frontier_destroyed = false;
        for pin in self.pinned.drain(..) {
            if pin.carried {
                self.log.mark_dead(pin.ptr);
            }
        }
        if let Some(tele) = &self.tele {
            tele.store.checkpoints.inc();
        }
        Ok(cp)
    }

    /// Mark the predecessor record of `key` dead (it is being
    /// superseded by a fresh append) and drop it from whichever index
    /// holds it. A predecessor at or below the checkpoint frontier is
    /// the key's frontier winner: it is pinned for compaction to carry.
    fn supersede(&mut self, key: &[u8]) {
        let meta = if let Some(meta) = self.hot_meta.remove(key) {
            self.hot_lru.remove(&meta.queued);
            self.hot_bytes -= meta.bytes.min(self.hot_bytes);
            meta
        } else if let Some(meta) = self.cold.remove(key) {
            meta
        } else if let Some(meta) = self.tombstones.remove(key) {
            meta
        } else {
            return;
        };
        self.log.mark_dead(meta.ptr);
        if meta.seqno <= self.frontier_seqno {
            self.pinned.push(Pin { ptr: meta.ptr, seqno: meta.seqno, carried: false });
        }
    }

    /// Migrate least-recently-accessed hot entries to cold until the
    /// hot region fits its budget (bounded by `migrate_batch`): the
    /// oldest entries of `hot_lru`, popped until they cover the excess.
    /// An entry hit since it was filed is filed again at its last
    /// access instead: every entry still ahead of it was last accessed
    /// no later than it is filed, so the first entry popped with a
    /// current time is the least recently used one.
    /// A key whose inner-store delete fails still moves to the cold
    /// index — its latest record is in the log, verified on every read
    /// — and the failure is returned after the move, so no key is ever
    /// left in neither index.
    fn migrate(&mut self) -> Result<u64, StoreError> {
        let excess = self.hot_bytes.saturating_sub(self.opts.hot_budget_bytes);
        let (mut covered, mut migrated, mut failed) = (0usize, 0u64, None);
        while covered < excess && (migrated as usize) < self.opts.migrate_batch {
            let Some((queued, key)) = self.hot_lru.pop_first() else { break };
            let meta = self.hot_meta.get_mut(&key).expect("every LRU key is hot");
            if meta.last_access > queued {
                meta.queued = meta.last_access;
                self.hot_lru.insert(meta.last_access, key);
                continue;
            }
            let meta = self.hot_meta.remove(&key).expect("every LRU key is hot");
            // The log already holds the entry's latest record; eviction
            // just drops the DRAM copy.
            let dropped = self.hot.delete(&key);
            self.hot_bytes -= meta.bytes.min(self.hot_bytes);
            covered += meta.bytes;
            self.cold.insert(key, KeyMeta { bytes: 0, ..meta });
            migrated += 1;
            if let Err(e) = dropped {
                failed = Some(e);
                break;
            }
        }
        if migrated > 0 {
            if let Some(tele) = &self.tele {
                tele.store.migrations.add(migrated);
            }
        }
        failed.map_or(Ok(migrated), Err)
    }

    /// Compact the deadest sealed segment, if any qualifies: copy its
    /// live records (puts *and* tombstones — dropping a tombstone would
    /// resurrect older puts on replay) and its pinned frontier winners
    /// into the active segment, then delete the victim file. A pinned
    /// record that fails verification is dropped after a checkpoint
    /// instead of carried. Reports the segment, the records copied,
    /// and whether it checkpointed.
    fn compact(&mut self) -> Result<MaintenanceReport, StoreError> {
        let mut report = MaintenanceReport::default();
        let Some(victim) = self.log.victim_segment(self.opts.compact_min_dead_ratio) else {
            return Ok(report);
        };
        if self.checkpoint_before_compacting(victim) {
            self.force_checkpoint()?;
            report.checkpointed = true;
        }
        // The live records pointing into the victim, then its pinned
        // frontier winners. `copy_frames` refuses a live frame that is
        // not the indexed record before it appends anything; a pin that
        // fails is reported and the rest are copied.
        let in_victim = |m: &KeyMeta| m.ptr.segment == victim;
        let mut live: Vec<(usize, Vec<u8>, RecordPtr, u64)> = Vec::new();
        for (tier, map) in [&self.hot_meta, &self.cold, &self.tombstones].into_iter().enumerate() {
            live.extend(
                map.iter()
                    .filter(|(_, m)| in_victim(m))
                    .map(|(k, m)| (tier, k.clone(), m.ptr, m.seqno)),
            );
        }
        let pins: Vec<usize> =
            (0..self.pinned.len()).filter(|&i| self.pinned[i].ptr.segment == victim).collect();
        let mut frames: Vec<FrameCopy<'_>> = live
            .iter()
            .map(|(_, key, ptr, seqno)| FrameCopy {
                ptr: *ptr,
                seqno: *seqno,
                key: Some(key),
                required: true,
            })
            .collect();
        frames.extend(pins.iter().map(|&i| {
            let Pin { ptr, seqno, .. } = self.pinned[i];
            FrameCopy { ptr, seqno, key: None, required: false }
        }));
        let copies = self.log.copy_frames(&frames).map_err(runtime_log_err)?;
        let (live_copies, pin_copies) = copies.split_at(live.len());
        for ((tier, key, ..), copy) in live.iter().zip(live_copies) {
            let (_, info) = copy.as_ref().expect("a required copy that failed fails the batch");
            let map = match tier {
                0 => &mut self.hot_meta,
                1 => &mut self.cold,
                _ => &mut self.tombstones,
            };
            map.get_mut(key).expect("collected from this index above").ptr = info.ptr;
            report.records_rewritten += 1;
        }
        let mut winner_lost = false;
        for (&i, copy) in pins.iter().zip(pin_copies) {
            match copy {
                Ok((_, info)) => {
                    self.pinned[i] = Pin { ptr: info.ptr, seqno: info.seqno, carried: true };
                    report.records_rewritten += 1;
                }
                // Only a verification failure is reported per frame.
                Err(_) => winner_lost = true,
            }
        }
        // A frontier winner that no longer verifies cannot be carried,
        // and no read ever reaches it to quarantine the shard: it is
        // destroyed here. Checkpointing releases it (and every other
        // pin), so the victim can still go and maintenance carries on.
        if winner_lost {
            self.force_checkpoint()?;
            report.checkpointed = true;
        }
        // The copies must be durable before the victim — the only other
        // copy of those records — is unlinked, or a power cut in
        // between loses live state.
        self.log.sync().map_err(runtime_log_err)?;
        self.log.remove_segment(victim).map_err(runtime_log_err)?;
        if let Some(tele) = &self.tele {
            tele.store.compactions.inc();
        }
        report.segments_compacted = 1;
        Ok(report)
    }

    /// Whether compacting `victim` must checkpoint first, which
    /// releases every pin. Two cases: a frontier winner was destroyed
    /// (it cannot be carried, and dropping it would leave the
    /// checkpointed root unreproducible), or carrying would cost too
    /// much — the victim's pinned bytes exceed half of what a
    /// checkpointed compaction would reclaim (its dead bytes plus its
    /// carried copies, which that checkpoint would kill). So every
    /// compaction reclaims at least half of what a checkpointed one
    /// would, with or without `checkpoint_every`. This is a
    /// correctness rule, not a tuning knob: it runs even when
    /// `checkpoint_every` is 0.
    fn checkpoint_before_compacting(&self, victim: u64) -> bool {
        if self.frontier_destroyed {
            return true;
        }
        let (mut pinned, mut carried) = (0u64, 0u64);
        for pin in self.pinned.iter().filter(|p| p.ptr.segment == victim) {
            pinned += u64::from(pin.ptr.len);
            if pin.carried {
                carried += u64::from(pin.ptr.len);
            }
        }
        let dead = self
            .log
            .segment_stats()
            .into_iter()
            .find_map(|(id, st)| (id == victim).then_some(st.dead_bytes))
            .unwrap_or(0);
        2 * pinned > dead + carried
    }

    /// Append a tombstone for `key` and index it in place of whatever
    /// record the key had.
    fn log_tombstone(&mut self, key: &[u8]) -> Result<(), StoreError> {
        let info = self.log.append(RecordKind::Delete, key, &[]).map_err(runtime_log_err)?;
        self.supersede(key);
        self.tombstones.insert(
            key.to_vec(),
            KeyMeta {
                ptr: info.ptr,
                seqno: info.seqno,
                bytes: 0,
                last_access: 0,
                queued: 0,
                digest: None,
            },
        );
        self.mutations_since_checkpoint += 1;
        Ok(())
    }

    /// Undo a hot-store `put` whose log append failed: the inner store
    /// holds a value with no log record, and leaving it there would
    /// let `force_checkpoint` (which digests a hot pair from the inner
    /// store) seal a root that replay can never reproduce. A
    /// previously-hot key demotes to cold — its prior record is still
    /// live in the log, and the digest it carries is that record's.
    fn rollback_hot_put(&mut self, key: &[u8]) {
        if self.hot.delete(key).is_err() {
            // The inner store refused the rollback (its own integrity
            // machinery tripped); fail the key closed until recovery
            // sorts it out.
            self.destroyed.insert(key.to_vec());
        }
        if let Some(meta) = self.hot_meta.remove(key) {
            self.hot_lru.remove(&meta.queued);
            self.hot_bytes -= meta.bytes.min(self.hot_bytes);
            self.cold.insert(key.to_vec(), KeyMeta { bytes: 0, ..meta });
        }
    }
}

impl<S: KvStore> KvStore for TieredStore<S> {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        // Hot store first: its validation (key/value limits) and
        // integrity machinery gate what reaches the log. A crash
        // between the two loses only an unacknowledged write.
        self.hot.put(key, value)?;
        let info = match self.log.append(RecordKind::Put, key, value) {
            Ok(info) => info,
            Err(e) => {
                self.rollback_hot_put(key);
                return Err(runtime_log_err(e));
            }
        };
        self.supersede(key);
        self.destroyed.remove(key);
        self.clock += 1;
        let bytes = key.len() + value.len();
        self.hot_lru.insert(self.clock, key.to_vec());
        self.hot_meta.insert(
            key.to_vec(),
            KeyMeta {
                ptr: info.ptr,
                seqno: info.seqno,
                bytes,
                last_access: self.clock,
                queued: self.clock,
                digest: None,
            },
        );
        self.hot_bytes += bytes;
        self.mutations_since_checkpoint += 1;
        Ok(())
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        if self.destroyed.contains(key) {
            return Err(StoreError::Integrity(crate::Violation::DataDestroyed));
        }
        self.clock += 1;
        if let Some(meta) = self.hot_meta.get_mut(key) {
            // `hot_lru` is left alone: `migrate` files the entry again
            // if it reaches the front.
            meta.last_access = self.clock;
            return self.hot.get(key);
        }
        if self.tombstones.contains_key(key) {
            return Ok(None);
        }
        let Some(&meta) = self.cold.get(key) else {
            return Ok(None);
        };
        // Cold read: verified log read, charged to the enclave like any
        // sealed-entry open. The reply is that read either way; whether
        // the key also moves into the hot region depends on how often
        // it was read cold before and on the promotion threshold (the
        // record stays live — promotion changes residency, not truth).
        let started = Instant::now();
        let (k, v) = read_cold_pair(&mut self.log, key, &meta)?;
        let bytes = k.len() + v.len();
        self.hot.enclave().charge_crypt(bytes);
        self.hot.enclave().charge_mac(16 + bytes);
        // The verified plaintext is in hand: digest it now if no
        // earlier read did, so no checkpoint has to read it again.
        let digest = meta.digest.unwrap_or_else(|| {
            self.hot.enclave().charge_mac(16 + bytes);
            pair_digest_keyed(&k, &v)
        });
        let window = self.hot_meta.len().max(MIN_TOUCH_WINDOW);
        let threshold = self.promotion_threshold();
        self.cold_reads += 1;
        if self.cold_touches.touch(key, window) >= threshold {
            self.hot.put(&k, &v)?;
            self.cold.remove(key);
            self.hot_lru.insert(self.clock, k.clone());
            self.hot_meta.insert(
                k,
                KeyMeta {
                    bytes,
                    last_access: self.clock,
                    queued: self.clock,
                    digest: Some(digest),
                    ..meta
                },
            );
            self.hot_bytes += bytes;
            self.promotions += 1;
        } else if meta.digest.is_none() {
            self.cold.get_mut(key).expect("found in the cold index above").digest = Some(digest);
        }
        if let Some(tele) = &self.tele {
            tele.store.cold_read_latency.observe(started.elapsed().as_nanos() as u64);
        }
        Ok(Some(v))
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError> {
        if self.destroyed.contains(key) {
            return Err(StoreError::Integrity(crate::Violation::DataDestroyed));
        }
        let was_hot = self.hot_meta.contains_key(key);
        let existed = was_hot || self.cold.contains_key(key);
        if !existed {
            return Ok(false);
        }
        // Tombstone append first: if it fails, nothing has mutated and
        // the delete simply did not happen. (The mirror order — hot
        // delete then append — left the key erased in DRAM but live in
        // the log on append failure.)
        self.log_tombstone(key)?;
        if was_hot {
            if let Err(e) = self.hot.delete(key) {
                // The tombstone is logged and indexed, but the inner
                // store failed mid-delete (its integrity machinery
                // tripped, which quarantines the shard); fail the key
                // closed meanwhile.
                self.destroyed.insert(key.to_vec());
                return Err(e);
            }
        }
        Ok(true)
    }

    fn len(&self) -> u64 {
        (self.hot_meta.len() + self.cold.len()) as u64
    }

    fn enclave(&self) -> &Arc<Enclave> {
        self.hot.enclave()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.hot.cache_stats()
    }

    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        let mut report = self.hot.recover()?;
        // Audit every record the indexes point at, in one pass: a cold
        // key's, a hot key's and a tombstone's must each still verify.
        let mut damaged = Vec::new();
        for (index, kind, map) in [
            (Index::Cold, RecordKind::Put, &self.cold),
            (Index::Hot, RecordKind::Put, &self.hot_meta),
            (Index::Tombstone, RecordKind::Delete, &self.tombstones),
        ] {
            for (key, meta) in map {
                match self.log.read(meta.ptr) {
                    Ok((read_kind, read_key, _, seqno))
                        if read_kind == kind && read_key == *key && seqno == meta.seqno =>
                    {
                        report.entries_verified += u64::from(index == Index::Cold);
                    }
                    Ok(_) | Err(LogError::Corrupt { .. } | LogError::Tampered { .. }) => {
                        damaged.push((index, key.clone(), *meta));
                    }
                    Err(e) => return Err(runtime_log_err(e)),
                }
            }
        }
        for (index, key, meta) in damaged {
            match index {
                // A cold record is the key's only copy: the key is
                // destroyed and fails closed from here on, exactly like
                // a condemned hot entry.
                Index::Cold => {
                    self.cold.remove(&key);
                    self.log.mark_dead(meta.ptr);
                    self.destroyed.insert(key);
                    report.entries_destroyed += 1;
                    // A destroyed frontier winner cannot be carried:
                    // the next compaction checkpoints before it drops
                    // the record.
                    self.frontier_destroyed |= meta.seqno <= self.frontier_seqno;
                }
                // A hot key's or a tombstone's record is its only
                // durable copy, and compaction refuses to move one that
                // no longer verifies (a shard would be quarantined on
                // every pass). The index still holds the verified state
                // — the hot store's value, or the deletion — so it is
                // logged again; the damaged record is dead, or pinned
                // and checkpointed away by the compaction that finds
                // it, and leaves with its segment.
                Index::Hot => {
                    let value = self
                        .hot
                        .get(&key)?
                        .ok_or(StoreError::Integrity(crate::Violation::EntryMacMismatch))?;
                    self.put(&key, &value)?;
                }
                Index::Tombstone => self.log_tombstone(&key)?,
            }
        }
        Ok(report)
    }

    fn attach_telemetry(&mut self, tele: Arc<aria_telemetry::ShardTelemetry>) {
        self.hot.attach_telemetry(Arc::clone(&tele));
        self.tele = Some(tele);
    }

    fn refresh_gauges(&self) {
        self.hot.refresh_gauges();
        if let Some(tele) = &self.tele {
            tele.store.hot_entries.set(self.hot_meta.len() as u64);
            tele.store.cold_entries.set(self.cold.len() as u64);
            // The inner store's keys_live gauge only covers the hot
            // region; report the full logical key count.
            tele.store.keys_live.set(self.len());
        }
    }

    /// Stream the full verified contents: first the hot region
    /// (delegated to the inner store's export, cursor tagged with LSB
    /// 0), then the cold tier from verified log reads (LSB 1, the
    /// 63-bit `cold_position` hash to resume at). Any sorted snapshot of the cold
    /// keys resumes such a cursor, so one is taken per pass, not per
    /// call. A chunk ends between positions, so it may exceed `max` by a
    /// run of keys with equal positions.
    fn export_chunk(
        &mut self,
        cursor: u64,
        max: usize,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, Option<u64>), StoreError> {
        if cursor & 1 == 0 {
            let (pairs, next) = self.hot.export_chunk(cursor >> 1, max)?;
            let next = match next {
                Some(c) => Some(c << 1),
                None => (!self.cold.is_empty()).then_some(1),
            };
            return Ok((pairs, next));
        }
        let from = cursor >> 1;
        if from == 0 || self.export_order.is_empty() {
            self.export_order = self.cold.keys().map(|k| (cold_position(k), k.clone())).collect();
            self.export_order.sort_unstable();
        }
        let start = self.export_order.partition_point(|(h, _)| *h < from);
        let mut out = Vec::new();
        let mut at = None;
        for (h, key) in &self.export_order[start..] {
            if out.len() >= max.max(1) && at != Some(*h) {
                return Ok((out, Some((h << 1) | 1)));
            }
            // A key gone from the cold tier since the snapshot is skipped.
            if let Some(meta) = self.cold.get(key) {
                out.push(read_cold_pair(&mut self.log, key, meta)?);
                at = Some(*h);
            }
        }
        self.export_order = Vec::new();
        Ok((out, None))
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        // The covering fsync of an open group-commit window. A no-op
        // when nothing is pending (per-append sync, or durability off)
        // — every drained batch calls this, so the fast path must stay
        // free.
        if self.log.pending_sync_bytes() > 0 {
            self.log.sync().map_err(runtime_log_err)?;
        }
        Ok(())
    }

    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        let migrated = self.migrate()?;
        let mut report = self.compact()?;
        report.migrated = migrated;
        if self.opts.checkpoint_every > 0
            && self.mutations_since_checkpoint >= self.opts.checkpoint_every
        {
            self.force_checkpoint()?;
            report.checkpointed = true;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AriaHash, StoreConfig, Violation};
    use aria_cache::CacheConfig;
    use aria_sim::{CostModel, Enclave};

    const MASTER: &[u8; 16] = b"tiered-test-mast";

    fn hot_store() -> AriaHash {
        let mut cfg = StoreConfig::for_keys(4096);
        cfg.cache = CacheConfig::with_capacity(8 << 20);
        cfg.master_key = *MASTER;
        AriaHash::new(cfg, Arc::new(Enclave::new(CostModel::default(), 512 << 20))).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aria-tiered-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(dir: &std::path::Path) -> TieredOptions {
        TieredOptions::new(dir.to_path_buf()).segment_bytes(8192).hot_budget_bytes(4 << 10)
    }

    fn key(i: u64) -> Vec<u8> {
        format!("tier-key-{i:05}").into_bytes()
    }

    #[test]
    fn group_commit_crash_loses_only_unacked_suffix() {
        let dir = tmpdir("gc-crash");
        // Big window, no automatic checkpoints (a checkpoint past the
        // crash cut would make recovery refuse for the wrong reason).
        let o = TieredOptions::new(dir.clone())
            .checkpoint_every(0)
            .sync_writes(true)
            .sync_window_bytes(1 << 20);
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        for i in 0..20 {
            s.put(&key(i), &value(i)).unwrap();
        }
        // The batch-level ack boundary: covering fsync via flush().
        s.flush().unwrap();
        let (seg, durable) = s.log_frontier();
        // Unacked writes inside the next window.
        for i in 20..30 {
            s.put(&key(i), &value(i)).unwrap();
        }
        drop(s);
        // Crash: everything past the last fsync is gone.
        aria_log::crash_cut(&dir, seg, durable).unwrap();
        let mut s = TieredStore::open(hot_store(), MASTER, o).unwrap();
        assert_eq!(s.len(), 20, "exactly the acked writes survive");
        for i in 0..20 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i));
        }
        for i in 20..30 {
            assert_eq!(s.get(&key(i)).unwrap(), None, "unacked write must vanish cleanly");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn value(i: u64) -> Vec<u8> {
        format!("tier-value-{i:05}-{}", "x".repeat(32)).into_bytes()
    }

    #[test]
    fn tail_spans_count_cold_reads_through_the_sharded_front_end() {
        use crate::sharded::{BatchOp, ShardedStore};
        let dir = tmpdir("tail-cold");
        let factory_dir = dir.clone();
        let store = ShardedStore::with_shards(1, move |_| {
            TieredStore::open(hot_store(), MASTER, opts(&factory_dir))
        })
        .unwrap();
        store.run_batch((0..200).map(|i| BatchOp::Put(key(i), value(i))).collect());
        let cold = store.with_shard(0, |s: &mut TieredStore<AriaHash>| {
            s.maintain().unwrap();
            s.cold.len()
        });
        assert!(cold > 0, "the hot budget forced no migration");
        store.traces().set_tail_threshold_nanos(0);
        store.run_batch((0..200).map(|i| BatchOp::Get(key(i))).collect());
        let (spans, _) = store.traces().read_since(&[]);
        let cold_reads: u64 = spans.iter().map(|s| s.attribution.cold_reads).sum();
        let observed = store.telemetry()[0].store.cold_read_latency.count();
        if aria_telemetry::enabled() {
            assert!(observed > 0, "no cold GET was served");
            assert_eq!(cold_reads, observed, "tail spans miscount cold reads: {spans:?}");
        } else {
            assert_eq!(cold_reads, 0);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damage the record of `victim` on its way to disk, in a segment
    /// compaction later takes, then write until that segment is mostly
    /// dead; no client reads the victim, so only maintenance ever
    /// touches its record, and only maintenance can report it. Run the
    /// maintenance ticker until the shard has recovered, then for a few
    /// more ticks, and return the replica's health: the shard must not
    /// quarantine again once recovery has dealt with the damage.
    fn maintenance_reports_damaged_record(
        tag: &str,
        hot_budget: usize,
        check: impl FnOnce(&crate::sharded::ShardedStore<TieredStore<AriaHash>>),
    ) -> crate::sharded::ReplicaHealthSnapshot {
        use crate::sharded::{BatchOp, ShardHealth, ShardedStore};
        use std::time::Duration;
        let dir = tmpdir(tag);
        let factory_dir = dir.clone();
        let store = ShardedStore::with_shards(1, move |_| {
            let o = opts(&factory_dir)
                .hot_budget_bytes(hot_budget)
                .checkpoint_every(0)
                .compact_min_dead_ratio(0.5);
            TieredStore::open(hot_store(), MASTER, o)
        })
        .unwrap();
        store.with_shard(0, |s: &mut TieredStore<AriaHash>| {
            s.set_log_fault_hook(Some(Box::new(|frame: &mut Vec<u8>| {
                frame[30] ^= 0x04;
                None
            })));
        });
        store.run_batch(vec![BatchOp::Put(key(999), value(999))]);
        store.with_shard(0, |s: &mut TieredStore<AriaHash>| s.set_log_fault_hook(None));
        // Seal segment 0, then kill everything in it but the victim.
        let sealed = |store: &ShardedStore<TieredStore<AriaHash>>| {
            store.with_shard(0, |s: &mut TieredStore<AriaHash>| s.log_frontier().0 > 0)
        };
        let mut n = 0;
        while !sealed(&store) {
            store.run_batch((n..n + 20).map(|i| BatchOp::Put(key(i), value(i))).collect());
            n += 20;
        }
        store.run_batch((0..n).map(|i| BatchOp::Put(key(i), value(1000 + i))).collect());
        assert_eq!(store.replica_healths()[0].violations, 0);

        let tick = Duration::from_millis(5);
        store.start_maintenance(tick);
        let deadline = Instant::now() + Duration::from_secs(20);
        let recovered = loop {
            let h = store.replica_healths()[0].clone();
            if h.recoveries >= 1 && h.health == ShardHealth::Healthy {
                break h;
            }
            assert!(Instant::now() < deadline, "maintenance never reported the damage: {h:?}");
            std::thread::sleep(tick);
        };
        assert!(recovered.violations > 0, "{recovered:?}");
        std::thread::sleep(20 * tick);
        let settled = store.replica_healths()[0].clone();
        assert_eq!(
            (settled.health, settled.recoveries, settled.violations),
            (ShardHealth::Healthy, recovered.recoveries, recovered.violations),
            "the shard quarantined again after recovering"
        );
        // The rest of the shard serves.
        assert_eq!(store.get(&key(0)).unwrap().unwrap(), value(1000));
        check(&store);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        settled
    }

    #[test]
    fn compaction_refusing_a_damaged_frame_quarantines_the_shard_and_recovers() {
        // The victim is demoted before compaction takes its segment: the
        // audit destroys its damaged record, and the key fails closed.
        let health = maintenance_reports_damaged_record("maint-quarantine", 4 << 10, |store| {
            assert!(store.get(&key(999)).unwrap_err().is_integrity_violation());
        });
        assert_eq!(health.recoveries, 1);
    }

    #[test]
    fn damaged_hot_key_record_quarantines_the_shard_once() {
        // The victim stays hot: recovery logs its value again from the
        // hot store, so the next compaction takes the damaged segment
        // and the key keeps its value.
        let health = maintenance_reports_damaged_record("maint-hot", 1 << 20, |store| {
            assert_eq!(store.get(&key(999)).unwrap().unwrap(), value(999));
            store.with_shard(0, |s: &mut TieredStore<AriaHash>| assert!(s.is_hot(&key(999))));
        });
        assert_eq!(health.recoveries, 1);
    }

    #[test]
    fn recover_logs_a_damaged_hot_or_tombstone_record_again() {
        // A hot key's and a tombstone's records, damaged on their way to
        // disk, in a segment compaction takes: compaction refuses, and
        // the cold audit has nothing to destroy. Recovery logs both
        // again from the index's verified state, and the next pass
        // compacts the damage away.
        let dir = tmpdir("relog");
        let o =
            opts(&dir).hot_budget_bytes(1 << 20).checkpoint_every(0).compact_min_dead_ratio(0.5);
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        let (hot, gone) = (key(998), key(999));
        s.put(&gone, &value(999)).unwrap();
        s.set_log_fault_hook(Some(Box::new(|frame: &mut Vec<u8>| {
            frame[30] ^= 0x04;
            None
        })));
        s.put(&hot, &value(998)).unwrap();
        assert!(s.delete(&gone).unwrap());
        s.set_log_fault_hook(None);
        let mut n = 0;
        while s.log_frontier().0 == 0 {
            s.put(&key(n), &value(n)).unwrap();
            n += 1;
        }
        for i in 0..n {
            s.put(&key(i), &value(1000 + i)).unwrap();
        }
        assert!(s.maintain().unwrap_err().is_integrity_violation());
        assert_eq!(s.recover().unwrap().entries_destroyed, 0);
        assert_eq!(s.maintain().unwrap().segments_compacted, 1);
        assert!(aria_log::segment_file_len(&dir, 0).is_err(), "the damaged segment must go");
        assert_eq!(s.get(&hot).unwrap(), Some(value(998)));
        assert_eq!(s.get(&gone).unwrap(), None);
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o).expect("no damaged record is left");
        assert_eq!(s.get(&hot).unwrap(), Some(value(998)));
        assert_eq!(s.get(&gone).unwrap(), None);
        assert_eq!(s.len(), n + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_get_delete_with_tiering() {
        let dir = tmpdir("basic");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..100 {
            s.put(&key(i), &value(i)).unwrap();
        }
        assert_eq!(s.len(), 100);
        // Force migration: budget is 4 KiB, 100 entries * ~60 B ≈ 6 KiB.
        let report = s.maintain().unwrap();
        assert!(report.migrated > 0, "over-budget hot region must migrate");
        let stats = s.tier_stats();
        assert!(stats.cold_entries > 0);
        assert!(stats.hot_bytes <= 4 << 10);
        // Every key still reads correctly, from whichever tier holds it.
        for i in 0..100 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i), "key {i}");
        }
        // Deletes work across tiers.
        assert!(s.delete(&key(7)).unwrap());
        assert!(!s.delete(&key(7)).unwrap());
        assert_eq!(s.get(&key(7)).unwrap(), None);
        assert_eq!(s.len(), 99);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skewed_access_keeps_working_set_hot() {
        let dir = tmpdir("skew");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..200 {
            s.put(&key(i), &value(i)).unwrap();
        }
        // Touch a small working set, then migrate.
        for _ in 0..5 {
            for i in 0..20 {
                s.get(&key(i)).unwrap();
            }
        }
        s.maintain().unwrap();
        // The recently-touched keys must have survived in the hot region.
        let stats = s.tier_stats();
        assert!(stats.cold_entries > 0);
        for i in 0..20 {
            assert!(s.hot_meta.contains_key(&key(i)), "hot key {i} was evicted before cold keys");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 80 keys loaded and migrated down to the 4 KiB budget; returns the
    /// store and the ids of its cold keys.
    fn store_with_cold_keys(dir: &std::path::Path) -> (TieredStore<AriaHash>, Vec<u64>) {
        let mut s = TieredStore::open(hot_store(), MASTER, opts(dir)).unwrap();
        for i in 0..80 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.maintain().unwrap();
        let cold: Vec<u64> = (0..80).filter(|i| s.cold.contains_key(&key(*i))).collect();
        assert!(cold.len() >= 3);
        (s, cold)
    }

    #[test]
    fn first_cold_get_serves_from_the_log_and_the_second_promotes() {
        let dir = tmpdir("second-touch");
        let (mut s, cold) = store_with_cold_keys(&dir);
        let (k, v) = (key(cold[0]), value(cold[0]));
        let before = s.tier_stats();
        assert_eq!(s.get(&k).unwrap().unwrap(), v);
        let first = s.tier_stats();
        assert_eq!(
            (first.hot_entries, first.cold_entries, first.hot_bytes, first.promotions),
            (before.hot_entries, before.cold_entries, before.hot_bytes, 0),
            "a first touch must not change residency"
        );
        assert_eq!(first.log_reads, before.log_reads + 1);
        assert_eq!(s.get(&k).unwrap().unwrap(), v);
        let second = s.tier_stats();
        assert_eq!(
            (second.hot_entries, second.cold_entries, second.promotions),
            (before.hot_entries + 1, before.cold_entries - 1, 1)
        );
        // Hot now: further reads leave the log alone.
        assert_eq!(s.get(&k).unwrap().unwrap(), v);
        assert_eq!(s.tier_stats().log_reads, second.log_reads);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_tier_promotes_on_exactly_the_threshold_read() {
        let dir = tmpdir("threshold-read");
        let (mut s, cold) = store_with_cold_keys(&dir);
        s.cold_reads = WARM_UP_COLD_READS;
        assert_eq!(s.tier_stats().promotion_threshold, PROMOTE_ON_COLD_READ);
        // Every other cold key read once: none is promoted.
        for &i in &cold[1..] {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i));
        }
        let (k, v) = (key(cold[0]), value(cold[0]));
        let before = s.tier_stats();
        for read in 1..PROMOTE_ON_COLD_READ {
            assert_eq!(s.get(&k).unwrap().unwrap(), v, "read {read}");
            assert!(!s.is_hot(&k), "promoted on read {read}");
        }
        assert_eq!(
            s.tier_stats().log_reads,
            before.log_reads + u64::from(PROMOTE_ON_COLD_READ) - 1
        );
        assert_eq!(s.get(&k).unwrap().unwrap(), v);
        assert!(s.is_hot(&k), "not promoted on read {PROMOTE_ON_COLD_READ}");
        assert_eq!(s.tier_stats().promotions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_promotes_on_the_second_read_until_its_warm_up_is_over() {
        let dir = tmpdir("warm-up");
        let n = WARM_UP_COLD_READS + 8;
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..n {
            s.put(&key(i), &value(i)).unwrap();
        }
        drop(s);
        // Reopened, every key is cold, and only reads follow: the
        // threshold leaves 2 after exactly the warm-up's cold reads.
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        assert_eq!(s.tier_stats().hot_entries, 0);
        for i in 0..WARM_UP_COLD_READS - 2 {
            assert_eq!(s.tier_stats().promotion_threshold, 2, "cold read {i}");
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i));
        }
        assert_eq!(s.tier_stats().promotions, 0, "a key read once is not promoted");
        // The warm-up's last two cold reads: one key, promoted on the
        // second.
        let k = key(n - 2);
        s.get(&k).unwrap();
        s.get(&k).unwrap();
        assert!(s.is_hot(&k), "not promoted on its second read while warming up");
        assert_eq!(s.tier_stats().promotion_threshold, PROMOTE_ON_COLD_READ);
        let k = key(n - 1);
        s.get(&k).unwrap();
        s.get(&k).unwrap();
        assert!(!s.is_hot(&k), "promoted on its second read once warm");
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_pass_cold_scan_leaves_the_hot_working_set_alone() {
        let dir = tmpdir("scan");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..200 {
            s.put(&key(i), &value(i)).unwrap();
        }
        for i in 0..20 {
            s.get(&key(i)).unwrap();
        }
        s.maintain().unwrap();
        let before = s.tier_stats();
        let cold: Vec<u64> = (0..200).filter(|i| s.cold.contains_key(&key(*i))).collect();
        assert!(cold.len() > 100);
        for &i in &cold {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i));
        }
        assert_eq!(s.maintain().unwrap().migrated, 0, "a scan must not force demotions");
        assert_eq!(
            s.tier_stats(),
            TierStats { log_reads: before.log_reads + cold.len() as u64, ..before }
        );
        for i in 0..20 {
            assert!(s.hot_meta.contains_key(&key(i)), "the scan pushed hot key {i} out");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_between_the_two_touches_reads_the_new_state() {
        let dir = tmpdir("touch-write");
        let (mut s, cold) = store_with_cold_keys(&dir);
        let (overwritten, deleted) = (&key(cold[0]), &key(cold[1]));
        assert!(s.get(overwritten).unwrap().is_some());
        assert!(s.get(deleted).unwrap().is_some());
        s.put(overwritten, b"second version").unwrap();
        assert!(s.delete(deleted).unwrap());
        assert_eq!(s.get(overwritten).unwrap().unwrap(), b"second version");
        assert_eq!(s.get(deleted).unwrap(), None);
        // Neither read was a promotion: the PUT made one key hot, the
        // DELETE made the other a tombstone.
        assert_eq!(s.tier_stats().promotions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_corrupted_between_the_two_touches_is_refused_on_the_second() {
        let dir = tmpdir("touch-tamper");
        let (mut s, cold) = store_with_cold_keys(&dir);
        let k = key(cold[0]);
        assert_eq!(s.get(&k).unwrap().unwrap(), value(cold[0]));
        let ptr = s.cold[&k].ptr;
        aria_log::flip_byte(&dir, ptr.segment, ptr.offset + 30, 0x04).unwrap();
        let before = s.tier_stats();
        let err = s.get(&k).unwrap_err();
        assert!(err.is_integrity_violation(), "got {err:?}");
        let after = s.tier_stats();
        assert_eq!(
            (after.hot_entries, after.cold_entries, after.promotions),
            (before.hot_entries, before.cold_entries, 0),
            "a refused read must not promote"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_touch_fills_the_digest_so_a_checkpoint_reads_nothing() {
        let dir = tmpdir("touch-digest");
        let (mut s, cold) = store_with_cold_keys(&dir);
        assert!(
            cold.iter().all(|i| s.cold[&key(*i)].digest.is_none()),
            "no read has digested them yet"
        );
        for &i in &cold {
            s.get(&key(i)).unwrap();
            assert!(s.cold[&key(i)].digest.is_some());
        }
        let reads = s.tier_stats().log_reads;
        s.force_checkpoint().unwrap();
        assert_eq!(s.tier_stats().log_reads, reads);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_evicts_exactly_the_oldest_that_cover_the_excess() {
        let dir = tmpdir("migrate-exact");
        let per_entry = key(0).len() + value(0).len();
        let mut o = opts(&dir).hot_budget_bytes(40 * per_entry);
        o.migrate_batch = 7;
        let mut s = TieredStore::open(hot_store(), MASTER, o).unwrap();
        for i in 0..60 {
            s.put(&key(i), &value(i)).unwrap();
        }
        // Re-touch the first ten: the oldest are now 10..60, in order.
        for i in 0..10 {
            s.get(&key(i)).unwrap();
        }
        // 20 entries over budget, 7 per pass: 7, 7, 6, then nothing.
        let mut expect_cold: Vec<Vec<u8>> = Vec::new();
        for (pass, want) in [7u64, 7, 6, 0].into_iter().enumerate() {
            assert_eq!(s.maintain().unwrap().migrated, want, "pass {pass}");
            let from = 10 + 7 * pass as u64;
            expect_cold.extend((from..from + want).map(key));
            let mut cold: Vec<Vec<u8>> = s.cold.keys().cloned().collect();
            cold.sort();
            assert_eq!(cold, expect_cold, "pass {pass}");
        }
        assert_eq!(s.tier_stats().hot_bytes, (40 * per_entry) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_demotion_keeps_the_key_readable_and_the_checkpoint_reproducible() {
        // The oldest hot entry is tampered in the inner store, so its
        // demotion's inner delete fails. The key must stay indexed —
        // cold, served from its verified log record — never vanish.
        let dir = tmpdir("demote-fail");
        let per_entry = key(0).len() + value(0).len();
        let o = opts(&dir).hot_budget_bytes(4 * per_entry).checkpoint_every(0);
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        for i in 0..5 {
            s.put(&key(i), &value(i)).unwrap();
        }
        assert!(s.hot.attack_tamper_value(&key(0)));
        let err = s.maintain().expect_err("the inner delete of a tampered entry fails");
        assert_eq!(err, StoreError::Integrity(Violation::EntryMacMismatch));
        assert!(!s.is_hot(&key(0)));
        assert_eq!(s.len(), 5);
        for i in 0..5 {
            assert_eq!(s.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
        assert_eq!(s.maintain().unwrap().migrated, 0, "the tier fits its budget again");
        let cp = s.force_checkpoint().unwrap();
        assert_eq!(cp.pairs, 5);
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(cp.epoch))
            .expect("the checkpoint sealed after the failure must replay");
        assert_eq!(s.len(), 5);
        for i in 0..5 {
            assert_eq!(s.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reads_a_victim_in_spans_not_per_record() {
        let dir = tmpdir("compact-reads");
        let mut o = opts(&dir).hot_budget_bytes(1 << 20).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.5;
        let mut s = TieredStore::open(hot_store(), MASTER, o).unwrap();
        let mut n = 0;
        while s.log_frontier().0 == 0 {
            s.put(&key(n), &value(n)).unwrap();
            n += 1;
        }
        // Kill every other record of segment 0: the rest are live and
        // scattered over the whole segment.
        for i in (0..n).step_by(2) {
            s.put(&key(i), &value(1000 + i)).unwrap();
        }
        let reads = s.tier_stats().log_reads;
        let report = s.maintain().unwrap();
        assert_eq!(report.segments_compacted, 1);
        assert!(report.records_rewritten >= n / 2 - 1, "moved {}", report.records_rewritten);
        assert_eq!(s.tier_stats().log_reads, reads + 1, "one read for the whole victim");
        for i in 0..n {
            let want = if i % 2 == 0 { value(1000 + i) } else { value(i) };
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), want, "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_segments() {
        let dir = tmpdir("compact");
        let mut o = opts(&dir);
        o.compact_min_dead_ratio = 0.5;
        let mut s = TieredStore::open(hot_store(), MASTER, o).unwrap();
        // Overwrite the same keys repeatedly: most records die.
        for round in 0..20 {
            for i in 0..20 {
                s.put(&key(i), &value(round * 100 + i)).unwrap();
            }
        }
        let before = s.tier_stats();
        assert!(before.segments > 1);
        let mut compacted = 0;
        for _ in 0..20 {
            let r = s.maintain().unwrap();
            compacted += r.segments_compacted;
        }
        assert!(compacted > 0, "mostly-dead segments must compact");
        let after = s.tier_stats();
        assert!(after.log_bytes < before.log_bytes, "compaction must reclaim bytes");
        // Data intact.
        for i in 0..20 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(1900 + i));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_with_root_match() {
        let dir = tmpdir("restart");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..50 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.delete(&key(3)).unwrap();
        let cp = s.force_checkpoint().unwrap();
        assert_eq!(cp.epoch, 1);
        drop(s);

        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1)).unwrap();
        assert_eq!(s.len(), 49);
        assert_eq!(s.checkpoint_epoch(), 1);
        for i in 0..50 {
            if i == 3 {
                assert_eq!(s.get(&key(i)).unwrap(), None);
            } else {
                assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i), "key {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_after_checkpoint_survive_restart() {
        let dir = tmpdir("after-cp");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..30 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        for i in 30..60 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.delete(&key(0)).unwrap();
        drop(s);
        // Records past the checkpoint frontier replay on top of the
        // verified prefix.
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1)).unwrap();
        assert_eq!(s.len(), 59);
        assert_eq!(s.get(&key(0)).unwrap(), None);
        assert_eq!(s.get(&key(45)).unwrap().unwrap(), value(45));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_log_refused_at_open() {
        let dir = tmpdir("tamper");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..30 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        drop(s);
        // Flip a byte mid-log.
        let len = aria_log::segment_file_len(&dir, 0).unwrap();
        aria_log::flip_byte(&dir, 0, len / 2, 0x08).unwrap();
        let err = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect_err("tampered log must refuse");
        assert!(
            matches!(
                err,
                StoreError::RecoveryDiverged {
                    reason: RecoveryFailure::LogCorrupt { .. }
                        | RecoveryFailure::LogTampered { .. }
                }
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_refused_at_open() {
        let dir = tmpdir("rollback");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..20 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap(); // epoch 1
        drop(s);
        // Snapshot the epoch-1 state, run forward to epoch 2, then
        // restore the stale snapshot — a host replaying old state.
        let snap = tmpdir("rollback-snap");
        std::fs::create_dir_all(&snap).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), snap.join(entry.file_name())).unwrap();
        }
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1)).unwrap();
        for i in 20..40 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap(); // epoch 2
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(&snap, &dir).unwrap();
        // The stale state is internally consistent — only the epoch
        // floor catches it.
        TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect("stale state passes without a floor");
        let err = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(2))
            .expect_err("rollback below the floor must refuse");
        assert!(
            matches!(
                err,
                StoreError::RecoveryDiverged {
                    reason: RecoveryFailure::Rollback { checkpoint_epoch: 1, min_epoch: 2 }
                }
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_with_floor_refused() {
        let dir = tmpdir("missing-cp");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        s.put(&key(1), &value(1)).unwrap();
        s.force_checkpoint().unwrap();
        drop(s);
        std::fs::remove_file(dir.join("CHECKPOINT")).unwrap();
        let err = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect_err("deleted checkpoint with a floor must refuse");
        assert!(matches!(
            err,
            StoreError::RecoveryDiverged {
                reason: RecoveryFailure::Rollback { checkpoint_epoch: 0, min_epoch: 1 }
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_to_checkpoint_state() {
        let dir = tmpdir("torn");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..25 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        let frontier = s.log_frontier();
        s.put(&key(99), &value(99)).unwrap();
        drop(s);
        // Cut inside the post-checkpoint record: the unacked tail is
        // torn away, the checkpointed prefix verifies.
        aria_log::crash_cut(&dir, frontier.0, frontier.1 + 10).unwrap();
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1)).unwrap();
        assert_eq!(s.len(), 25);
        assert_eq!(s.get(&key(99)).unwrap(), None);
        assert_eq!(s.get(&key(10)).unwrap().unwrap(), value(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cut_below_checkpoint_frontier_refused() {
        let dir = tmpdir("cut-deep");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..25 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        let (seg, off) = s.log_frontier();
        drop(s);
        // Cut *below* the checkpoint frontier: acknowledged-and-attested
        // state is missing, the root cannot match.
        aria_log::crash_cut(&dir, seg, off / 2).unwrap();
        let err = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect_err("state loss below the checkpoint must refuse");
        assert!(
            matches!(err, StoreError::RecoveryDiverged { reason: RecoveryFailure::RootMismatch }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_checkpoint_root() {
        let dir = tmpdir("compact-root");
        let mut o = opts(&dir);
        o.compact_min_dead_ratio = 0.3;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        for round in 0..10 {
            for i in 0..20 {
                s.put(&key(i), &value(round * 100 + i)).unwrap();
            }
        }
        s.force_checkpoint().unwrap();
        // Compact after the checkpoint: rewrites move records to new
        // segments but preserve seqnos, so the checkpoint still
        // verifies.
        for _ in 0..20 {
            s.maintain().unwrap();
        }
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(1)).unwrap();
        assert_eq!(s.len(), 20);
        for i in 0..20 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(900 + i));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_chunk_covers_both_tiers() {
        let dir = tmpdir("export");
        let mut s =
            TieredStore::open(hot_store(), MASTER, opts(&dir).hot_budget_bytes(1 << 10)).unwrap();
        for i in 0..60 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.maintain().unwrap(); // push some keys cold
        assert!(s.tier_stats().cold_entries > 0);
        let (pairs, root) = crate::resync::content_root_of(&mut s).unwrap();
        assert_eq!(pairs.len(), 60);
        assert_eq!(root.pairs, 60);
        // Root equals the flat-pairs root over the same contents.
        let expect: Vec<(Vec<u8>, Vec<u8>)> = (0..60).map(|i| (key(i), value(i))).collect();
        assert_eq!(crate::resync::content_root(&expect), root);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runtime_cold_tamper_is_integrity_violation_and_recover_contains() {
        let dir = tmpdir("cold-tamper");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        for i in 0..80 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.maintain().unwrap();
        let cold_key = {
            let mut cold: Vec<&Vec<u8>> = s.cold.keys().collect();
            cold.sort_unstable();
            cold.first().expect("some cold key").to_vec()
        };
        let ptr = s.cold[&cold_key].ptr;
        // Host flips a byte inside the cold record's sealed payload.
        aria_log::flip_byte(&dir, ptr.segment, ptr.offset + 30, 0x04).unwrap();
        let err = s.get(&cold_key).unwrap_err();
        assert!(err.is_integrity_violation());
        assert!(err.is_quarantine_trigger());
        // Recovery sweeps the cold tier, destroys the damaged record,
        // and the key fails closed afterwards.
        let report = s.recover().unwrap();
        assert_eq!(report.entries_destroyed, 1);
        assert!(report.entries_verified > 0);
        assert_eq!(s.get(&cold_key).unwrap_err(), StoreError::Integrity(Violation::DataDestroyed));
        // Other keys unaffected.
        let stats = s.tier_stats();
        assert_eq!(stats.hot_entries + stats.cold_entries, 79);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latent_cold_corruption_is_never_served_without_checkpoint_scrub() {
        let dir = tmpdir("latent");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.5;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        for i in 0..120 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.maintain().unwrap();
        s.force_checkpoint().unwrap();
        // A cold key in a sealed segment, its digest already cached.
        let (sealed_end, _) = s.log_frontier();
        let (victim_key, ptr) = s
            .cold
            .iter()
            .filter(|(_, m)| m.ptr.segment < sealed_end)
            .map(|(k, m)| (k.clone(), m.ptr))
            .min_by(|a, b| a.0.cmp(&b.0))
            .expect("some cold key in a sealed segment");
        assert!(s.cold[&victim_key].digest.is_some());
        aria_log::flip_byte(&dir, ptr.segment, ptr.offset + 30, 0x04).unwrap();

        // A checkpoint no longer re-reads the tier, so it neither sees
        // the damage nor reads a single record.
        let reads = s.tier_stats().log_reads;
        s.force_checkpoint().unwrap();
        assert_eq!(s.tier_stats().log_reads, reads);

        // Every path that would hand the bytes on still verifies them.
        assert!(s.get(&victim_key).unwrap_err().is_integrity_violation());
        // Kill the rest of the segment so compaction picks it: the
        // damaged record is the live one it must move, and it refuses
        // rather than rewrite it.
        let neighbours: Vec<Vec<u8>> = (s.hot_meta.iter().chain(s.cold.iter()))
            .filter(|(k, m)| m.ptr.segment == ptr.segment && **k != victim_key)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &neighbours {
            s.put(k, b"rewritten").unwrap();
        }
        let err = s.maintain().expect_err("compaction must not rewrite a damaged record");
        assert!(err.is_integrity_violation(), "got {err:?}");
        assert!(aria_log::segment_file_len(&dir, ptr.segment).is_ok(), "victim must survive");

        // The audit fails the key closed...
        assert_eq!(s.recover().unwrap().entries_destroyed, 1);
        assert_eq!(
            s.get(&victim_key).unwrap_err(),
            StoreError::Integrity(Violation::DataDestroyed)
        );
        // ...and a reopen, which replays the damaged record, refuses.
        drop(s);
        let err = TieredStore::open(hot_store(), MASTER, o).expect_err("damaged log must refuse");
        assert!(
            matches!(
                err,
                StoreError::RecoveryDiverged {
                    reason: RecoveryFailure::LogCorrupt { .. }
                        | RecoveryFailure::LogTampered { .. }
                }
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_after_overwrites_past_checkpoint_recovers() {
        // The bricking sequence: checkpoint (root includes k=v_old),
        // then overwrite/delete k (v_old's record goes dead), then
        // compact away the segment holding v_old. v_old is dead *now*
        // but is still the checkpoint-frontier winner for k — dropping
        // it, rather than carrying it forward, makes the next open()
        // refuse with RootMismatch on a perfectly normal workload.
        let dir = tmpdir("compact-winner");
        let mut o = opts(&dir);
        o.compact_min_dead_ratio = 0.3;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        for i in 0..40 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        // Kill the checkpointed records: overwrites and deletes, with
        // enough churn to rotate past several segments.
        for round in 1..4 {
            for i in 0..30 {
                s.put(&key(i), &value(round * 1000 + i)).unwrap();
            }
        }
        for i in 30..35 {
            s.delete(&key(i)).unwrap();
        }
        // Compact until the segments holding the checkpoint winners are
        // gone (maintain: migrate → compact → checkpoint).
        let (mut compacted, mut carried) = (0, false);
        for _ in 0..30 {
            compacted += s.maintain().unwrap().segments_compacted;
            carried |= s.pinned.iter().any(|p| p.carried);
        }
        assert!(compacted > 0, "dead-heavy segments must compact");
        assert!(carried, "compaction must have carried frontier winners forward");
        let min_epoch = s.checkpoint_epoch();
        assert!(min_epoch >= 1);
        drop(s);

        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(min_epoch))
            .expect("a normal workload plus compaction must stay recoverable");
        assert_eq!(s.len(), 35);
        for i in 0..30 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(3000 + i), "key {i}");
        }
        for i in 30..35 {
            assert_eq!(s.get(&key(i)).unwrap(), None, "deleted key {i}");
        }
        for i in 35..40 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(i), "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_after_restart_over_unattested_tail_recovers() {
        // Same bricking sequence, with a restart between the
        // overwrites and the compaction: the reopened store has made
        // no mutation of its own, but the log's tail past the
        // checkpoint has, and compaction must still carry the records
        // that tail superseded (open rebuilds their pins from replay).
        let dir = tmpdir("compact-restart");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.3;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        for i in 0..40 {
            s.put(&key(i), &value(i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        for round in 1..4 {
            for i in 0..30 {
                s.put(&key(i), &value(round * 1000 + i)).unwrap();
            }
        }
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone().min_epoch(1)).unwrap();
        let mut compacted = 0;
        for _ in 0..30 {
            compacted += s.maintain().unwrap().segments_compacted;
        }
        assert!(compacted > 0, "dead-heavy segments must compact");
        let min_epoch = s.checkpoint_epoch();
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(min_epoch))
            .expect("restart, compaction, restart must stay recoverable");
        for i in 0..30 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(3000 + i), "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reports_the_checkpoint_it_forces() {
        // Every record of segment 0 is a frontier winner overwritten
        // once since the checkpoint: its dead bytes are all pinned, so
        // carrying them would reclaim nothing. Compaction checkpoints
        // first instead, and the pass says so.
        let dir = tmpdir("compact-cp-report");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.5;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        let mut n = 0;
        while s.log_frontier().0 == 0 {
            s.put(&key(n), &value(n)).unwrap();
            n += 1;
        }
        s.force_checkpoint().unwrap();
        for i in 0..n {
            s.put(&key(i), &value(1000 + i)).unwrap();
        }
        assert_eq!(s.pinned.len() as u64, n);
        let report = s.maintain().unwrap();
        assert_eq!(report.segments_compacted, 1);
        assert!(report.checkpointed, "the compaction's checkpoint must be reported");
        assert_eq!(report.records_rewritten, 0, "nothing in segment 0 is live or pinned any more");
        assert_eq!(s.checkpoint_epoch(), 2);
        assert!(s.pinned.is_empty());
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(2)).unwrap();
        for i in 0..n {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(1000 + i), "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroyed_frontier_winner_is_checkpointed_away_not_carried() {
        // Segment 0 holds one live record, the checkpoint's winner for
        // `victim`, among dead versions of other keys. The audit
        // destroys it; it cannot be carried, so compacting segment 0
        // must checkpoint first or the next open cannot rebuild the
        // attested root.
        let dir = tmpdir("destroyed-winner");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.5;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        let victim = key(999);
        s.put(&victim, &value(999)).unwrap();
        let mut round = 0;
        while s.log_frontier().0 == 0 {
            for i in 0..10 {
                s.put(&key(i), &value(round * 100 + i)).unwrap();
            }
            round += 1;
        }
        for i in 0..10 {
            s.put(&key(i), &value(round * 100 + i)).unwrap();
        }
        s.force_checkpoint().unwrap();
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone().min_epoch(1)).unwrap();
        assert!(s.pinned.is_empty());
        let ptr = s.cold[&victim].ptr;
        assert_eq!(ptr.segment, 0);
        aria_log::flip_byte(&dir, ptr.segment, ptr.offset + 30, 0x04).unwrap();
        assert_eq!(s.recover().unwrap().entries_destroyed, 1);
        let report = s.maintain().unwrap();
        assert_eq!((report.segments_compacted, report.checkpointed), (1, true));
        assert!(aria_log::segment_file_len(&dir, 0).is_err());
        let epoch = s.checkpoint_epoch();
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(epoch))
            .expect("the destroyed winner was checkpointed away before it was dropped");
        assert_eq!(s.get(&victim).unwrap(), None);
        for i in 0..10 {
            assert_eq!(s.get(&key(i)).unwrap().unwrap(), value(round * 100 + i), "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_pinned_winner_is_checkpointed_away_and_maintenance_carries_on() {
        // A latent flip in a pinned frontier winner: no read reaches a
        // pin and the audit does not read one, so compaction is the
        // first to find it. It cannot be carried; compaction
        // checkpoints, which releases it, drops it with the victim, and
        // the store reopens at the new epoch.
        let dir = tmpdir("damaged-pin");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.3;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        let mut expect: Vec<Vec<u8>> = vec![Vec::new(); 20];
        let mut round = 0;
        while s.log_frontier().0 == 0 {
            for i in 0..20 {
                expect[i as usize] = value(round * 100 + i);
                s.put(&key(i), &expect[i as usize]).unwrap();
            }
            round += 1;
        }
        s.force_checkpoint().unwrap();
        for i in 0..5 {
            expect[i as usize] = value(5000 + i);
            s.put(&key(i), &expect[i as usize]).unwrap();
        }
        let pin = *s.pinned.iter().find(|p| p.ptr.segment == 0).expect("a winner pinned in 0");
        assert!(!pin.carried);
        aria_log::flip_byte(&dir, 0, pin.ptr.offset + 30, 0x04).unwrap();
        assert_eq!(s.recover().unwrap().entries_destroyed, 0, "the audit reads no pin");
        let report = s.maintain().unwrap();
        assert_eq!((report.segments_compacted, report.checkpointed), (1, true));
        assert!(aria_log::segment_file_len(&dir, 0).is_err(), "the victim must go");
        assert!(s.pinned.is_empty());
        assert_eq!(s.checkpoint_epoch(), 2);
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, o.min_epoch(2))
            .expect("the damaged winner was checkpointed away before it was dropped");
        for (i, v) in expect.iter().enumerate() {
            assert_eq!(&s.get(&key(i as u64)).unwrap().unwrap(), v, "key {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_swapped_frame_is_refused_without_growing_the_log() {
        // The host moves a genuine frame — the key's older version, the
        // same length — over the live record compaction must move. The
        // MAC verifies; the seqno does not match, and the copy is
        // refused before anything is appended, on every pass.
        use std::os::unix::fs::FileExt;
        let dir = tmpdir("swapped-frame");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.3;
        let mut s = TieredStore::open(hot_store(), MASTER, o).unwrap();
        let swapped = key(999);
        let ptr_of = |s: &TieredStore<AriaHash>| {
            s.hot_meta.get(&swapped).or_else(|| s.cold.get(&swapped)).expect("indexed").ptr
        };
        s.put(&swapped, &value(1)).unwrap();
        let older = ptr_of(&s);
        s.put(&swapped, &value(2)).unwrap();
        let live = ptr_of(&s);
        assert_eq!((older.segment, live.segment, older.len), (0, 0, live.len));
        // Churn other keys until segment 0 is sealed, then once more so
        // the swapped key holds segment 0's only live record.
        while s.log_frontier().0 == 0 {
            for i in 0..20 {
                s.put(&key(i), &value(i)).unwrap();
            }
        }
        for i in 0..20 {
            s.put(&key(i), &value(i)).unwrap();
        }
        let seg = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(aria_log::segment_path(&dir, 0))
            .unwrap();
        let mut frame = vec![0u8; older.len as usize];
        seg.read_exact_at(&mut frame, older.offset).unwrap();
        seg.write_all_at(&frame, live.offset).unwrap();
        let frontier = s.log_frontier();
        for pass in 0..3 {
            let err = s.maintain().expect_err("a moved frame must not be copied");
            assert!(err.is_integrity_violation(), "pass {pass}: {err:?}");
            assert_eq!(s.log_frontier(), frontier, "pass {pass} appended to the log");
            assert!(aria_log::segment_file_len(&dir, 0).is_ok(), "the victim must survive");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    #[test]
    fn crash_cut_between_a_carrying_compaction_and_the_next_checkpoint() {
        let dir = tmpdir("carry-cut");
        let mut o = opts(&dir).checkpoint_every(0);
        o.compact_min_dead_ratio = 0.3;
        let mut s = TieredStore::open(hot_store(), MASTER, o.clone()).unwrap();
        // Rounds over 20 keys until segment 0 is sealed; the checkpoint
        // attests the last round.
        let mut expect: Vec<Vec<u8>> = vec![Vec::new(); 20];
        let mut round = 0;
        while s.log_frontier().0 == 0 {
            for i in 0..20 {
                expect[i as usize] = value(round * 100 + i);
                s.put(&key(i), &expect[i as usize]).unwrap();
            }
            round += 1;
        }
        s.force_checkpoint().unwrap();
        // Overwrite a few keys: their frontier winners are pinned.
        for i in 0..5 {
            expect[i as usize] = value(5000 + i);
            s.put(&key(i), &expect[i as usize]).unwrap();
        }
        // One compaction of segment 0, with no checkpoint: the live
        // winners are moved and the pinned ones carried, all into the
        // active segment, and segment 0 is gone.
        let report = s.maintain().unwrap();
        assert_eq!((report.segments_compacted, report.checkpointed), (1, false));
        assert_eq!(s.checkpoint_epoch(), 1);
        assert!(s.pinned.iter().any(|p| p.carried), "no frontier winner was carried");
        assert!(aria_log::segment_file_len(&dir, 0).is_err());
        let (active, copies_end) = s.log_frontier();
        // Writes after the compaction, each with the offset its record
        // ends at.
        let mut tail = Vec::new();
        for i in [0u64, 1, 10, 11] {
            s.put(&key(i), &value(9000 + i)).unwrap();
            tail.push((i, value(9000 + i), s.log_frontier().1));
        }
        assert_eq!(s.log_frontier().0, active, "the tail must stay in one segment");
        drop(s);

        let len = aria_log::segment_file_len(&dir, active).unwrap();
        let mut cuts = vec![copies_end - 1, copies_end, len];
        cuts.extend((1..=24u64).map(|seed| splitmix64(seed) % (len + 1)));
        let (mut served, mut refused) = (0, 0);
        for (n, cut) in cuts.into_iter().enumerate() {
            let cut_dir = tmpdir(&format!("carry-cut-{n}"));
            copy_dir(&dir, &cut_dir);
            aria_log::crash_cut(&cut_dir, active, cut).unwrap();
            let cut_opts = TieredOptions { dir: cut_dir.clone(), ..o.clone() }.min_epoch(1);
            match TieredStore::open(hot_store(), MASTER, cut_opts) {
                Err(err) => {
                    // Losing a copy loses an attested record: refused.
                    assert!(cut < copies_end, "cut at {cut} kept every copy but refused: {err:?}");
                    assert!(
                        matches!(
                            err,
                            StoreError::RecoveryDiverged { reason: RecoveryFailure::RootMismatch }
                        ),
                        "cut at {cut}: {err:?}"
                    );
                    refused += 1;
                }
                Ok(mut s) => {
                    // The checkpointed root matched; every key reads its
                    // latest write that survived the cut.
                    assert!(cut >= copies_end, "cut at {cut} lost a copy but was served");
                    assert!(!s.pinned.is_empty(), "open must re-pin the carried winners");
                    let mut want = expect.clone();
                    for (i, v, end) in &tail {
                        if *end <= cut {
                            want[*i as usize] = v.clone();
                        }
                    }
                    assert_eq!(s.len(), 20);
                    for (i, v) in want.iter().enumerate() {
                        assert_eq!(
                            &s.get(&key(i as u64)).unwrap().unwrap(),
                            v,
                            "cut {cut} key {i}"
                        );
                    }
                    served += 1;
                }
            }
            let _ = std::fs::remove_dir_all(&cut_dir);
        }
        assert!(served > 0 && refused > 0, "served {served}, refused {refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_master_different_dirs_use_distinct_keystreams() {
        // Two shards of one ShardedStore share the master secret and
        // both stamp their first record with seqno 1. The per-log
        // LOGID nonce must still give them distinct sealing keys —
        // identical (key, counter) pairs across logs would let the
        // host XOR ciphertexts into plaintext XOR.
        let dir_a = tmpdir("keystream-a");
        let dir_b = tmpdir("keystream-b");
        let mut a = TieredStore::open(hot_store(), MASTER, opts(&dir_a)).unwrap();
        let mut b = TieredStore::open(hot_store(), MASTER, opts(&dir_b)).unwrap();
        a.put(b"same-key", b"same-value-payload").unwrap();
        b.put(b"same-key", b"same-value-payload").unwrap();
        let seg_a = std::fs::read(aria_log::segment_path(&dir_a, 0)).unwrap();
        let seg_b = std::fs::read(aria_log::segment_path(&dir_b, 0)).unwrap();
        assert_eq!(seg_a.len(), seg_b.len());
        assert_ne!(seg_a, seg_b, "identical plaintext+seqno must seal differently per log");
        // And within one log, reopening is stable.
        drop(a);
        let mut a = TieredStore::open(hot_store(), MASTER, opts(&dir_a)).unwrap();
        assert_eq!(a.get(b"same-key").unwrap().unwrap(), b"same-value-payload");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn tampered_log_nonce_refused_at_open() {
        let dir = tmpdir("nonce-tamper");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        s.put(&key(1), &value(1)).unwrap();
        s.force_checkpoint().unwrap();
        drop(s);
        // Host swaps the nonce: the derived key changes and nothing
        // sealed under the old key verifies any more.
        let path = dir.join("LOGID");
        let mut buf = std::fs::read(&path).unwrap();
        buf[7] ^= 0x5a;
        std::fs::write(&path, &buf).unwrap();
        let err = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect_err("a swapped nonce must refuse, not decrypt garbage");
        assert!(matches!(err, StoreError::RecoveryDiverged { .. }), "got {err:?}");
        // Deleting the nonce outright is detected as metadata loss.
        std::fs::remove_file(&path).unwrap();
        let err = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect_err("a deleted nonce must refuse");
        assert!(
            matches!(
                err,
                StoreError::RecoveryDiverged {
                    reason: RecoveryFailure::MetaCorrupt { file: "LOGID" }
                }
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlogged_hot_put_rolls_back_and_checkpoint_stays_reproducible() {
        let dir = tmpdir("rollback-put");
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        s.put(&key(1), &value(1)).unwrap();
        // Simulate put()'s append-failure path: the inner store took
        // the new value, the log never did, and the rollback must
        // leave no unlogged pair for force_checkpoint to digest.
        s.hot.put(&key(1), &value(999)).unwrap();
        s.rollback_hot_put(&key(1));
        assert_eq!(s.get(&key(1)).unwrap().unwrap(), value(1), "old value must survive");
        // A brand-new key: rollback erases it entirely.
        s.hot.put(&key(2), &value(2)).unwrap();
        s.rollback_hot_put(&key(2));
        assert_eq!(s.get(&key(2)).unwrap(), None);
        assert_eq!(s.len(), 1);
        s.force_checkpoint().unwrap();
        drop(s);
        let mut s = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(1))
            .expect("checkpoint sealed after rollback must replay");
        assert_eq!(s.get(&key(1)).unwrap().unwrap(), value(1));
        assert_eq!(s.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_boot_without_checkpoint_is_accepted() {
        let dir = tmpdir("first-boot");
        let s = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        assert_eq!(s.len(), 0);
        assert_eq!(s.checkpoint_epoch(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
