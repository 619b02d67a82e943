//! Store error types.

use aria_mem::HeapError;

/// Why an integrity check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A Merkle-tree node failed verification (counter tamper/replay).
    MerkleMismatch {
        /// Level of the failing node.
        level: u32,
        /// Index of the failing node.
        index: u64,
    },
    /// A KV entry's MAC did not match (value tamper, replay, or a
    /// redirected index connection via the additional field).
    EntryMacMismatch,
    /// A freed/used counter state contradiction in the redirection layer
    /// (counter-reuse attack, §V-C).
    CounterReuse {
        /// The counter involved.
        counter: u64,
    },
    /// In-enclave entry/deletion metadata contradicts the untrusted
    /// structure (unauthorized deletion, §V-C).
    UnauthorizedDeletion,
    /// Untrusted allocator metadata inconsistent with the EPC bitmap.
    AllocatorMetadata,
    /// An untrusted pointer (index connection, entry link) referenced
    /// memory outside any live allocation — pointer corruption.
    CorruptPointer,
    /// The key's data was destroyed by a past attack: a recovery pass
    /// condemned the untrusted region it lived in, so the store can no
    /// longer distinguish "never written" from "deleted by the attacker".
    /// Reads fail closed instead of answering "not found".
    DataDestroyed,
}

impl Violation {
    /// 1-based class code of this violation, matching the telemetry
    /// class table (`aria_telemetry::VIOLATION_NAMES`) and the wire
    /// error codes.
    pub fn class(&self) -> u16 {
        match self {
            Violation::MerkleMismatch { .. } => 1,
            Violation::EntryMacMismatch => 2,
            Violation::CounterReuse { .. } => 3,
            Violation::UnauthorizedDeletion => 4,
            Violation::AllocatorMetadata => 5,
            Violation::CorruptPointer => 6,
            Violation::DataDestroyed => 7,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MerkleMismatch { level, index } => {
                write!(f, "Merkle node (level {level}, index {index}) failed verification")
            }
            Violation::EntryMacMismatch => write!(f, "entry MAC mismatch"),
            Violation::CounterReuse { counter } => {
                write!(f, "counter {counter} reuse detected")
            }
            Violation::UnauthorizedDeletion => write!(f, "unauthorized deletion detected"),
            Violation::AllocatorMetadata => write!(f, "allocator metadata inconsistent"),
            Violation::CorruptPointer => write!(f, "corrupt untrusted pointer"),
            Violation::DataDestroyed => {
                write!(f, "data destroyed by a detected attack (fail-closed read)")
            }
        }
    }
}

/// Why a verified restart refused to serve ([`StoreError::RecoveryDiverged`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryFailure {
    /// Replaying the log up to the checkpoint's sequence number produced
    /// a content root that does not match the checkpointed root: the
    /// on-disk state does not reproduce what the enclave last attested.
    RootMismatch,
    /// The checkpoint's epoch is behind the minimum the caller carries
    /// (or the checkpoint is missing while one is expected): the host is
    /// replaying stale-but-internally-consistent state — a rollback
    /// attack.
    Rollback {
        /// Epoch found on disk (0 when the checkpoint is missing).
        checkpoint_epoch: u64,
        /// Minimum epoch the caller expected.
        min_epoch: u64,
    },
    /// The checkpoint file fails its CRC or MAC.
    CheckpointCorrupt,
    /// A sealed log metadata file (the `LOGID` key-derivation nonce or
    /// the `SEQNO` reservation) is missing, malformed, or fails its
    /// MAC. These are written before the state they protect, so a
    /// crash cannot explain it.
    MetaCorrupt {
        /// Which file failed (`"LOGID"` or `"SEQNO"`).
        file: &'static str,
    },
    /// A log record is structurally broken in a way a crash cannot
    /// explain (bad CRC mid-file, impossible framing).
    LogCorrupt {
        /// Segment holding the broken record.
        segment: u64,
        /// Byte offset of the broken record.
        offset: u64,
    },
    /// A log record is CRC-consistent but fails its MAC: deliberate
    /// on-disk tampering.
    LogTampered {
        /// Segment holding the tampered record.
        segment: u64,
        /// Byte offset of the tampered record.
        offset: u64,
    },
}

impl std::fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryFailure::RootMismatch => {
                write!(f, "replayed content root does not match the checkpointed root")
            }
            RecoveryFailure::Rollback { checkpoint_epoch, min_epoch } => write!(
                f,
                "checkpoint epoch {checkpoint_epoch} is behind expected minimum {min_epoch} (rollback)"
            ),
            RecoveryFailure::CheckpointCorrupt => write!(f, "checkpoint corrupt or tampered"),
            RecoveryFailure::MetaCorrupt { file } => {
                write!(f, "log metadata file {file} missing, corrupt or tampered")
            }
            RecoveryFailure::LogCorrupt { segment, offset } => {
                write!(f, "log segment {segment} corrupt at offset {offset}")
            }
            RecoveryFailure::LogTampered { segment, offset } => {
                write!(f, "log segment {segment} tampered at offset {offset}")
            }
        }
    }
}

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An attack (or corruption) was detected; the operation is refused.
    Integrity(Violation),
    /// The enclave could not reserve required EPC.
    EpcExhausted,
    /// The counter area is full and cannot expand.
    CountersExhausted,
    /// Untrusted heap failure.
    Heap(HeapError),
    /// Key longer than the fixed on-wire limit.
    KeyTooLong {
        /// Offending length.
        len: usize,
    },
    /// Value longer than the fixed on-wire limit.
    ValueTooLong {
        /// Offending length.
        len: usize,
    },
    /// A [`crate::sharded::ShardedStore`] shard's store is gone (it
    /// panicked and was condemned, or its group was deactivated);
    /// operations routed to it cannot be served. Other shards remain
    /// fully available.
    ShardUnavailable {
        /// The unreachable shard.
        shard: usize,
    },
    /// A [`crate::sharded::ShardedStore`] shard detected an integrity
    /// violation and is quarantined (or recovering); operations routed
    /// to it are refused until recovery re-admits it. Other shards keep
    /// serving.
    ShardQuarantined {
        /// The quarantined shard.
        shard: usize,
    },
    /// Anti-entropy re-sync ended with the rejoining replica's content
    /// root differing from the survivor's: the replica is divergent
    /// (or was tampered with mid-sync) and must not be re-admitted.
    ReplicaDiverged {
        /// The shard group whose re-sync failed.
        shard: usize,
    },
    /// The store type cannot stream its verified contents
    /// ([`crate::KvStore::export_chunk`]), so it cannot act as a
    /// re-sync survivor or rejoiner.
    ExportUnsupported,
    /// A verified restart could not prove the on-disk log + checkpoint
    /// reproduce the state the enclave last attested; the store refuses
    /// to serve rather than serve silently wrong or rolled-back data.
    RecoveryDiverged {
        /// What diverged.
        reason: RecoveryFailure,
    },
    /// A durability-log filesystem operation failed (plain I/O, not an
    /// integrity verdict).
    Log {
        /// The operation that failed (`"append"`, `"sync"`, ...).
        op: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A [`crate::sharded::ShardedStore`] shard's estimated queue delay
    /// exceeds its admission budget; the op was refused *before* being
    /// enqueued (nothing was applied, nothing acknowledged). Transient:
    /// back off for roughly `retry_after_ms` and retry.
    Overloaded {
        /// The overloaded shard.
        shard: usize,
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The key's routing slot is no longer owned by the shard group this
    /// op reached: a reshard migration committed between routing and
    /// execution (or the client claimed a stale routing epoch). Nothing
    /// was applied, nothing acknowledged — refresh routing and retry
    /// against `hint`.
    WrongShard {
        /// The group that refused the op.
        shard: usize,
        /// The group that owns the slot at `epoch`.
        hint: usize,
        /// The routing epoch the refusal was issued under.
        epoch: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Integrity(v) => write!(f, "integrity violation detected: {v}"),
            StoreError::EpcExhausted => write!(f, "EPC exhausted"),
            StoreError::CountersExhausted => write!(f, "counter area exhausted"),
            StoreError::Heap(e) => write!(f, "untrusted heap error: {e}"),
            StoreError::KeyTooLong { len } => write!(f, "key too long: {len} bytes"),
            StoreError::ValueTooLong { len } => write!(f, "value too long: {len} bytes"),
            StoreError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} unavailable (store gone)")
            }
            StoreError::ShardQuarantined { shard } => {
                write!(f, "shard {shard} quarantined after an integrity violation")
            }
            StoreError::ReplicaDiverged { shard } => {
                write!(f, "shard {shard} replica diverged: re-sync content roots do not match")
            }
            StoreError::ExportUnsupported => {
                write!(f, "store cannot stream verified contents for re-sync")
            }
            StoreError::RecoveryDiverged { reason } => {
                write!(f, "verified recovery refused: {reason}")
            }
            StoreError::Log { op, detail } => write!(f, "durability log {op} failed: {detail}"),
            StoreError::Overloaded { shard, retry_after_ms } => {
                write!(f, "shard {shard} overloaded; retry after ~{retry_after_ms} ms")
            }
            StoreError::WrongShard { shard, hint, epoch } => {
                write!(f, "shard {shard} no longer owns this key (epoch {epoch}, now shard {hint})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<HeapError> for StoreError {
    fn from(e: HeapError) -> Self {
        match e {
            HeapError::MetadataAttack { .. } => StoreError::Integrity(Violation::AllocatorMetadata),
            // Pointers live in untrusted memory; a pointer that escapes
            // every live allocation is corruption, and the enclave must
            // treat following it as a detected attack, not an I/O error.
            HeapError::InvalidPointer { .. } => StoreError::Integrity(Violation::CorruptPointer),
            other => StoreError::Heap(other),
        }
    }
}

impl From<aria_cache::IntegrityViolation> for StoreError {
    fn from(e: aria_cache::IntegrityViolation) -> Self {
        StoreError::Integrity(Violation::MerkleMismatch {
            level: e.node.level,
            index: e.node.index,
        })
    }
}

impl StoreError {
    /// Whether this error denotes a detected attack.
    pub fn is_integrity_violation(&self) -> bool {
        matches!(self, StoreError::Integrity(_))
    }

    /// Whether this error should quarantine the shard that produced it.
    ///
    /// All fresh integrity violations do — except
    /// [`Violation::DataDestroyed`], which reports the *lasting scar* of
    /// an attack a previous recovery already contained (re-quarantining
    /// for it would loop forever, since the data is gone for good).
    pub fn is_quarantine_trigger(&self) -> bool {
        match self {
            StoreError::Integrity(v) => !matches!(v, Violation::DataDestroyed),
            _ => false,
        }
    }
}
