//! A sharded, thread-safe front-end over any [`KvStore`], with optional
//! per-shard replication.
//!
//! [`ShardedStore`] hash-partitions the keyspace across `N` independent
//! shard *groups*. Each group holds `R` replicas (default 1); every
//! replica is a complete store instance — its own simulated enclave,
//! counter Merkle tree and Secure Cache — sitting in a *slot* behind a
//! lock. **A shard is a lock, not a thread**: whoever submits a batch
//! executes it on its own thread while holding the slot lock, so a
//! `ShardedStore` is `Send + Sync` and can be shared behind an `Arc` by
//! any number of client threads even though the underlying stores are
//! single-threaded, and a request crosses no thread boundary between
//! its submitter and the store. The front-end starts no thread of its
//! own; only [`ShardedStore::start_maintenance`], a re-sync, a reshard
//! and [`ShardedStore::exec_detached`] spawn (registered, joined on
//! drop) background threads, and they take the same slot locks.
//!
//! # Partitioning
//!
//! The group of a key is chosen by bit-mixing (splitmix64) an FNV-1a
//! digest of the key bytes. The extra mixing step matters: the hash
//! index inside each shard buckets keys by `fnv % 2^k`, so routing on
//! the raw FNV digest would correlate with bucket choice and leave each
//! shard using only `1/N` of its buckets. After mixing, shard routing
//! and bucket choice are independent.
//!
//! # Execution and lock order
//!
//! A batch is partitioned by group and each non-empty group slice runs
//! in turn: admit, pick (or promote) the acting primary, charge the
//! slot's in-flight counter, lock the slot, apply, make one covering
//! [`KvStore::flush`], unlock, scan the replies for violations. One
//! caller's multi-shard batch therefore runs its shards one after
//! another — parallelism comes from calling threads (one reactor per
//! core), not from fanning a batch out. The commit group of the
//! covering flush is one submission; for the reactor that is already
//! every connection of a tick.
//!
//! Locks are ordered `write_lock` (per group, replicated writes only)
//! → slot lock, and two slot locks are never held at once, so no
//! caller mix can deadlock. A store that panics while its slot is held
//! is *condemned*: the panic is caught, the store dropped, the slot
//! emptied and the replica marked [`ShardHealth::Dead`]; the submitter
//! survives and gets [`StoreError::ShardUnavailable`].
//!
//! # Replication
//!
//! With `R > 1` ([`ShardedStore::with_replicas`]) each group runs one
//! *primary* and `R-1` synchronous *backups*. A write batch takes the
//! group's write-order lock, applies on the primary and then on every
//! in-service backup before the lock is released, so all replicas see
//! the same write order and a write is acknowledged only after every
//! addressed replica has applied it. Reads are served by the primary
//! alone; when the primary leaves service the next operation promotes a
//! healthy backup by CAS on the group's [`GroupHealthMachine`]
//! (automatic failover).
//!
//! A replica that dies or quarantines rejoins via *anti-entropy
//! re-sync*: a fresh store (own enclave, own heap) is installed in its
//! slot and filled by a verified transfer of the survivor's contents
//! (`transfer.rs`, DESIGN.md §19). A matching content root re-admits the
//! replica; a mismatch marks it [`ShardHealth::Dead`] with
//! [`StoreError::ReplicaDiverged`] (a diverged replica must never serve).
//! With `R == 1` none of this machinery is touched: no group lock, no
//! fence check, one slot lock per batch.
//!
//! # Security
//!
//! Sharding and replication do not weaken the protection argument. Each
//! replica keeps its *own* Merkle root inside its *own* enclave; an
//! adversary who tampers with one replica's untrusted memory is detected
//! by that replica's root exactly as in the single-store design, and no
//! other replica's verification state is involved. The router and the
//! replication plumbing are untrusted machinery: they only decide which
//! enclave receives a request. Re-sync soundness (why a malicious host
//! cannot poison a rejoining replica) is argued in DESIGN.md §19.
//!
//! # Batching
//!
//! Submissions carry whole op vectors ([`BatchOp`]), so per-request
//! fixed costs amortize: runs of `Get`s become one
//! [`KvStore::multi_get`] and runs of `Put`s one [`KvStore::put_batch`],
//! each charging the simulated per-request cost once — the paper's
//! "cross the enclave boundary once per batch".
//!
//! # Health and quarantine
//!
//! Every replica carries a health state machine:
//!
//! ```text
//! Healthy ──violation──▶ Quarantined ──▶ Recovering ──▶ Healthy
//!    │                        │               │
//!    └────(store condemned)───┴───────────────┴──(failed)──▶ Dead
//!                                                   Dead ──▶ Recovering
//! ```
//!
//! When any reply carries a quarantine-triggering integrity violation
//! (see [`StoreError::is_quarantine_trigger`]) the replica flips to
//! `Quarantined`: operations are refused with
//! [`StoreError::ShardQuarantined`] *without touching the store*, while
//! sibling groups (and, with replication, sibling replicas) keep
//! serving. Recovery is single-flight — exactly one claimant wins the
//! `Quarantined → Recovering` (or `Dead → Recovering`) CAS — and runs on
//! a background thread so the submitter that saw the violation is not
//! held up. A replica with no healthy sibling recovers in place with
//! [`KvStore::recover`] (up to [`RECOVERY_ATTEMPTS`] times); otherwise
//! it re-syncs from a surviving replica as described above.
//! [`ShardedStore::healths`] exposes per-group state,
//! [`ShardedStore::replica_healths`] per-replica detail (role, lag), and
//! [`ShardedStore::group_stats`] failover and re-sync counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aria_sim::{EnclaveSnapshot, EnclaveStats};
use aria_telemetry::{
    clock_nanos, stage as trace_stage, Attribution, Histogram, ShardTelemetry, Span, SpanCell,
    TraceHub, DEFAULT_TRACE_CAPACITY,
};

use crate::reshard::{
    self, ReshardCtl, ReshardFault, ReshardMode, ReshardStatus, RoutingTable, NUM_ROUTING_SLOTS,
};
use crate::transfer::Transfer;
use crate::{CacheStats, KvStore, StoreError};

/// How many times a quarantined unreplicated shard retries
/// [`KvStore::recover`] before it is declared [`ShardHealth::Dead`].
pub const RECOVERY_ATTEMPTS: u32 = 3;

/// Upper bound on replicas per group (sanity rail, not a design limit).
pub const MAX_REPLICAS: usize = 8;

/// Lifecycle state of one replica (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy = 0,
    /// An integrity violation was detected; recovery is queued. Ops are
    /// refused with [`StoreError::ShardQuarantined`].
    Quarantined = 1,
    /// Recovery (or anti-entropy re-sync) is running. Ops are still
    /// refused with [`StoreError::ShardQuarantined`].
    Recovering = 2,
    /// Recovery failed (or the store panicked and was condemned); the
    /// replica is out of service. Ops are refused with
    /// [`StoreError::ShardUnavailable`]. A replicated group may still
    /// pull a dead replica back through re-sync.
    Dead = 3,
}

impl ShardHealth {
    /// Wire/atomic representation.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ShardHealth::as_u8`]; unknown values decode as
    /// `Dead` (fail closed).
    pub fn from_u8(v: u8) -> ShardHealth {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Quarantined,
            2 => ShardHealth::Recovering,
            _ => ShardHealth::Dead,
        }
    }
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Quarantined => "quarantined",
            ShardHealth::Recovering => "recovering",
            ShardHealth::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// Role of a replica within its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplicaRole {
    /// Serves reads and is the authoritative write acknowledger.
    Primary = 0,
    /// Applies every write synchronously; promoted on failover.
    Backup = 1,
}

impl ReplicaRole {
    /// Wire/atomic representation.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ReplicaRole::as_u8`]; unknown values decode as
    /// `Backup` (a bogus byte must not claim primaryship).
    pub fn from_u8(v: u8) -> ReplicaRole {
        if v == 0 {
            ReplicaRole::Primary
        } else {
            ReplicaRole::Backup
        }
    }
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicaRole::Primary => "primary",
            ReplicaRole::Backup => "backup",
        })
    }
}

/// A point-in-time copy of one *group's* health counters (aggregated
/// over its replicas; for one replica see [`ReplicaHealthSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthSnapshot {
    /// Current lifecycle state (of the group: `Healthy` while any
    /// replica can serve).
    pub health: ShardHealth,
    /// Quarantine-triggering violations observed across the group.
    pub violations: u64,
    /// Completed recovery / re-sync re-admission cycles.
    pub recoveries: u64,
}

/// A point-in-time copy of one replica's state within its group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaHealthSnapshot {
    /// The shard group this replica belongs to.
    pub group: usize,
    /// Replica index within the group.
    pub replica: usize,
    /// Current role.
    pub role: ReplicaRole,
    /// Current lifecycle state.
    pub health: ShardHealth,
    /// Quarantine-triggering violations observed on this replica.
    pub violations: u64,
    /// Completed recovery / re-sync re-admission cycles.
    pub recoveries: u64,
    /// Absolute difference between this replica's last reported key
    /// count and the primary's — 0 when in sync, growing while the
    /// replica is out of service.
    pub lag: u64,
}

/// Per-group aggregate counters (see [`ShardedStore::group_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupStats {
    /// The shard group.
    pub group: usize,
    /// Replica index currently acting as primary.
    pub primary: usize,
    /// Completed primary promotions (failovers).
    pub failovers: u64,
    /// Completed anti-entropy re-sync cycles (roots matched).
    pub resyncs: u64,
    /// The error that ended the most recent failed re-sync, if any
    /// (e.g. [`StoreError::ReplicaDiverged`]).
    pub last_resync_error: Option<StoreError>,
    /// Per-replica detail.
    pub replicas: Vec<ReplicaHealthSnapshot>,
}

/// The CAS-driven health state machine of one replicated shard group.
///
/// This is deliberately a standalone type: the store drives it from
/// operation outcomes, and property tests drive it with arbitrary
/// fault/recover/promote interleavings to check that no invalid
/// transition is ever reachable and that the group always has exactly
/// one primary. Valid edges are
/// `Healthy → Quarantined` ([`GroupHealthMachine::quarantine`]),
/// `Quarantined|Dead → Recovering` ([`GroupHealthMachine::claim_recovery`],
/// single-flight), `Recovering → Healthy` ([`GroupHealthMachine::readmit`]),
/// `Recovering → Dead` ([`GroupHealthMachine::fail_recovery`]) and
/// `any → Dead` ([`GroupHealthMachine::mark_dead`]). The primary index
/// only ever moves to a currently-`Healthy` replica, and only while the
/// incumbent is out of service ([`GroupHealthMachine::promote`]).
pub struct GroupHealthMachine {
    primary: AtomicUsize,
    healths: Vec<AtomicU8>,
    failovers: AtomicU64,
}

impl GroupHealthMachine {
    /// A machine for `replicas` replicas, all `Healthy`, replica 0
    /// primary.
    pub fn new(replicas: usize) -> GroupHealthMachine {
        assert!(replicas >= 1, "a group needs at least one replica");
        GroupHealthMachine {
            primary: AtomicUsize::new(0),
            healths: (0..replicas).map(|_| AtomicU8::new(ShardHealth::Healthy.as_u8())).collect(),
            failovers: AtomicU64::new(0),
        }
    }

    /// Number of replicas this machine tracks.
    pub fn replicas(&self) -> usize {
        self.healths.len()
    }

    /// Replica index currently holding the primary role.
    pub fn primary(&self) -> usize {
        self.primary.load(Ordering::SeqCst)
    }

    /// Completed promotions.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::SeqCst)
    }

    /// Current state of one replica.
    pub fn health(&self, replica: usize) -> ShardHealth {
        ShardHealth::from_u8(self.healths[replica].load(Ordering::SeqCst))
    }

    /// Current role of one replica.
    pub fn role_of(&self, replica: usize) -> ReplicaRole {
        if self.primary() == replica {
            ReplicaRole::Primary
        } else {
            ReplicaRole::Backup
        }
    }

    fn cas(&self, replica: usize, from: ShardHealth, to: ShardHealth) -> bool {
        self.healths[replica]
            .compare_exchange(from.as_u8(), to.as_u8(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// `Healthy → Quarantined`. Returns whether this caller won the
    /// transition (concurrent detections of one incident get one winner).
    pub fn quarantine(&self, replica: usize) -> bool {
        self.cas(replica, ShardHealth::Healthy, ShardHealth::Quarantined)
    }

    /// Claim the single recovery slot: `Quarantined → Recovering` or
    /// `Dead → Recovering`. Returns the state the claim was won from,
    /// or `None` if the replica is not claimable (someone else is
    /// already recovering it, or it is healthy).
    pub fn claim_recovery(&self, replica: usize) -> Option<ShardHealth> {
        if self.cas(replica, ShardHealth::Quarantined, ShardHealth::Recovering) {
            return Some(ShardHealth::Quarantined);
        }
        if self.cas(replica, ShardHealth::Dead, ShardHealth::Recovering) {
            return Some(ShardHealth::Dead);
        }
        None
    }

    /// `Recovering → Healthy`. Only the recovery claimant calls this;
    /// returns false if the replica was concurrently marked dead.
    pub fn readmit(&self, replica: usize) -> bool {
        self.cas(replica, ShardHealth::Recovering, ShardHealth::Healthy)
    }

    /// `Recovering → Dead`.
    pub fn fail_recovery(&self, replica: usize) -> bool {
        self.cas(replica, ShardHealth::Recovering, ShardHealth::Dead)
    }

    /// Force a replica dead (store gone): `Healthy → Dead` or
    /// `Quarantined → Dead`. Returns the previous state when this call
    /// made the change, `None` otherwise. `Recovering` is deliberately
    /// not reachable from here — that state is owned by the single-flight
    /// recovery claimant, whose own apply failures surface a real
    /// mid-recovery death as [`GroupHealthMachine::fail_recovery`]. An
    /// external death report landing on a `Recovering` replica would
    /// yank it out from under its claimant and park it `Dead` with no
    /// retry once the claimant's `readmit` CAS silently lost.
    pub fn mark_dead(&self, replica: usize) -> Option<ShardHealth> {
        [ShardHealth::Healthy, ShardHealth::Quarantined]
            .into_iter()
            .find(|&from| self.cas(replica, from, ShardHealth::Dead))
    }

    /// If the incumbent primary is out of service, CAS the primary index
    /// to a `Healthy` replica. Returns the new primary on success,
    /// `None` when no promotion is needed or possible. The primary index
    /// is a single atomic, so the group has exactly one primary at every
    /// instant by construction.
    pub fn promote(&self) -> Option<usize> {
        loop {
            let cur = self.primary.load(Ordering::SeqCst);
            if self.health(cur) == ShardHealth::Healthy {
                return None;
            }
            let next = (0..self.replicas())
                .find(|&r| r != cur && self.health(r) == ShardHealth::Healthy)?;
            if self.primary.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst).is_ok()
            {
                self.failovers.fetch_add(1, Ordering::SeqCst);
                return Some(next);
            }
        }
    }

    /// Test hook: set a replica's state directly (gating paths are hard
    /// to catch in the narrow real windows).
    #[doc(hidden)]
    pub fn force(&self, replica: usize, health: ShardHealth) {
        self.healths[replica].store(health.as_u8(), Ordering::SeqCst);
    }
}

impl std::fmt::Debug for GroupHealthMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHealthMachine")
            .field("primary", &self.primary())
            .field("healths", &(0..self.replicas()).map(|r| self.health(r)).collect::<Vec<_>>())
            .field("failovers", &self.failovers())
            .finish()
    }
}

/// Counters of one replica slot, read lock-free by admission control,
/// the watchdog and the monitoring paths.
pub(crate) struct ShardState {
    violations: AtomicU64,
    recoveries: AtomicU64,
    /// Key count published at the end of the slot's last lock hold.
    /// Monitoring paths read this instead of taking the slot lock, so a
    /// quarantined (or busy) replica still contributes its last-known
    /// size.
    last_len: AtomicU64,
    /// Ops submitted to this slot and not yet retired: charged by the
    /// submitter before it takes the slot lock (so ops waiting on the
    /// lock count) and retired by the same submitter once it is done,
    /// whatever the outcome. These are plain atomics, not telemetry
    /// counters, because admission control must keep working with the
    /// `telemetry` feature compiled out.
    inflight_ops: AtomicU64,
    /// Batches fully applied on this slot — the progress heartbeat the
    /// stuck-shard watchdog samples. A slot whose `inflight_ops` stays
    /// positive while this stands still is accepting work but retiring
    /// nothing: its submitters are stuck on (or under) the slot lock.
    batches_retired: AtomicU64,
    /// EWMA of per-op service time in nanoseconds (alpha = 1/8),
    /// updated under the slot lock. `inflight_ops * ewma_op_ns` is the
    /// admission controller's queue-delay estimate. 0 until the first
    /// batch retires.
    ewma_op_ns: AtomicU64,
    /// Data ops refused by admission control
    /// ([`StoreError::Overloaded`]) since start.
    shed_ops: AtomicU64,
    /// Set by the maintenance ticker when it found the slot busy; the
    /// next batch to hold the slot runs the pass before unlocking.
    maintain_due: AtomicBool,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            violations: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            last_len: AtomicU64::new(0),
            inflight_ops: AtomicU64::new(0),
            batches_retired: AtomicU64::new(0),
            ewma_op_ns: AtomicU64::new(0),
            shed_ops: AtomicU64::new(0),
            maintain_due: AtomicBool::new(false),
        }
    }

    /// Current queue-delay estimate for this slot, in nanoseconds.
    fn queue_delay_ns(&self) -> u64 {
        self.inflight_ops
            .load(Ordering::Relaxed)
            .saturating_mul(self.ewma_op_ns.load(Ordering::Relaxed))
    }
}

/// One operation of a [`ShardedStore::run_batch`] request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Fetch a key.
    Get(Vec<u8>),
    /// Insert or update a key.
    Put(Vec<u8>, Vec<u8>),
    /// Remove a key.
    Delete(Vec<u8>),
}

impl BatchOp {
    /// The key this operation addresses.
    pub fn key(&self) -> &[u8] {
        match self {
            BatchOp::Get(k) | BatchOp::Delete(k) => k,
            BatchOp::Put(k, _) => k,
        }
    }

    /// Whether this operation mutates the store.
    pub fn is_write(&self) -> bool {
        !matches!(self, BatchOp::Get(_))
    }

    /// The reply of this op's shape that carries `err` (how a refused
    /// or unserved op is answered).
    fn refused(&self, err: StoreError) -> BatchReply {
        match self {
            BatchOp::Get(_) => BatchReply::Get(Err(err)),
            BatchOp::Put(..) => BatchReply::Put(Err(err)),
            BatchOp::Delete(_) => BatchReply::Delete(Err(err)),
        }
    }
}

/// The result of one [`BatchOp`], in the same position as its op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// Result of a [`BatchOp::Get`].
    Get(Result<Option<Vec<u8>>, StoreError>),
    /// Result of a [`BatchOp::Put`].
    Put(Result<(), StoreError>),
    /// Result of a [`BatchOp::Delete`]; `true` if the key existed.
    Delete(Result<bool, StoreError>),
}

impl BatchReply {
    /// The error carried by this reply, if any.
    pub fn error(&self) -> Option<&StoreError> {
        match self {
            BatchReply::Get(Err(e)) | BatchReply::Put(Err(e)) | BatchReply::Delete(Err(e)) => {
                Some(e)
            }
            _ => None,
        }
    }

    /// Whether this reply reports a detected attack.
    pub fn is_integrity_violation(&self) -> bool {
        self.error().is_some_and(StoreError::is_integrity_violation)
    }
}

/// A replica slot: the store behind its lock, plus the slot's lock-free
/// counters (telemetry lives in the parallel `Inner::tele` vec). `None`
/// means no store is installed — the group is inactive, or the store
/// panicked and was condemned. Everything that touches a store goes
/// through [`with_slot`].
pub(crate) struct Slot<S> {
    store: Mutex<Option<S>>,
    pub(crate) state: ShardState,
}

/// Per-group control block: health machine, write-order lock and the
/// re-sync fence.
pub(crate) struct GroupCtl {
    pub(crate) machine: GroupHealthMachine,
    /// Held while a replicated write batch applies on the primary and
    /// then on every in-service backup, so all replicas observe the
    /// same write order. Ordered before any slot lock; never taken when
    /// `replicas == 1`.
    pub(crate) write_lock: Mutex<()>,
    /// While set, writes to this group are refused (retryable
    /// [`StoreError::ShardQuarantined`]); reads keep flowing to the
    /// primary. Raised only for the short delta phase of a re-sync.
    pub(crate) fence: AtomicBool,
    pub(crate) resyncs: AtomicU64,
    pub(crate) last_resync_error: Mutex<Option<StoreError>>,
}

pub(crate) type Factory<S> = dyn Fn(usize) -> Result<S, StoreError> + Send + Sync;

/// Chaos hook consulted at the end of a re-sync: returning `true` for a
/// group corrupts the rejoining replica just before root comparison,
/// modeling a replica that silently diverged (its re-admission must be
/// refused with [`StoreError::ReplicaDiverged`]).
type ResyncFaultHook = dyn Fn(usize) -> bool + Send + Sync;

pub(crate) struct Inner<S: KvStore + Send + 'static> {
    /// Total shard groups the store is *sized* for. With elastic
    /// construction ([`ShardedStore::with_elastic`]) only a prefix is
    /// active at first; the rest have empty slots and own no routing
    /// slots until a split activates them.
    pub(crate) groups: usize,
    pub(crate) replicas: usize,
    pub(crate) slots: Vec<Slot<S>>,
    pub(crate) ctls: Vec<GroupCtl>,
    pub(crate) tele: Vec<Arc<ShardTelemetry>>,
    factory: Box<Factory<S>>,
    traces: Arc<TraceHub>,
    pub(crate) shutdown: AtomicBool,
    /// Every background thread the store started (maintenance tickers,
    /// re-syncs, the reshard driver, detached closures); [`teardown`]
    /// joins them all.
    threads: Mutex<Vec<JoinHandle<()>>>,
    resync_fault: RwLock<Option<Arc<ResyncFaultHook>>>,
    /// Slot-granular key → group routing, replacing the fixed
    /// `hash % groups` map; bumps its epoch on every committed
    /// migration.
    pub(crate) routing: Arc<RoutingTable>,
    /// Migration driver state: single-flight claim, counters, per-group
    /// active flags, chaos hook.
    pub(crate) reshard: ReshardCtl,
    /// Admission control: refuse data ops routed to a group whose
    /// estimated queue delay exceeds this many nanoseconds. 0 = off
    /// (the default — nothing changes for existing callers).
    queue_delay_budget_ns: AtomicU64,
    /// Stuck-shard watchdog: a primary that holds in-flight ops but
    /// retires no batch for this many nanoseconds is quarantined by the
    /// maintenance ticker. 0 = off (the default).
    watchdog_window_ns: AtomicU64,
}

impl<S: KvStore + Send + 'static> Inner<S> {
    pub(crate) fn slot_index(&self, group: usize, replica: usize) -> usize {
        group * self.replicas + replica
    }
}

/// Start a registered background thread running `body` (no-op once the
/// store is shutting down). The registry is reaped as it grows and
/// drained by [`teardown`]. Background threads hold an `Arc<Inner>`,
/// never a `ShardedStore`, whose `Drop` runs the teardown that joins
/// them.
pub(crate) fn spawn_registered<S, F>(inner: &Arc<Inner<S>>, name: String, body: F)
where
    S: KvStore + Send + 'static,
    F: FnOnce(&Arc<Inner<S>>) + Send + 'static,
{
    if inner.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let inner2 = Arc::clone(inner);
    let handle = thread::Builder::new()
        .name(name)
        .spawn(move || body(&inner2))
        .expect("spawn store background thread");
    // A `Vec<JoinHandle>` has no invariant a panicking holder could
    // have broken, so a poisoned registry is still usable.
    let mut reg = inner.threads.lock().unwrap_or_else(|p| p.into_inner());
    reg.retain(|h| !h.is_finished());
    reg.push(handle);
}

/// A `Send + Sync` front-end multiplexing client threads onto `N`
/// single-threaded store shard groups (see the module docs).
///
/// ```
/// use std::sync::Arc;
/// use aria_sim::Enclave;
/// use aria_store::{AriaHash, StoreConfig};
/// use aria_store::sharded::ShardedStore;
///
/// let store = ShardedStore::with_shards(4, |shard| {
///     let enclave = Arc::new(Enclave::with_default_epc());
///     AriaHash::new(StoreConfig::for_keys(10_000), enclave)
/// })
/// .unwrap();
///
/// store.put(b"k", b"v").unwrap();
/// assert_eq!(store.get(b"k").unwrap().unwrap(), b"v");
/// assert_eq!(store.len(), 1);
/// let _ = shard_used(&store);
/// # fn shard_used(s: &ShardedStore<AriaHash>) -> usize { s.shard_of(b"k") }
/// ```
pub struct ShardedStore<S: KvStore + Send + 'static> {
    pub(crate) inner: Arc<Inner<S>>,
}

impl<S: KvStore + Send + 'static> ShardedStore<S> {
    /// Build an unreplicated store of `shards` shards. `factory(slot)`
    /// builds each slot's store on the calling thread; `S` must be
    /// `Send` because whichever thread submits a batch runs it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards<F>(shards: usize, factory: F) -> Result<Self, StoreError>
    where
        F: Fn(usize) -> Result<S, StoreError> + Send + Sync + 'static,
    {
        Self::with_replicas(shards, 1, factory)
    }

    /// Build a store with `groups` logical shards of `replicas` replicas
    /// each. Slot `group * replicas + replica` of `factory` builds that
    /// replica's store (and is re-invoked to rebuild a replica for
    /// re-sync).
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `replicas` is zero, or if `replicas`
    /// exceeds [`MAX_REPLICAS`].
    pub fn with_replicas<F>(groups: usize, replicas: usize, factory: F) -> Result<Self, StoreError>
    where
        F: Fn(usize) -> Result<S, StoreError> + Send + Sync + 'static,
    {
        Self::with_elastic(groups, groups, replicas, factory)
    }

    /// Build an *elastic* store: sized for `max_groups` shard groups but
    /// serving from only the first `active` at construction. Inactive
    /// groups hold no stores (and no routing slots) until an online
    /// split ([`ShardedStore::start_reshard`]) activates them; a merge
    /// that empties a group deactivates it again. With
    /// `active == max_groups` this is exactly
    /// [`ShardedStore::with_replicas`].
    ///
    /// # Panics
    ///
    /// Panics if `active` is zero or exceeds `max_groups`, if
    /// `max_groups` exceeds [`NUM_ROUTING_SLOTS`], or on the
    /// [`ShardedStore::with_replicas`] bounds.
    pub fn with_elastic<F>(
        active: usize,
        max_groups: usize,
        replicas: usize,
        factory: F,
    ) -> Result<Self, StoreError>
    where
        F: Fn(usize) -> Result<S, StoreError> + Send + Sync + 'static,
    {
        assert!(active > 0, "a sharded store needs at least one active shard group");
        assert!(active <= max_groups, "active groups cannot exceed the sized maximum");
        assert!(max_groups <= NUM_ROUTING_SLOTS, "at most {NUM_ROUTING_SLOTS} shard groups");
        assert!(replicas > 0, "every group needs at least one replica");
        assert!(replicas <= MAX_REPLICAS, "at most {MAX_REPLICAS} replicas per group");
        let groups = max_groups;
        let slots = groups * replicas;
        let inner = Arc::new(Inner {
            groups,
            replicas,
            slots: (0..slots)
                .map(|_| Slot { store: Mutex::new(None), state: ShardState::new() })
                .collect(),
            ctls: (0..groups)
                .map(|_| GroupCtl {
                    machine: GroupHealthMachine::new(replicas),
                    write_lock: Mutex::new(()),
                    fence: AtomicBool::new(false),
                    resyncs: AtomicU64::new(0),
                    last_resync_error: Mutex::new(None),
                })
                .collect(),
            tele: (0..slots).map(|_| Arc::new(ShardTelemetry::default())).collect(),
            factory: Box::new(factory),
            traces: Arc::new(TraceHub::new(slots, DEFAULT_TRACE_CAPACITY)),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            resync_fault: RwLock::new(None),
            routing: Arc::new(RoutingTable::new(active)),
            reshard: ReshardCtl::new(groups, active),
            queue_delay_budget_ns: AtomicU64::new(0),
            watchdog_window_ns: AtomicU64::new(0),
        });
        for group in 0..groups {
            for replica in 0..replicas {
                if group < active {
                    install_store(&inner, inner.slot_index(group, replica))?;
                } else {
                    // Inactive groups are out of service until a split
                    // activates them; `Dead` refuses any op that somehow
                    // reaches one (routing never points there).
                    inner.ctls[group].machine.force(replica, ShardHealth::Dead);
                }
            }
        }
        reshard::publish_routing_gauges(&inner);
        Ok(ShardedStore { inner })
    }

    /// Per-slot telemetry bundles (index = `group * replicas + replica`;
    /// with one replica per group, index = shard). The handles are the
    /// live recorders — a monitoring thread can snapshot them at any
    /// time without taking a slot lock.
    pub fn telemetry(&self) -> &[Arc<ShardTelemetry>] {
        &self.inner.tele
    }

    /// The span rings: every slot publishes its slow runs into the tail
    /// ring, and a server publishes its sampled requests into the
    /// per-shard rings.
    pub fn traces(&self) -> &Arc<TraceHub> {
        &self.inner.traces
    }

    /// Number of shard groups the store is sized for (logical shards;
    /// with elastic construction this includes inactive groups).
    pub fn shards(&self) -> usize {
        self.inner.groups
    }

    /// Number of currently *active* shard groups (groups with stores
    /// that own routing slots).
    pub fn active_shards(&self) -> usize {
        self.inner.reshard.active_groups()
    }

    /// Replicas per group (1 = replication off).
    pub fn replicas(&self) -> usize {
        self.inner.replicas
    }

    /// The shard group serving `key` *right now* — stable between
    /// committed migrations, and changed only by an epoch bump.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.inner.routing.group_of(key)
    }

    /// The routing slot `key` hashes to (stable for the lifetime of the
    /// store — migrations move slot *ownership*, never the key → slot
    /// map).
    pub fn slot_of(&self, key: &[u8]) -> usize {
        self.inner.routing.slot_of(key)
    }

    /// The live routing table (epoch, slot owners, migration freeze
    /// state).
    pub fn routing(&self) -> &Arc<RoutingTable> {
        &self.inner.routing
    }

    /// Current routing epoch (starts at 1; bumped once per committed
    /// migration).
    pub fn routing_epoch(&self) -> u64 {
        self.inner.routing.epoch()
    }

    /// If a client claiming routing knowledge as of `claimed_epoch`
    /// would misinterpret ops on `key` — i.e. the key's slot changed
    /// owner after that epoch — returns `(current_owner, current_epoch)`
    /// so the caller can refuse with a typed `WrongShard` instead of
    /// serving against routing the client no longer holds. A claim of 0
    /// means "no claim" and never refuses.
    pub fn stale_claim(&self, key: &[u8], claimed_epoch: u64) -> Option<(usize, u64)> {
        let routing = &self.inner.routing;
        let slot = routing.slot_of(key);
        if claimed_epoch > 0 && routing.moved_epoch(slot) > claimed_epoch {
            Some((routing.owner(slot), routing.epoch()))
        } else {
            None
        }
    }

    /// Start an online shard migration in the background: `Split` moves
    /// half of `source`'s routing slots to (and activates) the inactive
    /// group `target`; `Merge` moves *all* of `source`'s slots to the
    /// active group `target` and deactivates `source` once drained.
    /// Single-flight: a second call while one runs is refused. The
    /// migration is crash-safe and abortable — `source` stays
    /// authoritative until the epoch flip commits, and an aborted (or
    /// killed) target is scrubbed back out of service. Progress is
    /// observable through [`ShardedStore::reshard_status`].
    pub fn start_reshard(
        &self,
        mode: ReshardMode,
        source: usize,
        target: usize,
    ) -> Result<(), StoreError> {
        reshard::start(&self.inner, mode, source, target)
    }

    /// Point-in-time migration driver status and counters.
    pub fn reshard_status(&self) -> ReshardStatus {
        reshard::status(&self.inner)
    }

    /// Install the reshard chaos hook, consulted at the driver's
    /// injection points (stream tamper mid-copy, target kill mid-copy).
    /// Returning `true` injects the fault once at that point.
    pub fn set_reshard_fault_hook<F>(&self, hook: F)
    where
        F: Fn(ReshardFault) -> bool + Send + Sync + 'static,
    {
        self.inner.reshard.set_fault_hook(hook);
    }

    /// Install the re-sync divergence chaos hook (see
    /// [`StoreError::ReplicaDiverged`]). The hook is consulted once per
    /// re-sync, after the delta apply and before root comparison;
    /// returning `true` corrupts the rejoining replica so its root
    /// cannot match.
    pub fn set_resync_fault_hook<F>(&self, hook: F)
    where
        F: Fn(usize) -> bool + Send + Sync + 'static,
    {
        *self.inner.resync_fault.write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(hook));
    }

    // --- overload control ---------------------------------------------------

    /// Enable (or, with `None`, disable) per-shard admission control:
    /// data ops routed to a group whose estimated queue delay
    /// (`in-flight ops × EWMA of per-op service time`) exceeds `budget`
    /// are refused fast with [`StoreError::Overloaded`] instead of
    /// joining the wait for the slot lock — nothing is charged, nothing
    /// applied, so a refusal is never an acknowledgement. Off by default.
    pub fn set_queue_delay_budget(&self, budget: Option<Duration>) {
        let ns = budget.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.inner.queue_delay_budget_ns.store(ns, Ordering::SeqCst);
    }

    /// The configured admission budget, if any.
    pub fn queue_delay_budget(&self) -> Option<Duration> {
        match self.inner.queue_delay_budget_ns.load(Ordering::SeqCst) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Arm (or, with `None`, disarm) the stuck-shard watchdog: a
    /// group's acting primary that holds in-flight ops but retires no
    /// batch for `window` is quarantined through the health machine by
    /// the maintenance ticker (see [`ShardedStore::start_maintenance`]
    /// — the watchdog samples on that ticker, so it needs maintenance
    /// running to act). Off by default.
    pub fn set_watchdog_window(&self, window: Option<Duration>) {
        let ns = window.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.inner.watchdog_window_ns.store(ns, Ordering::SeqCst);
    }

    /// Per-group estimated queue delay on the acting primary (index =
    /// group), in nanoseconds. Reads atomics only — never takes a slot
    /// lock — and refreshes each slot's `queue_delay_ns` telemetry
    /// gauge as a side effect.
    pub fn queue_delay_estimates(&self) -> Vec<u64> {
        (0..self.inner.groups)
            .map(|g| {
                let p = self.inner.ctls[g].machine.primary();
                let slot = self.inner.slot_index(g, p);
                let est = self.inner.slots[slot].state.queue_delay_ns();
                self.inner.tele[slot].store.queue_delay_ns.set(est);
                est
            })
            .collect()
    }

    /// Total data ops refused by admission control since start, across
    /// all slots.
    pub fn shed_ops_total(&self) -> u64 {
        self.inner.slots.iter().map(|s| s.state.shed_ops.load(Ordering::Relaxed)).sum()
    }

    /// Admission check for one group: refuse fast when the acting
    /// primary's estimated queue delay is over budget. `ops` is the
    /// batch size, charged to the shed counter on refusal.
    fn admit(&self, group: usize, ops: usize) -> Result<(), StoreError> {
        let budget = self.inner.queue_delay_budget_ns.load(Ordering::Relaxed);
        if budget == 0 {
            return Ok(());
        }
        let p = self.inner.ctls[group].machine.primary();
        let slot = self.inner.slot_index(group, p);
        let st = &self.inner.slots[slot].state;
        let est = st.queue_delay_ns();
        if est <= budget {
            return Ok(());
        }
        st.shed_ops.fetch_add(ops as u64, Ordering::Relaxed);
        self.inner.tele[slot].store.admission_shed.add(ops as u64);
        // Hint: the time the backlog needs to drain back under budget,
        // floored at 1 ms (a zero hint reads as "no hint" on the wire)
        // and capped at 1 s so a momentary spike never parks clients.
        let retry_after_ms = (est.saturating_sub(budget) / 1_000_000).clamp(1, 1_000);
        Err(StoreError::Overloaded { shard: group, retry_after_ms })
    }

    /// Insert or update a key (blocking).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        match self.request_one(BatchOp::Put(key.to_vec(), value.to_vec())) {
            BatchReply::Put(r) => r,
            _ => unreachable!("put answered with a non-put reply"),
        }
    }

    /// Fetch a key (blocking).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        match self.request_one(BatchOp::Get(key.to_vec())) {
            BatchReply::Get(r) => r,
            _ => unreachable!("get answered with a non-get reply"),
        }
    }

    /// Remove a key (blocking); returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        match self.request_one(BatchOp::Delete(key.to_vec())) {
            BatchReply::Delete(r) => r,
            _ => unreachable!("delete answered with a non-delete reply"),
        }
    }

    fn request_one(&self, op: BatchOp) -> BatchReply {
        let group = self.shard_of(op.key());
        self.run_group(group, &[op], &[]).pop().expect("one reply per op")
    }

    /// Run a batch of operations, partitioned across shard groups.
    /// Replies come back in input order. Ops routed to the same group
    /// keep their relative order; groups run one after another on the
    /// calling thread, in no promised order, so a batch should not rely
    /// on cross-key ordering (same as issuing the ops from independent
    /// clients). An out-of-service group never hangs the caller: a
    /// condemned store's ops come back as
    /// [`StoreError::ShardUnavailable`] (after failover is attempted)
    /// while other groups answer normally; quarantined groups answer
    /// [`StoreError::ShardQuarantined`] without being touched.
    ///
    /// With replication, a write reply is an acknowledgement that the
    /// write was applied by the primary **and** every in-service backup;
    /// an errored or unavailable reply means the write may or may not
    /// have been applied (the caller must treat it as unacknowledged).
    pub fn run_batch(&self, ops: Vec<BatchOp>) -> Vec<BatchReply> {
        let groups = self.inner.groups;
        let total = ops.len();
        let mut per_group: Vec<Vec<BatchOp>> = (0..groups).map(|_| Vec::new()).collect();
        let mut per_group_idx: Vec<Vec<usize>> = (0..groups).map(|_| Vec::new()).collect();
        for (i, op) in ops.into_iter().enumerate() {
            let group = self.shard_of(op.key());
            per_group_idx[group].push(i);
            per_group[group].push(op);
        }
        let no_spans = (0..groups).map(|_| Vec::new()).collect();
        let mut out: Vec<Option<BatchReply>> = (0..total).map(|_| None).collect();
        for (group, replies) in self.run_sharded(per_group, no_spans).into_iter().enumerate() {
            debug_assert_eq!(replies.len(), per_group_idx[group].len());
            for (&i, reply) in per_group_idx[group].iter().zip(replies) {
                out[i] = Some(reply);
            }
        }
        out.into_iter().map(|r| r.expect("every op answered")).collect()
    }

    /// Run pre-grouped batches, one op vector per shard group, skipping
    /// the partitioning pass of [`ShardedStore::run_batch`]. This is
    /// the reactor's submission path: the network layer already groups
    /// decoded ops by shard across all of a reactor's connections, so
    /// the whole tick takes each shard's lock once.
    ///
    /// `per_group.len()` must equal [`ShardedStore::shards`], and every
    /// op in `per_group[g]` must satisfy `shard_of(op.key()) == g`
    /// (checked in debug builds) — a misrouted op would be applied on
    /// the wrong shard. Replies come back in the same shape: one vector
    /// per group, one reply per op in submission order. Failure
    /// semantics are identical to [`ShardedStore::run_batch`].
    ///
    /// Trace span cells ride along in `per_group_spans` (one vector per
    /// group, empty when nothing is sampled): `per_group_spans[g]`
    /// holds the cells of sampled requests whose ops landed in
    /// `per_group[g]`. The store stamps lock wait (ENQUEUE → DEQUEUE)
    /// and execute stages (plus verify/cold/hot attribution deltas) on
    /// the primary's run; backup applies carry no spans so replicated
    /// writes are attributed exactly once.
    pub fn run_sharded(
        &self,
        per_group: Vec<Vec<BatchOp>>,
        per_group_spans: Vec<Vec<Arc<SpanCell>>>,
    ) -> Vec<Vec<BatchReply>> {
        assert_eq!(per_group.len(), self.inner.groups, "one op vector per shard group");
        assert_eq!(per_group_spans.len(), self.inner.groups, "one span vector per shard group");
        #[cfg(debug_assertions)]
        for (group, gops) in per_group.iter().enumerate() {
            for op in gops {
                // A slot that has migrated at least once may legitimately
                // race an epoch flip between routing and submission; such
                // stragglers are refused with `WrongShard` under the slot
                // lock. A mismatch on a never-moved slot is a plain
                // routing bug.
                let slot = self.inner.routing.slot_of(op.key());
                debug_assert!(
                    self.inner.routing.owner(slot) == group
                        || self.inner.routing.moved_epoch(slot) > 0,
                    "op routed to the wrong group"
                );
            }
        }
        per_group
            .iter()
            .zip(&per_group_spans)
            .enumerate()
            .map(|(group, (gops, gspans))| self.run_group(group, gops, gspans))
            .collect()
    }

    /// Run one group's op slice on the calling thread; a refusal (or a
    /// store lost mid-run) answers every op with the typed error.
    fn run_group(
        &self,
        group: usize,
        gops: &[BatchOp],
        gspans: &[Arc<SpanCell>],
    ) -> Vec<BatchReply> {
        if gops.is_empty() {
            return Vec::new();
        }
        self.try_run_group(group, gops, gspans)
            .unwrap_or_else(|e| gops.iter().map(|op| op.refused(e.clone())).collect())
    }

    fn try_run_group(
        &self,
        group: usize,
        gops: &[BatchOp],
        gspans: &[Arc<SpanCell>],
    ) -> Result<Vec<BatchReply>, StoreError> {
        let inner = &self.inner;
        // Admission first: an over-budget group refuses before the ops
        // join the wait for the slot, so no service time goes to ops
        // whose callers are already backing off.
        self.admit(group, gops.len())?;
        // Reads (and the unreplicated hot path) skip the write lock. A
        // replica found gone is marked dead where it is found, so the
        // next pass promotes a healthy backup if there is one.
        if inner.replicas == 1 || !gops.iter().any(BatchOp::is_write) {
            for _ in 0..inner.replicas {
                let primary = self.acting_primary(group)?;
                if let Ok(replies) = self.run_on_replica(group, primary, gops, gspans, true) {
                    return Ok(replies);
                }
            }
            return Err(self.group_refusal(group));
        }
        let ctl = &inner.ctls[group];
        let _write_order = ctl.write_lock.lock().unwrap_or_else(|p| p.into_inner());
        // The fence is checked under the lock: the re-sync thread raises
        // it and then cycles this lock, so every write admitted before
        // the barrier has been applied on every replica it addressed,
        // and none can slip in during the delta phase.
        if ctl.fence.load(Ordering::SeqCst) {
            return Err(StoreError::ShardQuarantined { shard: group });
        }
        let primary = self.acting_primary(group)?;
        // No transparent write retry after a mid-batch death: part of
        // the batch may have been applied. Unacknowledged is the honest
        // answer.
        let replies = self.run_on_replica(group, primary, gops, gspans, true)?;
        // Acknowledgement waits for every backup: a write is acked only
        // once applied on all in-service replicas. A backup that errors
        // or dies here degrades the group (quarantine / dead + re-sync)
        // but does not retract the primary's reply. Backups carry no
        // spans: execute-stage attribution belongs to the primary alone.
        // A backup applies exactly the writes the primary applied, with
        // no routing check of its own: the primary's ran under its slot
        // lock, ordered with any migration barrier, and a later re-check
        // could refuse (a freeze landed since) a write already acked.
        let writes: Vec<BatchOp> = gops
            .iter()
            .zip(&replies)
            .filter(|(op, reply)| op.is_write() && reply.error().is_none())
            .map(|(op, _)| op.clone())
            .collect();
        for replica in 0..inner.replicas {
            let in_service = ctl.machine.health(replica) == ShardHealth::Healthy;
            if replica != primary && in_service && !writes.is_empty() {
                let _ = self.run_on_replica(group, replica, &writes, &[], false);
            }
        }
        Ok(replies)
    }

    /// Apply `ops` on one replica under its slot lock and scan the
    /// replies for violations; `routed` runs the execution-time routing
    /// check first (primaries only). `Err` means the replica's store is
    /// gone (and has been marked dead): nothing is acknowledged.
    fn run_on_replica(
        &self,
        group: usize,
        replica: usize,
        ops: &[BatchOp],
        spans: &[Arc<SpanCell>],
        routed: bool,
    ) -> Result<Vec<BatchReply>, StoreError> {
        let inner = &self.inner;
        let slot = inner.slot_index(group, replica);
        let n = ops.len() as u64;
        // Charged before the lock is requested, so ops waiting on the
        // slot count toward the queue-delay estimate and the watchdog's
        // "accepting, not retiring" test; retired here on every path.
        let inflight = &inner.slots[slot].state.inflight_ops;
        inflight.fetch_add(n, Ordering::SeqCst);
        for s in spans {
            s.stamp(trace_stage::ENQUEUE);
        }
        let ran =
            with_slot(inner, slot, |store| execute_batch(inner, slot, store, ops, spans, routed));
        inflight.fetch_sub(n, Ordering::SeqCst);
        let replies = ran?;
        observe_errors(inner, slot, replies.iter().filter_map(BatchReply::error));
        Ok(replies)
    }

    /// The replica that should serve this group right now, promoting a
    /// healthy backup if the incumbent primary is out of service.
    fn acting_primary(&self, group: usize) -> Result<usize, StoreError> {
        let m = &self.inner.ctls[group].machine;
        let p = m.primary();
        if m.health(p) == ShardHealth::Healthy {
            return Ok(p);
        }
        if let Some(np) = m.promote() {
            record_failover(&self.inner, group, np);
            return Ok(np);
        }
        // A concurrent promoter may have won the race.
        let p = m.primary();
        if m.health(p) == ShardHealth::Healthy {
            return Ok(p);
        }
        Err(self.group_refusal(group))
    }

    /// The error a request routed to a fully out-of-service group must
    /// be refused with.
    fn group_refusal(&self, group: usize) -> StoreError {
        match self.group_health(group) {
            ShardHealth::Quarantined | ShardHealth::Recovering => {
                StoreError::ShardQuarantined { shard: group }
            }
            _ => StoreError::ShardUnavailable { shard: group },
        }
    }

    /// Total live keys across all groups (counted on each group's
    /// primary). Groups whose store is gone contribute nothing.
    #[allow(clippy::len_without_is_empty)] // is_empty is defined right below
    pub fn len(&self) -> u64 {
        self.try_map_shards(|s| s.len()).into_iter().flatten().sum()
    }

    /// Sum of every group's last primary-reported key count. Unlike
    /// [`ShardedStore::len`] this never waits for a slot lock and
    /// still counts quarantined, recovering and dead groups (at their
    /// last-known size), so monitoring stays truthful mid-incident.
    pub fn len_estimate(&self) -> u64 {
        (0..self.inner.groups)
            .map(|g| {
                let p = self.inner.ctls[g].machine.primary();
                self.inner.slots[self.inner.slot_index(g, p)].state.last_len.load(Ordering::SeqCst)
            })
            .sum()
    }

    /// Whether every reachable group is empty.
    pub fn is_empty(&self) -> bool {
        self.try_map_shards(|s| s.is_empty()).into_iter().flatten().all(|e| e)
    }

    /// Per-group Secure Cache statistics (index = group, read on the
    /// primary). `None` for stores without a Secure Cache *and* for
    /// unreachable groups.
    pub fn cache_stats(&self) -> Vec<Option<CacheStats>> {
        self.try_map_shards(|s| s.cache_stats()).into_iter().map(|s| s.flatten()).collect()
    }

    /// Cache statistics summed across groups (`None` if no shard runs a
    /// Secure Cache). `swapping` is true if *any* shard still swaps.
    pub fn aggregate_cache_stats(&self) -> Option<CacheStats> {
        let mut agg: Option<CacheStats> = None;
        for stats in self.cache_stats().into_iter().flatten() {
            let agg = agg.get_or_insert_with(CacheStats::default);
            agg.hits += stats.hits;
            agg.misses += stats.misses;
            agg.swaps += stats.swaps;
            agg.swapping |= stats.swapping;
        }
        agg
    }

    /// Enclave snapshots of every reachable group's primary (condemned
    /// stores are skipped — monitoring must not panic mid-incident).
    pub fn snapshots(&self) -> Vec<EnclaveSnapshot> {
        self.try_map_shards(|s| s.enclave().snapshot()).into_iter().flatten().collect()
    }

    /// Aggregate enclave statistics across group primaries. `max_cycles`
    /// is the critical path — the wall clock of the parallel deployment.
    pub fn stats(&self) -> EnclaveStats {
        EnclaveStats::aggregate(self.snapshots())
    }

    /// Run `f` on one group's *primary* store under its slot lock.
    /// This is the escape hatch for store-specific APIs (attack
    /// injection, memory accounting) that the generic front-end does not
    /// mirror.
    ///
    /// # Panics
    ///
    /// Panics if the primary's store is gone (or `f` itself panics,
    /// which also condemns the store); unlike the op paths there is no
    /// result shape to carry a typed error in.
    pub fn with_shard<R, F>(&self, group: usize, f: F) -> R
    where
        F: FnOnce(&mut S) -> R,
    {
        let primary = self.inner.ctls[group].machine.primary();
        with_slot(&self.inner, self.inner.slot_index(group, primary), f)
            .unwrap_or_else(|e| panic!("with_shard: {e}"))
    }

    /// Run the same closure on every group's primary in turn,
    /// collecting per-group results.
    pub fn map_shards<R, F>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut S) -> R,
    {
        (0..self.inner.groups).map(|group| self.with_shard(group, &f)).collect()
    }

    /// [`ShardedStore::map_shards`] that tolerates missing stores: a
    /// group whose primary's store is gone yields `None` (and the
    /// replica is marked dead) instead of panicking. Note this *does*
    /// wait for quarantined groups — an in-flight recovery holds the
    /// slot lock.
    fn try_map_shards<R, F>(&self, f: F) -> Vec<Option<R>>
    where
        F: Fn(&mut S) -> R,
    {
        (0..self.inner.groups)
            .map(|group| {
                let primary = self.inner.ctls[group].machine.primary();
                with_slot(&self.inner, self.inner.slot_index(group, primary), &f).ok()
            })
            .collect()
    }

    // --- health machinery -------------------------------------------------------

    /// Per-group health snapshots (index = group). Reads atomics only —
    /// never takes a slot lock, so it stays accurate mid-quarantine.
    /// A group is `Healthy` while *any* replica can serve.
    pub fn healths(&self) -> Vec<ShardHealthSnapshot> {
        (0..self.inner.groups)
            .map(|g| {
                let mut violations = 0;
                let mut recoveries = 0;
                for r in 0..self.inner.replicas {
                    let st = &self.inner.slots[self.inner.slot_index(g, r)].state;
                    violations += st.violations.load(Ordering::SeqCst);
                    recoveries += st.recoveries.load(Ordering::SeqCst);
                }
                ShardHealthSnapshot { health: self.group_health(g), violations, recoveries }
            })
            .collect()
    }

    /// Per-replica health snapshots, group-major (`group * replicas +
    /// replica`). Reads atomics only, like [`ShardedStore::healths`].
    pub fn replica_healths(&self) -> Vec<ReplicaHealthSnapshot> {
        let inner = &self.inner;
        let mut out = Vec::with_capacity(inner.groups * inner.replicas);
        for g in 0..inner.groups {
            let m = &inner.ctls[g].machine;
            let p = m.primary();
            let plen = inner.slots[inner.slot_index(g, p)].state.last_len.load(Ordering::SeqCst);
            for r in 0..inner.replicas {
                let st = &inner.slots[inner.slot_index(g, r)].state;
                out.push(ReplicaHealthSnapshot {
                    group: g,
                    replica: r,
                    role: m.role_of(r),
                    health: m.health(r),
                    violations: st.violations.load(Ordering::SeqCst),
                    recoveries: st.recoveries.load(Ordering::SeqCst),
                    lag: st.last_len.load(Ordering::SeqCst).abs_diff(plen),
                });
            }
        }
        out
    }

    /// Per-group failover / re-sync counters with replica detail.
    pub fn group_stats(&self) -> Vec<GroupStats> {
        let replicas = self.replica_healths();
        (0..self.inner.groups)
            .map(|g| {
                let ctl = &self.inner.ctls[g];
                GroupStats {
                    group: g,
                    primary: ctl.machine.primary(),
                    failovers: ctl.machine.failovers(),
                    resyncs: ctl.resyncs.load(Ordering::SeqCst),
                    last_resync_error: ctl
                        .last_resync_error
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .clone(),
                    replicas: replicas.iter().filter(|r| r.group == g).cloned().collect(),
                }
            })
            .collect()
    }

    /// Current health of one group (`Healthy` while any replica serves).
    pub fn health_of(&self, group: usize) -> ShardHealth {
        self.group_health(group)
    }

    fn group_health(&self, group: usize) -> ShardHealth {
        let m = &self.inner.ctls[group].machine;
        let states: Vec<ShardHealth> = (0..m.replicas()).map(|r| m.health(r)).collect();
        if states.contains(&ShardHealth::Healthy) {
            ShardHealth::Healthy
        } else if states.contains(&ShardHealth::Recovering) {
            ShardHealth::Recovering
        } else if states.contains(&ShardHealth::Quarantined) {
            ShardHealth::Quarantined
        } else {
            ShardHealth::Dead
        }
    }

    /// Test hook: force every replica of a group to a health state.
    #[cfg(test)]
    fn force_health(&self, group: usize, health: ShardHealth) {
        let m = &self.inner.ctls[group].machine;
        for r in 0..m.replicas() {
            m.force(r, health);
        }
    }

    /// Run `f` on a group's primary store without waiting for it to
    /// finish (fire-and-forget [`ShardedStore::with_shard`]): `f` runs
    /// on a short-lived background thread, and this returns as soon as
    /// that thread *holds the slot* — so anything the caller submits
    /// next is ordered behind `f`. Returns `false` if the store is gone.
    /// Besides async upkeep, this is the fault-injection hook: a closure
    /// that sleeps stalls the shard, and one that panics condemns the
    /// store, after which the replica is marked dead (and, when
    /// replicated, a backup is promoted).
    pub fn exec_detached<F>(&self, group: usize, f: F) -> bool
    where
        F: FnOnce(&mut S) + Send + 'static,
    {
        let primary = self.inner.ctls[group].machine.primary();
        self.exec_detached_replica(group, primary, f)
    }

    /// [`ShardedStore::exec_detached`] addressed to a specific replica.
    pub fn exec_detached_replica<F>(&self, group: usize, replica: usize, f: F) -> bool
    where
        F: FnOnce(&mut S) + Send + 'static,
    {
        let slot = self.inner.slot_index(group, replica);
        // One-shot "slot held" signal; dropped unsent if the closure
        // never gets to run (store gone, or the store shutting down).
        let (held_tx, held_rx) = mpsc::channel::<()>();
        spawn_registered(&self.inner, format!("aria-detached-{slot}"), move |inner| {
            let _ = with_slot(inner, slot, |store| {
                let _ = held_tx.send(());
                f(store)
            });
        });
        held_rx.recv().is_ok()
    }

    /// Start one background maintenance ticker per shard group: every
    /// `interval` it runs a bounded [`KvStore::maintain`] pass (tier
    /// migration, log compaction, checkpointing — a no-op on untiered
    /// stores) on the group's acting primary, then refreshes its
    /// gauges. An error the pass returns is observed like an error in a
    /// client reply: an integrity violation quarantines the replica and
    /// starts its recovery. Each pass runs under the slot lock like any
    /// batch, so it never races client operations. The ticker never *waits* for the
    /// lock: finding the slot busy, it leaves the pass to the next batch
    /// that holds the slot (one pending pass at most — no stacking).
    /// That keeps the ticker free to sample the stuck-shard watchdog
    /// (see [`ShardedStore::set_watchdog_window`]) with atomic reads, so
    /// a wedged slot cannot silence it. The tickers poll the shutdown
    /// flag and are joined by `Drop`, so dropping the store
    /// mid-compaction cannot hang or leak a thread. Idempotent-ish:
    /// calling twice stacks extra tickers, so call once.
    pub fn start_maintenance(&self, interval: Duration) {
        for group in 0..self.inner.groups {
            spawn_registered(&self.inner, format!("aria-maint-{group}"), move |inner| {
                maintain_loop(inner, group, interval)
            });
        }
    }
}

/// Body of a group's maintenance ticker: sleep in short slices (so
/// shutdown is observed within ~10 ms), then sample the stuck-shard
/// watchdog and run one maintenance pass on the acting primary.
///
/// The watchdog samples *first* and reads atomics only — it must keep
/// firing while the slot is wedged, which is exactly when anything that
/// waits for the slot lock blocks. For the same reason the pass only
/// `try_lock`s the slot.
fn maintain_loop<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    group: usize,
    interval: Duration,
) {
    let mut last_retired: Option<u64> = None;
    let mut last_progress = Instant::now();
    loop {
        let mut remaining = interval;
        while !remaining.is_zero() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let slice = remaining.min(Duration::from_millis(10));
            thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let primary = inner.ctls[group].machine.primary();
        let slot = inner.slot_index(group, primary);
        let st = &inner.slots[slot].state;
        // --- stuck-shard watchdog (atomics only, never blocks) ---
        let retired = st.batches_retired.load(Ordering::SeqCst);
        let inflight = st.inflight_ops.load(Ordering::SeqCst);
        let window_ns = inner.watchdog_window_ns.load(Ordering::SeqCst);
        if last_retired != Some(retired) || inflight == 0 {
            // Progress (or nothing owed): reset the heartbeat. A
            // primary change lands here too via the retired mismatch.
            last_retired = Some(retired);
            last_progress = Instant::now();
        } else if window_ns > 0
            && (last_progress.elapsed().as_nanos() as u64) > window_ns
            && inner.ctls[group].machine.health(primary) == ShardHealth::Healthy
        {
            // Submitters are charged to the slot but nothing retired
            // for a full window: whoever holds the slot is stuck.
            // Quarantine through the health machine instead of letting
            // callers pile up on the lock forever. Recovery re-admits
            // the shard once its store verifies again (or a sibling
            // re-syncs it).
            inner.tele[slot].store.watchdog_quarantines.inc();
            quarantine_replica(inner, group, primary, 0);
            last_progress = Instant::now();
        }
        // --- maintenance pass (never waits for the slot) ---
        match inner.slots[slot].store.try_lock() {
            Ok(guard) => {
                st.maintain_due.store(false, Ordering::SeqCst);
                let pass = run_held(inner, slot, guard, |s| {
                    let pass = s.maintain();
                    s.refresh_gauges();
                    pass
                });
                // A gone store has already been marked dead.
                if let Ok(Err(e)) = pass {
                    observe_errors(inner, slot, [&e]);
                }
            }
            Err(_) => st.maintain_due.store(true, Ordering::SeqCst),
        }
    }
}

impl<S: KvStore + Send + 'static> Drop for ShardedStore<S> {
    fn drop(&mut self) {
        teardown(&self.inner);
    }
}

/// Shut the store down: raise the shutdown flag (background threads
/// check it at their next step and bail; nothing new is spawned) and
/// join every background thread. A thread blocked on a slot lock is
/// only ever waiting for another joined thread or for a caller that
/// still holds the `ShardedStore`, so the joins cannot hang.
fn teardown<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>) {
    inner.shutdown.store(true, Ordering::SeqCst);
    loop {
        let handles = std::mem::take(&mut *inner.threads.lock().unwrap_or_else(|p| p.into_inner()));
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<S: KvStore + Send + 'static> std::fmt::Debug for ShardedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.inner.groups)
            .field("replicas", &self.inner.replicas)
            .finish()
    }
}

/// Build a fresh store for one slot with the stored factory and install
/// it, replacing (and dropping) whatever the slot held.
pub(crate) fn install_store<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    slot: usize,
) -> Result<(), StoreError> {
    if inner.shutdown.load(Ordering::SeqCst) {
        return Err(StoreError::ShardUnavailable { shard: slot / inner.replicas });
    }
    let mut store = (inner.factory)(slot)?;
    store.attach_telemetry(Arc::clone(&inner.tele[slot]));
    store.refresh_gauges();
    inner.slots[slot].state.last_len.store(store.len(), Ordering::SeqCst);
    let previous = lock_slot(inner, slot).replace(store);
    // Dropped after the guard: tearing a store down is not slot work.
    drop(previous);
    Ok(())
}

/// Empty a slot (group deactivation), dropping its store.
pub(crate) fn remove_store<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>, slot: usize) {
    let previous = lock_slot(inner, slot).take();
    drop(previous);
}

fn lock_slot<S: KvStore + Send + 'static>(
    inner: &Inner<S>,
    slot: usize,
) -> std::sync::MutexGuard<'_, Option<S>> {
    // Every closure that touches a store runs under `catch_unwind`
    // inside the guard's scope ([`run_held`]), so a store panic never
    // unwinds through the guard and the lock is never poisoned by one.
    inner.slots[slot].store.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` on a slot's store under its lock, on the calling thread.
/// This is the only way anything reaches a store: batches, maintenance,
/// recovery, re-sync and reshard jobs all come through here, so
/// whatever holds the lock is exclusive with everything else.
///
/// An empty slot refuses with [`StoreError::ShardUnavailable`]. A panic
/// in `f` condemns the store — its state may be half-updated — so it is
/// dropped, the slot emptied, the replica marked dead, and the caller
/// (which survives) gets the same typed error.
pub(crate) fn with_slot<S, R, F>(inner: &Arc<Inner<S>>, slot: usize, f: F) -> Result<R, StoreError>
where
    S: KvStore + Send + 'static,
    F: FnOnce(&mut S) -> R,
{
    run_held(inner, slot, lock_slot(inner, slot), f)
}

/// [`with_slot`] for a caller that already holds the slot's guard.
fn run_held<S, R, F>(
    inner: &Arc<Inner<S>>,
    slot: usize,
    mut guard: std::sync::MutexGuard<'_, Option<S>>,
    f: F,
) -> Result<R, StoreError>
where
    S: KvStore + Send + 'static,
    F: FnOnce(&mut S) -> R,
{
    let ran = guard.as_mut().map(|store| {
        catch_unwind(AssertUnwindSafe(|| {
            let r = f(store);
            // Closures can do anything (recovery, attack injection), so
            // publish the size before the lock is released: whoever sees
            // this hold's effects also sees the updated estimate.
            inner.slots[slot].state.last_len.store(store.len(), Ordering::SeqCst);
            r
        }))
    });
    if let Some(Ok(r)) = ran {
        return Ok(r);
    }
    // Empty, or just panicked: take the condemned store out, release
    // the slot, and only then drop it — shielded, because a destructor
    // that panics on half-updated state must not take the caller down.
    let condemned = guard.take();
    drop(guard);
    let _ = catch_unwind(AssertUnwindSafe(move || drop(condemned)));
    let (group, replica) = (slot / inner.replicas, slot % inner.replicas);
    mark_replica_dead(inner, group, replica);
    Err(StoreError::ShardUnavailable { shard: group })
}

/// Count a promotion on the new primary's slot.
fn record_failover<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    group: usize,
    new_primary: usize,
) {
    inner.tele[inner.slot_index(group, new_primary)].store.failovers.inc();
}

/// Record a replica's store as gone: mark it dead, fail over if it was
/// the primary, and (when replicated) start a re-sync to pull a fresh
/// replacement back into the group. Called by the thread that found the
/// slot empty or saw the store panic, after it released the slot. An
/// empty slot on a `Recovering` replica (a re-sync about to install a
/// fresh store) is not a death: [`GroupHealthMachine::mark_dead`]
/// leaves that state to its claimant.
fn mark_replica_dead<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    group: usize,
    replica: usize,
) {
    let slot = inner.slot_index(group, replica);
    let m = &inner.ctls[group].machine;
    let Some(prev) = m.mark_dead(replica) else { return };
    inner.tele[slot].store.record_health_transition(prev.as_u8(), ShardHealth::Dead.as_u8());
    if m.primary() == replica {
        if let Some(np) = m.promote() {
            record_failover(inner, group, np);
        }
    }
    // A previously-healthy replica rejoins via re-sync; a death from
    // Quarantined already has a recovery claimant in flight (the
    // claim CAS retargets Dead → Recovering).
    if inner.replicas > 1 && prev == ShardHealth::Healthy {
        spawn_resync(inner, group, replica);
    }
}

/// Count a slot's integrity violations among `errors` and, if any of
/// them triggers quarantine, quarantine the replica and start its
/// recovery: the one path from a store error to the health machine,
/// for client replies and maintenance passes alike.
fn observe_errors<'a, S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    slot: usize,
    errors: impl IntoIterator<Item = &'a StoreError>,
) {
    let mut triggers = 0u64;
    for err in errors {
        if let StoreError::Integrity(v) = err {
            inner.tele[slot].store.record_violation(v.class());
        }
        if err.is_quarantine_trigger() {
            triggers += 1;
        }
    }
    if triggers > 0 {
        quarantine_replica(inner, slot / inner.replicas, slot % inner.replicas, triggers);
    }
}

/// Flip a replica to `Quarantined` and start its recovery. Exactly one
/// caller wins the CAS, so concurrent detections of the same incident
/// (or the stuck-shard watchdog on the maintenance ticker) start
/// exactly one recovery.
fn quarantine_replica<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    group: usize,
    replica: usize,
    violations: u64,
) {
    let slot = inner.slot_index(group, replica);
    inner.slots[slot].state.violations.fetch_add(violations, Ordering::SeqCst);
    let m = &inner.ctls[group].machine;
    if !m.quarantine(replica) {
        // Already quarantined, recovering, or dead.
        return;
    }
    inner.tele[slot]
        .store
        .record_health_transition(ShardHealth::Healthy.as_u8(), ShardHealth::Quarantined.as_u8());
    if m.primary() == replica {
        if let Some(np) = m.promote() {
            record_failover(inner, group, np);
        }
    }
    spawn_resync(inner, group, replica);
}

/// Start the single-flight recovery thread for a replica: re-sync from
/// a healthy sibling, or an in-place [`KvStore::recover`] when there is
/// none. Off the detecting thread on purpose — a full store audit under
/// the slot lock would otherwise stall a reactor's other shards; queued
/// behind whatever holds the slot (including the stall a watchdog
/// quarantine caught), it re-admits the replica once it verifies.
fn spawn_resync<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>, group: usize, replica: usize) {
    spawn_registered(inner, format!("aria-resync-{group}-{replica}"), move |inner| {
        resync_replica(inner, group, replica)
    });
}

/// Recovery of one replica (module docs, DESIGN.md §13): anti-entropy
/// re-sync from a surviving sibling, or the in-place self-audit when
/// there is none. Runs on its own thread; single-flight via
/// [`GroupHealthMachine::claim_recovery`].
fn resync_replica<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    group: usize,
    replica: usize,
) {
    let ctl = &inner.ctls[group];
    let m = &ctl.machine;
    let slot = inner.slot_index(group, replica);
    let tele = &inner.tele[slot].store;
    let Some(prev) = m.claim_recovery(replica) else { return };
    tele.record_health_transition(prev.as_u8(), ShardHealth::Recovering.as_u8());
    // Survivor: a healthy sibling, preferring the acting primary.
    let p = m.primary();
    let survivor = if p != replica && m.health(p) == ShardHealth::Healthy {
        Some(p)
    } else {
        (0..inner.replicas).find(|&r| r != replica && m.health(r) == ShardHealth::Healthy)
    };
    let verdict = if inner.shutdown.load(Ordering::SeqCst) {
        Err(StoreError::ShardUnavailable { shard: group })
    } else if let Some(survivor) = survivor {
        resync_from_survivor(inner, group, inner.slot_index(group, survivor), slot)
    } else {
        // No surviving replica to stream from. If this replica's own
        // store is still there (quarantined, not condemned) fall back
        // to the in-place self-audit; a fresh store without a survivor
        // to verify against could silently drop acknowledged writes, so
        // a condemned last replica stays dead.
        with_slot(inner, slot, |store| (0..RECOVERY_ATTEMPTS).any(|_| store.recover().is_ok()))
            .and_then(|verified| {
                // The untrusted state cannot be re-verified: the shard
                // never re-admits — answering from it could ack corrupt
                // data.
                verified.then_some(()).ok_or(StoreError::ShardQuarantined { shard: group })
            })
    };
    match verdict {
        Ok(()) => {
            inner.slots[slot].state.recoveries.fetch_add(1, Ordering::SeqCst);
            // Re-admit while the fence still holds writes out: once the
            // fence drops, any writer that sees the replica healthy will
            // also apply on its (now fully caught-up) store.
            if m.readmit(replica) {
                tele.record_health_transition(
                    ShardHealth::Recovering.as_u8(),
                    ShardHealth::Healthy.as_u8(),
                );
            }
            if let Some(np) = m.promote() {
                record_failover(inner, group, np);
            }
        }
        Err(err) => {
            *ctl.last_resync_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(err);
            if m.fail_recovery(replica) {
                tele.record_health_transition(
                    ShardHealth::Recovering.as_u8(),
                    ShardHealth::Dead.as_u8(),
                );
            }
        }
    }
    if survivor.is_some() {
        ctl.fence.store(false, Ordering::SeqCst);
    }
}

/// Re-sync a fresh store in the rejoiner's slot from the survivor through
/// a [`Transfer`] of every key (DESIGN.md §19). Returns with the group's
/// write fence **raised** (from the delta on); the caller re-admits and
/// lowers it.
fn resync_from_survivor<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    group: usize,
    survivor_slot: usize,
    rejoiner_slot: usize,
) -> Result<(), StoreError> {
    let ctl = &inner.ctls[group];
    // The rejoiner always restarts from a fresh store (own enclave, own
    // heap): its previous untrusted state is condemned wholesale rather
    // than patched, and every byte it will serve arrives through the
    // verified transfer.
    install_store(inner, rejoiner_slot)?;
    let mut transfer = Transfer::new(inner, survivor_slot, vec![rejoiner_slot]);
    while transfer.copy_chunk()? {}
    // The fence: refuse writes, then cycle the write lock. A writer holds
    // that lock until its batch is applied on every replica it
    // addressed, so once it has cycled every pre-fence write is in the
    // survivor's store, ahead of the delta's export.
    ctl.fence.store(true, Ordering::SeqCst);
    drop(ctl.write_lock.lock().unwrap_or_else(|p| p.into_inner()));
    transfer.delta()?;
    // Chaos hook: a replica that silently diverged mid-sync must be
    // caught by the root comparison, never re-admitted.
    let inject = {
        let guard = inner.resync_fault.read().unwrap_or_else(|p| p.into_inner());
        guard.as_ref().is_some_and(|hook| hook(group))
    };
    if inject {
        with_slot(inner, rejoiner_slot, |s| {
            let _ = s.put(b"\xffaria-divergence-injected", b"\xff");
        })?;
    }
    transfer.verify()?;
    ctl.resyncs.fetch_add(1, Ordering::SeqCst);
    let tele = &inner.tele[rejoiner_slot].store;
    tele.resyncs.inc();
    tele.resync_bytes.observe(transfer.bytes);
    Ok(())
}

/// One batch on a held slot: apply (behind the routing check when
/// `routed`), publish progress, make the covering flush, and run a
/// maintenance pass the ticker could not get in.
fn execute_batch<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    slot: usize,
    store: &mut S,
    ops: &[BatchOp],
    spans: &[Arc<SpanCell>],
    routed: bool,
) -> Vec<BatchReply> {
    let tele = &inner.tele[slot];
    let st = &inner.slots[slot].state;
    let n = ops.len() as u64;
    let started = Instant::now();
    tele.store.batch_size.observe(n);
    // ENQUEUE → DEQUEUE is the wait for the lock. The runs add their
    // attribution to every sampled span in the batch (`apply_ops`).
    for s in spans {
        s.stamp(trace_stage::DEQUEUE);
        s.stamp(trace_stage::EXEC_START);
    }
    let mut replies = if routed {
        apply_ops_validated(inner, slot, store, ops, spans)
    } else {
        apply_ops(inner, slot, store, ops, spans)
    };
    for s in spans {
        s.stamp(trace_stage::EXEC_END);
    }
    let per_op = (started.elapsed().as_nanos() as u64) / n.max(1);
    let prev = st.ewma_op_ns.load(Ordering::Relaxed);
    let next = if prev == 0 { per_op } else { prev - prev / 8 + per_op / 8 };
    st.ewma_op_ns.store(next, Ordering::Relaxed);
    st.batches_retired.fetch_add(1, Ordering::SeqCst);
    // Group commit: the replies are held back until one covering
    // `flush` has made the whole submission durable — an
    // acknowledgement is never issued for a write a crash could still
    // lose. Stores without a durability log flush as a no-op.
    if let Err(e) = store.flush() {
        // The covering fsync failed: nothing in this batch is provably
        // durable, so no write in it may be acknowledged. Reads stand —
        // they reflect in-memory state that is correct regardless of
        // durability.
        for r in replies.iter_mut() {
            match r {
                BatchReply::Put(res) if res.is_ok() => *res = Err(e.clone()),
                BatchReply::Delete(res) if res.is_ok() => *res = Err(e.clone()),
                _ => {}
            }
        }
    }
    // Only the slot's holder clears the flag, so a plain load suffices.
    if st.maintain_due.load(Ordering::SeqCst) {
        st.maintain_due.store(false, Ordering::SeqCst);
        if let Err(e) = store.maintain() {
            // Under the slot lock: the recovery this may start queues
            // behind it on its own thread.
            observe_errors(inner, slot, [&e]);
        }
    }
    store.refresh_gauges();
    replies
}

/// [`apply_ops`] behind the execution-time routing check: an op whose
/// slot this group no longer owns is refused with a typed
/// [`StoreError::WrongShard`] (the op was routed before an epoch flip
/// landed — applying it here could read or mutate state the new owner
/// is now authoritative for), and a *write* to a slot frozen by an
/// in-flight migration delta is refused retryably. Both refusals are
/// decided while holding the slot lock, so they are totally ordered
/// with the migration driver's barrier export, which takes the same
/// lock — the property the zero-acked-write-loss argument rests on
/// (DESIGN.md §18).
fn apply_ops_validated<S: KvStore + Send + 'static>(
    inner: &Inner<S>,
    slot: usize,
    store: &mut S,
    ops: &[BatchOp],
    spans: &[Arc<SpanCell>],
) -> Vec<BatchReply> {
    let group = slot / inner.replicas;
    let routing = &inner.routing;
    let verdict = |op: &BatchOp| {
        let rslot = routing.slot_of(op.key());
        let owner = routing.owner(rslot);
        if owner != group {
            Some(StoreError::WrongShard { shard: group, hint: owner, epoch: routing.epoch() })
        } else if op.is_write() && routing.is_frozen(rslot) {
            // Migration delta barrier: the write is refused, never
            // applied, never acknowledged — the client retries once the
            // slot lands on its new owner.
            Some(StoreError::ShardQuarantined { shard: group })
        } else {
            None
        }
    };
    let verdicts: Vec<Option<StoreError>> = ops.iter().map(verdict).collect();
    if verdicts.iter().all(Option::is_none) {
        return apply_ops(inner, slot, store, ops, spans);
    }
    let kept: Vec<BatchOp> =
        ops.iter().zip(&verdicts).filter(|(_, v)| v.is_none()).map(|(op, _)| op.clone()).collect();
    let mut applied = apply_ops(inner, slot, store, &kept, spans).into_iter();
    ops.iter()
        .zip(verdicts)
        .map(|(op, v)| match v {
            Some(err) => op.refused(err),
            None => applied.next().expect("one reply per kept op"),
        })
        .collect()
}

/// One reading of the slot's activity counters; a run's [`Attribution`]
/// is the difference of two readings taken around it, so the hot path
/// needs no per-stage clocks.
fn attribution_reading<S: KvStore>(store: &S, t: &ShardTelemetry) -> Attribution {
    let hits = t.cache.hits.get();
    // A histogram count sums 64 buckets. Every cold read takes a
    // nonzero time, so a zero sum means a zero count: a store without
    // a cold tier pays one load here, not 64.
    let cold = &t.store.cold_read_latency;
    Attribution {
        index_probes: t.store.index_probes.get(),
        counter_fetches: hits + t.cache.misses.get(),
        verify_depth: t.cache.verify_depth.sum(),
        cache_admit_evict: t.cache.inserts.get() + t.cache.evictions.get(),
        crypt_bytes: store.enclave().bytes_crypted(),
        cold_reads: if cold.sum() == 0 { 0 } else { cold.count() },
        hot_hits: hits,
    }
}

/// Apply a batch, feeding maximal same-kind runs to the batched trait
/// methods so stores that amortize per-request costs get to. Each run
/// records its amortized per-op latency; its counter deltas go to the
/// sampled `spans` and, when the run crossed the tail threshold, into a
/// tail span.
fn apply_ops<S: KvStore + Send + 'static>(
    inner: &Inner<S>,
    slot: usize,
    store: &mut S,
    ops: &[BatchOp],
    spans: &[Arc<SpanCell>],
) -> Vec<BatchReply> {
    let tele = &inner.tele[slot];
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let before =
            aria_telemetry::enabled().then(|| (Instant::now(), attribution_reading(store, tele)));
        // `kind` is the op's position in `NET_OP_NAMES`.
        let (latency, kind, j): (&Histogram, u8, usize) = match &ops[i] {
            BatchOp::Get(_) => {
                let mut j = i;
                while j < ops.len() && matches!(ops[j], BatchOp::Get(_)) {
                    j += 1;
                }
                let keys: Vec<&[u8]> = ops[i..j].iter().map(BatchOp::key).collect();
                out.extend(store.multi_get(&keys).into_iter().map(BatchReply::Get));
                (&tele.store.get_latency, 1, j)
            }
            BatchOp::Put(..) => {
                let mut j = i;
                while j < ops.len() && matches!(ops[j], BatchOp::Put(..)) {
                    j += 1;
                }
                let pairs: Vec<(&[u8], &[u8])> = ops[i..j]
                    .iter()
                    .map(|op| match op {
                        BatchOp::Put(k, v) => (k.as_slice(), v.as_slice()),
                        _ => unreachable!("run contains only puts"),
                    })
                    .collect();
                out.extend(store.put_batch(&pairs).into_iter().map(BatchReply::Put));
                (&tele.store.put_latency, 2, j)
            }
            BatchOp::Delete(_) => {
                let mut j = i;
                while j < ops.len() && matches!(ops[j], BatchOp::Delete(_)) {
                    j += 1;
                }
                for op in &ops[i..j] {
                    out.push(BatchReply::Delete(store.delete(op.key())));
                }
                (&tele.store.delete_latency, 3, j)
            }
        };
        if let Some((started, reading)) = before {
            let elapsed = started.elapsed().as_nanos() as u64;
            let n = (j - i) as u64;
            let per_op = elapsed / n;
            latency.observe_n(per_op, n);
            let slow = per_op >= inner.traces.tail_threshold_nanos();
            if slow || !spans.is_empty() {
                let run = attribution_reading(store, tele).since(&reading);
                for s in spans {
                    s.add_attribution(&run);
                }
                if slow {
                    let end = clock_nanos();
                    let start = end.saturating_sub(elapsed).max(1);
                    inner.traces.publish_tail(&Span::tail(slot as u32, kind, n, start, end, run));
                }
            }
        }
        i = j;
    }
    out
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Finalizing mixer (splitmix64): decorrelates shard routing from the
/// in-shard bucket hash, which is the raw FNV digest modulo a power of
/// two. Public because it is also a convenient, dependency-free PRNG
/// step (chain it over its own output) for jitter and test seeding.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AriaHash, StoreConfig};
    use aria_sim::Enclave;

    fn small_sharded(shards: usize) -> ShardedStore<AriaHash> {
        ShardedStore::with_shards(shards, |_| {
            AriaHash::new(StoreConfig::for_keys(4_096), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap()
    }

    fn replicated(groups: usize, replicas: usize) -> ShardedStore<AriaHash> {
        ShardedStore::with_replicas(groups, replicas, |_| {
            AriaHash::new(StoreConfig::for_keys(4_096), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap()
    }

    #[test]
    fn sharded_store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedStore<AriaHash>>();
    }

    #[test]
    fn health_and_role_bytes_decode_fail_closed() {
        assert_eq!(ShardHealth::from_u8(1), ShardHealth::Quarantined);
        assert_eq!(ReplicaRole::from_u8(0), ReplicaRole::Primary);
        // Unknown states fail closed to Dead; unknown roles to Backup.
        assert_eq!(ShardHealth::from_u8(200), ShardHealth::Dead);
        assert_eq!(ReplicaRole::from_u8(77), ReplicaRole::Backup);
    }

    #[test]
    fn basic_ops_round_trip() {
        let store = small_sharded(4);
        assert!(store.is_empty());
        store.put(b"alpha", b"1").unwrap();
        store.put(b"beta", b"2").unwrap();
        assert_eq!(store.get(b"alpha").unwrap().unwrap(), b"1");
        assert_eq!(store.get(b"missing").unwrap(), None);
        assert_eq!(store.len(), 2);
        assert!(store.delete(b"alpha").unwrap());
        assert!(!store.delete(b"alpha").unwrap());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn drop_mid_maintenance_joins_tickers() {
        use crate::tiered::{TieredOptions, TieredStore};
        let dir = std::env::temp_dir().join(format!("aria-sharded-maint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir2 = dir.clone();
        let store = ShardedStore::with_shards(2, move |slot| {
            let hot =
                AriaHash::new(StoreConfig::for_keys(4_096), Arc::new(Enclave::with_default_epc()))?;
            let opts = TieredOptions::new(dir2.join(format!("shard-{slot}")))
                .segment_bytes(4_096)
                .hot_budget_bytes(2 << 10)
                .checkpoint_every(64)
                .compact_min_dead_ratio(0.2);
            TieredStore::open(hot, &[0x42; 16], opts)
        })
        .unwrap();
        store.start_maintenance(Duration::from_millis(1));
        // Churn hard enough that migration, compaction and checkpoints
        // are all in flight when the store drops.
        for round in 0..10u8 {
            for i in 0..64u32 {
                store.put(format!("k{i}").as_bytes(), &[round; 128]).unwrap();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        // Drop must join the tickers mid-pass without hanging or
        // panicking; the harness timeout is the regression detector.
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_batch_preserves_input_order() {
        let store = small_sharded(4);
        let mut ops = Vec::new();
        for i in 0..64u32 {
            ops.push(BatchOp::Put(format!("key{i}").into_bytes(), i.to_le_bytes().to_vec()));
        }
        for reply in store.run_batch(ops) {
            assert!(matches!(reply, BatchReply::Put(Ok(()))));
        }
        let gets: Vec<BatchOp> =
            (0..64u32).map(|i| BatchOp::Get(format!("key{i}").into_bytes())).collect();
        for (i, reply) in store.run_batch(gets).into_iter().enumerate() {
            match reply {
                BatchReply::Get(Ok(Some(v))) => assert_eq!(v, (i as u32).to_le_bytes()),
                other => panic!("op {i}: unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn run_sharded_matches_run_batch() {
        let store = small_sharded(4);
        // Pre-group the ops exactly as the reactor would, submit via
        // the pre-grouped path, and check shape + contents.
        let mut per_group: Vec<Vec<BatchOp>> = (0..4).map(|_| Vec::new()).collect();
        let mut group_of: Vec<usize> = Vec::new();
        for i in 0..48u32 {
            let key = format!("rs{i}").into_bytes();
            let g = store.shard_of(&key);
            group_of.push(g);
            per_group[g].push(BatchOp::Put(key, i.to_le_bytes().to_vec()));
        }
        let replies = store.run_sharded(per_group.clone(), (0..4).map(|_| Vec::new()).collect());
        assert_eq!(replies.len(), 4);
        for (g, group_replies) in replies.iter().enumerate() {
            assert_eq!(group_replies.len(), per_group[g].len(), "group {g} reply shape");
            assert!(group_replies.iter().all(|r| matches!(r, BatchReply::Put(Ok(())))));
        }
        // Every key is readable back through the ordinary path.
        for i in 0..48u32 {
            let key = format!("rs{i}").into_bytes();
            assert_eq!(store.get(&key).unwrap().unwrap(), i.to_le_bytes());
        }
        // Reads through run_sharded see the same data, empty groups
        // answer with empty vectors, and a span cell riding with the
        // read is stamped through lock wait and execution.
        let mut gets: Vec<Vec<BatchOp>> = (0..4).map(|_| Vec::new()).collect();
        let mut spans: Vec<Vec<Arc<SpanCell>>> = (0..4).map(|_| Vec::new()).collect();
        let key0 = b"rs0".to_vec();
        gets[group_of[0]].push(BatchOp::Get(key0));
        let cell = Arc::new(SpanCell::new(7, 0));
        spans[group_of[0]].push(Arc::clone(&cell));
        let got = store.run_sharded(gets, spans);
        let span = cell.to_span();
        for st in [
            trace_stage::ENQUEUE,
            trace_stage::DEQUEUE,
            trace_stage::EXEC_START,
            trace_stage::EXEC_END,
        ] {
            assert_ne!(span.stages[st], 0, "stage {st} unstamped: {span:?}");
        }
        assert!(span.stages_monotone(), "stage stamps out of order: {span:?}");
        if aria_telemetry::enabled() {
            let a = span.attribution;
            assert!(a.index_probes > 0 && a.crypt_bytes > 0, "run cost not attributed: {a:?}");
        }
        for (g, group_replies) in got.iter().enumerate() {
            if g == group_of[0] {
                assert_eq!(
                    group_replies,
                    &vec![BatchReply::Get(Ok(Some(0u32.to_le_bytes().to_vec())))]
                );
            } else {
                assert!(group_replies.is_empty(), "group {g} had no ops");
            }
        }
    }

    #[test]
    fn slow_runs_become_tail_spans() {
        let store = small_sharded(2);
        store.traces().set_tail_threshold_nanos(0);
        // One put run then one get run, on one group: two tail spans.
        let keys: Vec<Vec<u8>> = (0..40u32).map(|i| format!("t{i}").into_bytes()).collect();
        let group = store.shard_of(&keys[0]);
        let mine: Vec<&Vec<u8>> = keys.iter().filter(|k| store.shard_of(k) == group).collect();
        let mut ops: Vec<BatchOp> =
            mine.iter().map(|k| BatchOp::Put(k.to_vec(), b"v".to_vec())).collect();
        ops.extend(mine.iter().map(|k| BatchOp::Get(k.to_vec())));
        store.run_batch(ops);
        let (spans, _) = store.traces().read_since(&[]);
        if !aria_telemetry::enabled() {
            assert!(spans.is_empty());
            return;
        }
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert_eq!(store.traces().summary().tail_spans, 2);
        assert_eq!(store.traces().summary().stage_nanos[trace_stage::EXEC_END].count(), 0);
        for (s, name) in spans.iter().zip(["put", "get"]) {
            assert!(s.is_tail());
            assert_eq!(aria_telemetry::NET_OP_NAMES[s.kind as usize], name);
            assert_eq!(s.shard as usize, group);
            assert_eq!(s.ops as usize, mine.len());
            assert_ne!(s.stages[trace_stage::EXEC_START], 0, "{s:?}");
            assert!(s.stages[trace_stage::EXEC_END] >= s.stages[trace_stage::EXEC_START]);
            assert!(s.attribution.index_probes > 0, "{s:?}");
            assert!(s.attribution.counter_fetches > 0, "{s:?}");
            assert!(s.attribution.crypt_bytes > 0, "{s:?}");
        }
    }

    #[test]
    fn mixed_batch_matches_sequential_semantics() {
        let store = small_sharded(3);
        let ops = vec![
            BatchOp::Put(b"a".to_vec(), b"1".to_vec()),
            BatchOp::Put(b"b".to_vec(), b"2".to_vec()),
            BatchOp::Get(b"a".to_vec()),
            BatchOp::Delete(b"b".to_vec()),
            BatchOp::Get(b"b".to_vec()),
        ];
        let replies = store.run_batch(ops);
        assert!(matches!(replies[0], BatchReply::Put(Ok(()))));
        assert!(matches!(replies[1], BatchReply::Put(Ok(()))));
        // a and b may land on different shards, so only same-shard
        // ordering is guaranteed; a's get follows a's put on a's shard.
        assert_eq!(replies[2], BatchReply::Get(Ok(Some(b"1".to_vec()))));
        assert_eq!(replies[3], BatchReply::Delete(Ok(true)));
        assert_eq!(replies[4], BatchReply::Get(Ok(None)));
    }

    #[test]
    fn partitioning_is_stable_and_spread() {
        let store = small_sharded(4);
        let mut used = [0u32; 4];
        for i in 0..256u32 {
            let key = format!("user:{i}");
            let first = store.shard_of(key.as_bytes());
            assert_eq!(first, store.shard_of(key.as_bytes()));
            used[first] += 1;
        }
        // All shards get meaningful traffic from a uniform key set.
        for (shard, &count) in used.iter().enumerate() {
            assert!(count > 16, "shard {shard} got only {count}/256 keys");
        }
    }

    #[test]
    fn construction_failure_propagates() {
        let result = ShardedStore::<AriaHash>::with_shards(4, |shard| {
            if shard == 2 {
                Err(StoreError::CountersExhausted)
            } else {
                AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
            }
        });
        assert_eq!(result.err(), Some(StoreError::CountersExhausted));
    }

    #[test]
    fn with_shard_reaches_store_specific_api() {
        let store = small_sharded(2);
        store.put(b"probe", b"x").unwrap();
        let shard = store.shard_of(b"probe");
        let len = store.with_shard(shard, |s| s.len());
        assert_eq!(len, 1);
        let other = store.with_shard(1 - shard, |s| s.len());
        assert_eq!(other, 0);
    }

    #[test]
    fn condemned_store_yields_typed_error_not_hang() {
        let store = small_sharded(4);
        store.put(b"seed", b"v").unwrap();
        let dead = store.shard_of(b"seed");
        // A panic under the slot lock condemns that store. The detached
        // closure holds the slot by the time `exec_detached` returns, so
        // the very next op waits it out and finds the slot empty.
        assert!(store.exec_detached(dead, |_| panic!("injected store crash")));
        assert_eq!(store.get(b"seed"), Err(StoreError::ShardUnavailable { shard: dead }));
        assert_eq!(store.put(b"seed", b"w"), Err(StoreError::ShardUnavailable { shard: dead }));
        assert_eq!(store.delete(b"seed"), Err(StoreError::ShardUnavailable { shard: dead }));
        // A batch spanning live and dead shards: dead shard's ops carry
        // the typed error, live shards still answer.
        let ops: Vec<BatchOp> =
            (0..64u32).map(|i| BatchOp::Put(format!("k{i}").into_bytes(), vec![1])).collect();
        let keys: Vec<Vec<u8>> = (0..64u32).map(|i| format!("k{i}").into_bytes()).collect();
        let replies = store.run_batch(ops);
        let mut dead_ops = 0;
        let mut live_ops = 0;
        for (key, reply) in keys.iter().zip(replies) {
            if store.shard_of(key) == dead {
                assert_eq!(
                    reply,
                    BatchReply::Put(Err(StoreError::ShardUnavailable { shard: dead }))
                );
                dead_ops += 1;
            } else {
                assert_eq!(reply, BatchReply::Put(Ok(())));
                live_ops += 1;
            }
        }
        assert!(dead_ops > 0 && live_ops > 0, "want both shard fates exercised");
    }

    #[test]
    fn quarantine_gating_refuses_ops_without_touching_store() {
        let store = small_sharded(2);
        store.put(b"k", b"v").unwrap();
        let shard = store.shard_of(b"k");
        store.force_health(shard, ShardHealth::Quarantined);
        assert_eq!(store.get(b"k"), Err(StoreError::ShardQuarantined { shard }));
        store.force_health(shard, ShardHealth::Recovering);
        assert_eq!(store.put(b"k", b"w"), Err(StoreError::ShardQuarantined { shard }));
        store.force_health(shard, ShardHealth::Dead);
        assert_eq!(store.delete(b"k"), Err(StoreError::ShardUnavailable { shard }));
        // Re-admission restores service — the store itself was never touched.
        store.force_health(shard, ShardHealth::Healthy);
        assert_eq!(store.get(b"k").unwrap().unwrap(), b"v");
    }

    #[test]
    fn violation_quarantines_shard_then_recovery_readmits_it() {
        let store = small_sharded(2);
        for i in 0..128u32 {
            store.put(format!("key{i}").as_bytes(), b"payload").unwrap();
        }
        let victim_key = b"key7".to_vec();
        let victim = store.shard_of(&victim_key);
        let sibling_key = (0..128u32)
            .map(|i| format!("key{i}").into_bytes())
            .find(|k| store.shard_of(k) != victim)
            .expect("some key lives on the other shard");

        // Tamper with the sealed value bytes in untrusted memory.
        let k = victim_key.clone();
        assert!(store.with_shard(victim, move |s| s.attack_tamper_value(&k)));

        // The read detects the attack (never acks wrong bytes) and
        // triggers quarantine + auto-recovery.
        let err = store.get(&victim_key).unwrap_err();
        assert!(err.is_quarantine_trigger(), "got {err:?}");

        // Recovery runs in the background; wait for re-admission.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let snap = store.healths()[victim];
            if snap.health == ShardHealth::Healthy && snap.recoveries >= 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "shard never re-admitted: {snap:?}");
            // The sibling shard keeps serving throughout.
            assert_eq!(store.get(&sibling_key).unwrap().unwrap(), b"payload");
            std::thread::yield_now();
        }
        let snap = store.healths()[victim];
        assert!(snap.violations >= 1);
        assert_eq!(snap.recoveries, 1);

        // The tampered entry was destroyed: its bucket now fails closed,
        // and that scar must NOT re-quarantine the shard.
        assert_eq!(
            store.get(&victim_key),
            Err(StoreError::Integrity(crate::Violation::DataDestroyed))
        );
        assert_eq!(store.healths()[victim].health, ShardHealth::Healthy);

        // Untouched keys on the recovered shard still verify and serve.
        let survivor = (0..128u32)
            .map(|i| format!("key{i}").into_bytes())
            .find(|k| store.shard_of(k) == victim && *k != victim_key)
            .expect("victim shard holds more keys");
        assert_eq!(store.get(&survivor).unwrap().unwrap(), b"payload");
        // And the shard accepts new writes again.
        store.put(b"fresh-after-recovery", b"x").unwrap();
    }

    #[test]
    fn condemned_store_is_reflected_in_health() {
        let store = small_sharded(2);
        store.put(b"seed", b"v").unwrap();
        let dead = store.shard_of(b"seed");
        // A panicking batch-path closure is contained the same way: the
        // caller survives with the typed error, synchronously.
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            store.with_shard(dead, |_: &mut AriaHash| panic!("injected store crash"))
        }));
        assert!(crashed.is_err(), "with_shard has no result shape for a lost store");
        assert_eq!(store.healths()[dead].health, ShardHealth::Dead);
        assert_eq!(store.healths()[1 - dead].health, ShardHealth::Healthy);
        assert_eq!(store.get(b"seed"), Err(StoreError::ShardUnavailable { shard: dead }));
        // Monitoring paths skip the missing store instead of panicking.
        let _ = store.len();
        assert_eq!(store.cache_stats()[dead], None);
        assert_eq!(store.snapshots().len(), 1);
        // A second detached closure has no store to run on.
        assert!(!store.exec_detached(dead, |_| {}));
    }

    #[test]
    fn drop_joins_detached_work_behind_a_stall() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let store = small_sharded(2);
        let applied = Arc::new(AtomicU64::new(0));
        // Stall the slot, then pile detached work up behind the stall
        // from several submitters; dropping the store must still let
        // every accepted closure run and join its thread, losing none.
        assert!(
            store.exec_detached(0, |_| std::thread::sleep(std::time::Duration::from_millis(100)))
        );
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let applied = Arc::clone(&applied);
                    assert!(store.exec_detached(0, move |_| {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        applied.fetch_add(1, Ordering::SeqCst);
                    }));
                });
            }
        });
        // Every submitter has returned, so each closure holds (or held)
        // the slot; the last one may still be mid-sleep.
        drop(store);
        assert_eq!(applied.load(Ordering::SeqCst), 8);
    }

    /// `exec_detached` returns only once its closure holds the slot:
    /// what the caller submits next waits the closure out, while other
    /// groups are untouched (the ordering `tests/overload.rs` builds its
    /// stalls on).
    #[test]
    fn exec_detached_orders_ahead_of_the_next_submission() {
        const STALL: Duration = Duration::from_millis(200);
        let store = small_sharded(2);
        let on = |g: usize| {
            (0..64u32)
                .map(|i| format!("k{i}").into_bytes())
                .find(|k| store.shard_of(k) == g)
                .expect("some key routes to the group")
        };
        let (stalled_key, free_key) = (on(0), on(1));
        let stalled_at = Instant::now();
        assert!(store.exec_detached(0, |_| thread::sleep(STALL)));
        let replies = store.run_batch(vec![BatchOp::Put(free_key, b"v".to_vec())]);
        assert_eq!(replies, vec![BatchReply::Put(Ok(()))]);
        assert!(stalled_at.elapsed() < STALL, "the other group must not wait for the stall");
        let replies = store.run_batch(vec![BatchOp::Put(stalled_key, b"v".to_vec())]);
        assert_eq!(replies, vec![BatchReply::Put(Ok(()))]);
        assert!(stalled_at.elapsed() >= STALL, "the stalled group's batch must wait the stall out");
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let store = small_sharded(4);
        for i in 0..100u32 {
            store.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.enclaves, 4);
        assert!(stats.totals.cycles > 0);
        assert!(stats.max_cycles <= stats.totals.cycles);
        let cache = store.aggregate_cache_stats().expect("AriaHash runs a Secure Cache");
        assert!(cache.accesses() > 0);
    }

    // --- replication -----------------------------------------------------------

    #[test]
    fn replicated_round_trip_and_backup_applies_writes() {
        let store = replicated(2, 2);
        for i in 0..64u32 {
            store.put(format!("key{i}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        for i in 0..64u32 {
            assert_eq!(store.get(format!("key{i}").as_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
        assert!(store.delete(b"key0").unwrap());
        // The backups applied every write synchronously: per-group
        // primary and backup lengths match (lag 0).
        for snap in store.replica_healths() {
            assert_eq!(snap.health, ShardHealth::Healthy);
            assert_eq!(snap.lag, 0, "replica {snap:?} lags");
        }
        assert_eq!(store.len(), 63);
    }

    /// A migration freeze landing between the primary's apply and a
    /// backup's must not cost the backup an acknowledged write:
    /// backups apply what the primary applied, with no routing check
    /// of their own.
    #[test]
    fn backups_keep_every_acked_write_across_freeze_toggles() {
        use std::sync::atomic::AtomicBool;
        let store = Arc::new(
            ShardedStore::with_elastic(1, 2, 2, |_| {
                AriaHash::new(StoreConfig::for_keys(8_192), Arc::new(Enclave::with_default_epc()))
            })
            .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let toggler = {
            let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
            std::thread::spawn(move || {
                let slots: Vec<usize> = (0..NUM_ROUTING_SLOTS).collect();
                let mut on = false;
                while !stop.load(Ordering::SeqCst) {
                    on = !on;
                    store.routing().freeze(&slots, on);
                    std::thread::yield_now();
                }
                store.routing().freeze(&slots, false);
            })
        };
        let acked: Vec<u32> =
            (0..4_000u32).filter(|i| store.put(format!("k{i}").as_bytes(), b"v").is_ok()).collect();
        stop.store(true, Ordering::SeqCst);
        toggler.join().unwrap();
        assert!(acked.len() < 4_000, "no write met a freeze; the race was never exercised");
        let backup = store.inner.slot_index(0, 1);
        let on_backup = |i: &u32| {
            with_slot(&store.inner, backup, |s| s.get(format!("k{i}").as_bytes())).unwrap()
        };
        let missing = acked.iter().filter(|i| on_backup(i) != Ok(Some(b"v".to_vec()))).count();
        assert_eq!(missing, 0, "backup lacks {missing} of {} acked writes", acked.len());
        let lag = store.replica_healths()[1].lag;
        assert_eq!(lag, 0, "backup holds a write its primary refused");
    }

    fn wait_group_stats<F>(store: &ShardedStore<AriaHash>, what: &str, ok: F)
    where
        F: Fn(&[GroupStats]) -> bool,
    {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let stats = store.group_stats();
            if ok(&stats) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn primary_kill_fails_over_and_resyncs() {
        let store = replicated(2, 2);
        for i in 0..128u32 {
            store.put(format!("key{i}").as_bytes(), b"durable").unwrap();
        }
        for g in 0..2 {
            let p = store.group_stats()[g].primary;
            assert!(store.exec_detached_replica(g, p, |_| panic!("injected primary kill")));
        }
        // Every acknowledged write survives the failover: reads promote
        // the backup on demand and must find all 128 keys.
        for i in 0..128u32 {
            let key = format!("key{i}");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                match store.get(key.as_bytes()) {
                    Ok(Some(v)) => {
                        assert_eq!(v, b"durable");
                        break;
                    }
                    Ok(None) => panic!("acked write {key} lost after failover"),
                    Err(_) if std::time::Instant::now() < deadline => std::thread::yield_now(),
                    Err(e) => panic!("group never failed over for {key}: {e:?}"),
                }
            }
        }
        // The killed replicas re-sync from the survivor and re-admit
        // with matching content roots.
        wait_group_stats(&store, "failover + re-sync", |stats| {
            stats.iter().all(|g| {
                g.failovers >= 1
                    && g.resyncs >= 1
                    && g.replicas.iter().all(|r| r.health == ShardHealth::Healthy)
            })
        });
        // Post-re-admission the group serves writes on both replicas.
        store.put(b"after-readmit", b"y").unwrap();
        assert_eq!(store.get(b"after-readmit").unwrap().unwrap(), b"y");
        for snap in store.replica_healths() {
            assert_eq!(snap.lag, 0, "re-admitted replica lags: {snap:?}");
        }
    }

    #[test]
    fn diverged_replica_is_never_readmitted() {
        let store = replicated(1, 2);
        store.set_resync_fault_hook(|_| true);
        for i in 0..64u32 {
            store.put(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        let p = store.group_stats()[0].primary;
        assert!(store.exec_detached_replica(0, p, |_| panic!("injected primary kill")));
        // The kill itself marks the replica dead, fails over and kicks
        // the (sabotaged) re-sync; reads keep flowing meanwhile.
        wait_group_stats(&store, "divergence verdict", |stats| {
            let _ = store.get(b"key1");
            stats[0].last_resync_error == Some(StoreError::ReplicaDiverged { shard: 0 })
        });
        let stats = &store.group_stats()[0];
        assert_eq!(stats.resyncs, 0, "diverged replica must not count as re-synced");
        let diverged = &stats.replicas[p];
        assert_eq!(diverged.health, ShardHealth::Dead, "diverged replica must stay dead");
        // The survivor keeps the group serving.
        assert_eq!(store.get(b"key1").unwrap().unwrap(), b"v");
    }

    #[test]
    fn drop_mid_resync_under_load_joins_cleanly() {
        for round in 0..3 {
            let store = replicated(2, 2);
            for i in 0..256u32 {
                store.put(format!("key{round}-{i}").as_bytes(), b"load").unwrap();
            }
            let p = store.group_stats()[0].primary;
            assert!(store.exec_detached_replica(0, p, |_| panic!("injected primary kill")));
            // Keep the store busy so Drop races an in-flight re-sync.
            for i in 0..64u32 {
                let _ = store.put(format!("busy{round}-{i}").as_bytes(), b"x");
            }
            // Dropping here must join the re-sync thread (not leave it
            // running against a freed store) and never deadlock.
            drop(store);
        }
    }

    #[test]
    fn replication_off_keeps_single_slot_per_group() {
        let store = small_sharded(4);
        assert_eq!(store.replicas(), 1);
        assert_eq!(store.telemetry().len(), 4);
        let snaps = store.replica_healths();
        assert_eq!(snaps.len(), 4);
        assert!(snaps.iter().all(|s| s.role == ReplicaRole::Primary));
    }

    // --- overload control -------------------------------------------------------

    #[test]
    fn admission_refuses_over_budget_and_hints_retry() {
        let store = small_sharded(1);
        // No budget configured: everything is admitted.
        store.put(b"k", b"v").unwrap();
        assert_eq!(store.shed_ops_total(), 0);
        store.set_queue_delay_budget(Some(Duration::from_millis(1)));
        assert_eq!(store.queue_delay_budget(), Some(Duration::from_millis(1)));
        // Fake a backlog on the only slot: 1000 in-flight ops at 1 ms
        // EWMA each is a 1 s queue-delay estimate, far over budget.
        let st = &store.inner.slots[0].state;
        st.inflight_ops.store(1_000, Ordering::SeqCst);
        st.ewma_op_ns.store(1_000_000, Ordering::SeqCst);
        assert_eq!(store.queue_delay_estimates(), vec![1_000_000_000]);
        match store.put(b"k2", b"v") {
            Err(StoreError::Overloaded { shard, retry_after_ms }) => {
                assert_eq!(shard, 0);
                // (est - budget) / 1e6 = 999 ms, inside the clamp.
                assert_eq!(retry_after_ms, 999);
            }
            other => panic!("want Overloaded, got {other:?}"),
        }
        assert_eq!(store.shed_ops_total(), 1, "the refused op is charged to the shed counter");
        // A refusal is not an acknowledgement: nothing was applied, so
        // the key must not exist once the backlog clears.
        st.inflight_ops.store(0, Ordering::SeqCst);
        assert_eq!(store.get(b"k2").unwrap(), None);
        store.put(b"k2", b"v2").unwrap();
        assert_eq!(store.get(b"k2").unwrap().unwrap(), b"v2");
        // Disarming re-opens admission unconditionally.
        store.set_queue_delay_budget(None);
        assert_eq!(store.queue_delay_budget(), None);
        st.inflight_ops.store(1_000, Ordering::SeqCst);
        store.put(b"k3", b"v3").unwrap();
        st.inflight_ops.store(0, Ordering::SeqCst);
    }

    #[test]
    fn watchdog_quarantines_stalled_shard_then_recovery_readmits() {
        let store = Arc::new(small_sharded(1));
        store.set_watchdog_window(Some(Duration::from_millis(40)));
        store.start_maintenance(Duration::from_millis(5));
        // Wedge the slot well past the window...
        assert!(store.exec_detached(0, |_st| thread::sleep(Duration::from_millis(400))));
        // ...while a client op waits on the slot lock behind the stall,
        // so the shard is "accepting work but retiring nothing" — the
        // watchdog's case.
        let s2 = Arc::clone(&store);
        let blocked = thread::spawn(move || s2.put(b"stalled", b"v"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.health_of(0) == ShardHealth::Healthy {
            assert!(Instant::now() < deadline, "watchdog never quarantined the stalled shard");
            thread::sleep(Duration::from_millis(5));
        }
        // Once the stall clears, the waiting recovery verifies the store
        // and re-admits the shard.
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.health_of(0) != ShardHealth::Healthy {
            assert!(Instant::now() < deadline, "stalled shard was never re-admitted");
            thread::sleep(Duration::from_millis(10));
        }
        // The queued op completed (either applied or typed-refused) —
        // it must not hang — and new work flows again.
        let _ = blocked.join().expect("blocked writer must not panic");
        store.put(b"after", b"v").unwrap();
        assert_eq!(store.get(b"after").unwrap().unwrap(), b"v");
        let watchdog_fires: u64 =
            store.telemetry().iter().map(|t| t.store.watchdog_quarantines.get()).sum();
        assert!(watchdog_fires >= 1, "quarantine must be attributed to the watchdog");
    }

    #[test]
    fn healthy_load_is_never_shed_under_a_sane_budget() {
        let store = small_sharded(2);
        store.set_queue_delay_budget(Some(Duration::from_secs(2)));
        for i in 0..512u32 {
            store.put(format!("ok{i}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(store.shed_ops_total(), 0, "a generous budget must not shed a light load");
    }

    // --- GroupHealthMachine property tests --------------------------------------

    mod machine_props {
        use super::*;
        use proptest::prelude::*;

        /// The events a driver can throw at the machine.
        #[derive(Debug, Clone, Copy)]
        enum Event {
            Quarantine(usize),
            ClaimRecovery(usize),
            Readmit(usize),
            FailRecovery(usize),
            MarkDead(usize),
            Promote,
        }

        fn event_strategy(replicas: usize) -> impl Strategy<Value = Event> {
            let r = 0..replicas;
            prop_oneof![
                r.clone().prop_map(Event::Quarantine),
                r.clone().prop_map(Event::ClaimRecovery),
                r.clone().prop_map(Event::Readmit),
                r.clone().prop_map(Event::FailRecovery),
                r.prop_map(Event::MarkDead),
                Just(Event::Promote),
            ]
        }

        /// Valid edges of the health machine (module docs).
        fn valid_edge(from: ShardHealth, to: ShardHealth) -> bool {
            use ShardHealth::*;
            matches!(
                (from, to),
                (Healthy, Quarantined)
                    | (Quarantined, Recovering)
                    | (Dead, Recovering)
                    | (Recovering, Healthy)
                    | (Recovering, Dead)
                    | (Healthy, Dead)
                    | (Quarantined, Dead)
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary interleavings of fault/recover/promote events
            /// never produce an invalid transition, the primary index is
            /// always in range, and promotion only lands on a healthy
            /// replica — i.e. there is exactly one primary per group and
            /// it is never a replica known-bad at promotion time.
            #[test]
            fn machine_never_reaches_invalid_state(
                replicas in 1usize..=4,
                events in proptest::collection::vec(event_strategy(4), 0..64),
            ) {
                let m = GroupHealthMachine::new(replicas);
                let mut states: Vec<ShardHealth> =
                    (0..replicas).map(|r| m.health(r)).collect();
                for ev in events {
                    let before_primary = m.primary();
                    prop_assert!(before_primary < replicas);
                    match ev {
                        Event::Quarantine(r) if r < replicas => { m.quarantine(r); }
                        Event::ClaimRecovery(r) if r < replicas => { m.claim_recovery(r); }
                        Event::Readmit(r) if r < replicas => { m.readmit(r); }
                        Event::FailRecovery(r) if r < replicas => { m.fail_recovery(r); }
                        Event::MarkDead(r) if r < replicas => {
                            let was = m.health(r);
                            let prev = m.mark_dead(r);
                            // `Recovering` belongs to its recovery
                            // claimant: external death reports must not
                            // touch it (only `fail_recovery` may).
                            if was == ShardHealth::Recovering {
                                prop_assert_eq!(prev, None);
                                prop_assert_eq!(m.health(r), ShardHealth::Recovering);
                            }
                        }
                        Event::Promote => {
                            if let Some(np) = m.promote() {
                                // Promotion must land on a replica that
                                // was healthy when promoted.
                                prop_assert_eq!(m.role_of(np), ReplicaRole::Primary);
                            }
                        }
                        _ => {}
                    }
                    // Every observed state change walks a valid edge.
                    for (r, state) in states.iter_mut().enumerate() {
                        let now = m.health(r);
                        if now != *state {
                            prop_assert!(
                                valid_edge(*state, now),
                                "invalid transition {:?} -> {:?} on replica {}",
                                *state, now, r
                            );
                            *state = now;
                        }
                    }
                    // Exactly one primary: the index is single-valued and
                    // in range at all times.
                    prop_assert!(m.primary() < replicas);
                }
            }

            /// Recovery claims are single-flight: from any state, at most
            /// one of N concurrent claims wins.
            #[test]
            fn recovery_claim_is_single_flight(
                start in (0u8..4).prop_map(ShardHealth::from_u8),
                claimants in 2usize..=8,
            ) {
                let m = Arc::new(GroupHealthMachine::new(1));
                m.force(0, start);
                let wins: usize = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..claimants)
                        .map(|_| {
                            let m = Arc::clone(&m);
                            s.spawn(move || m.claim_recovery(0).is_some() as usize)
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum()
                });
                let claimable =
                    matches!(start, ShardHealth::Quarantined | ShardHealth::Dead);
                prop_assert_eq!(wins, usize::from(claimable));
            }
        }
    }
}
