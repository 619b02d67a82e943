//! Online shard resharding: split, merge and migrate shard groups under
//! live traffic with zero acknowledged-write loss.
//!
//! # Routing table
//!
//! Keys hash to one of [`NUM_ROUTING_SLOTS`] fixed *routing slots*
//! (splitmix64-mixed FNV-1a, exactly the pre-reshard shard map when the
//! group count divides the slot count); each slot is *owned* by one
//! shard group. A migration moves slot ownership — never the key → slot
//! map — and commits the move in a single **routing-epoch** bump. Every
//! slot remembers the epoch of its last ownership change
//! ([`RoutingTable::moved_epoch`]), so the serving layer can refuse a
//! client whose claimed epoch predates a move with a typed
//! `WrongShard{epoch, hint}` instead of silently serving against
//! routing the client no longer holds.
//!
//! # Migration protocol (DESIGN.md §18)
//!
//! A migration is one verified transfer (`transfer.rs`, DESIGN.md §19)
//! of the moving slots from the source primary into the target. Its
//! fence freezes those slots: a write to one is refused *at execution
//! time*, under the source's slot lock, the lock the delta export
//! holds. Its commit flips slot owners, per-slot moved-epochs and the
//! global epoch at once; the source then deletes the moved keys and a
//! merge deactivates the emptied source. Until the flip the source is
//! authoritative: an abort leaves routing untouched, unfreezes the slots
//! and scrubs the target (a freshly activated one is deactivated
//! entirely — a killed or lying target leaves no trace).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::sharded::{
    fnv1a, install_store, remove_store, spawn_registered, splitmix64, with_slot, Inner, ShardHealth,
};
use crate::transfer::{digested, write_slot, SlotFilter, Transfer};
use crate::{KvStore, StoreError};

/// Fixed number of routing slots. Ownership moves in units of slots, so
/// this bounds both the maximum shard-group count and migration
/// granularity. For group counts dividing this (1, 2, 4, 8, …) the
/// initial slot map routes byte-identically to the pre-reshard
/// `hash % groups` map.
pub const NUM_ROUTING_SLOTS: usize = 64;

/// Slot-granular key → shard-group routing with a versioned epoch.
/// All reads are single atomic loads — the hot path pays two hashes
/// and two loads, no locks.
pub struct RoutingTable {
    epoch: AtomicU64,
    owners: Vec<AtomicU32>,
    moved: Vec<AtomicU64>,
    frozen: Vec<AtomicBool>,
}

impl RoutingTable {
    /// A table spreading [`NUM_ROUTING_SLOTS`] slots round-robin over
    /// the first `groups` groups, at epoch 1.
    pub fn new(groups: usize) -> RoutingTable {
        assert!(groups >= 1, "routing needs at least one group");
        assert!(groups <= NUM_ROUTING_SLOTS, "at most {NUM_ROUTING_SLOTS} groups");
        RoutingTable {
            epoch: AtomicU64::new(1),
            owners: (0..NUM_ROUTING_SLOTS).map(|i| AtomicU32::new((i % groups) as u32)).collect(),
            moved: (0..NUM_ROUTING_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            frozen: (0..NUM_ROUTING_SLOTS).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Current routing epoch (starts at 1, bumps once per committed
    /// migration).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The routing slot `key` hashes to — stable for the table's
    /// lifetime.
    pub fn slot_of(&self, key: &[u8]) -> usize {
        (splitmix64(fnv1a(key)) % NUM_ROUTING_SLOTS as u64) as usize
    }

    /// The group that owns `slot` right now.
    pub fn owner(&self, slot: usize) -> usize {
        self.owners[slot].load(Ordering::SeqCst) as usize
    }

    /// The group serving `key` right now.
    pub fn group_of(&self, key: &[u8]) -> usize {
        self.owner(self.slot_of(key))
    }

    /// Epoch at which `slot` last changed owner (0 = never moved).
    pub fn moved_epoch(&self, slot: usize) -> u64 {
        self.moved[slot].load(Ordering::SeqCst)
    }

    /// Whether `slot` is frozen by an in-flight migration delta (writes
    /// refused retryably; reads keep serving from the source).
    pub fn is_frozen(&self, slot: usize) -> bool {
        self.frozen[slot].load(Ordering::SeqCst)
    }

    /// Point-in-time copy of the slot → group map (the wire form of
    /// the table).
    pub fn owners_snapshot(&self) -> Vec<u32> {
        self.owners.iter().map(|o| o.load(Ordering::SeqCst)).collect()
    }

    /// The slots `group` currently owns, ascending.
    pub fn owned_slots(&self, group: usize) -> Vec<usize> {
        (0..NUM_ROUTING_SLOTS).filter(|&s| self.owner(s) == group).collect()
    }

    pub(crate) fn freeze(&self, slots: &[usize], on: bool) {
        for &s in slots {
            self.frozen[s].store(on, Ordering::SeqCst);
        }
    }

    /// Commit a move: retarget `slots` to `target`, stamp their
    /// moved-epoch, then bump the global epoch — in that order, so a
    /// thread that observes the new epoch also observes the new owners.
    pub(crate) fn commit_move(&self, slots: &[usize], target: usize) -> u64 {
        let next = self.epoch.load(Ordering::SeqCst) + 1;
        for &s in slots {
            self.owners[s].store(target as u32, Ordering::SeqCst);
            self.moved[s].store(next, Ordering::SeqCst);
        }
        self.epoch.store(next, Ordering::SeqCst);
        next
    }
}

impl std::fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingTable")
            .field("epoch", &self.epoch())
            .field("owners", &self.owners_snapshot())
            .finish()
    }
}

/// What a migration does with the moving group's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReshardMode {
    /// Move half of the source group's slots to a currently *inactive*
    /// target group, activating it.
    Split = 1,
    /// Move *all* of the source group's slots to an active target
    /// group, deactivating the source once drained.
    Merge = 2,
}

impl ReshardMode {
    /// Wire representation.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ReshardMode::as_u8`].
    pub fn from_u8(v: u8) -> Option<ReshardMode> {
        match v {
            1 => Some(ReshardMode::Split),
            2 => Some(ReshardMode::Merge),
            _ => None,
        }
    }
}

/// Lifecycle of the (single-flight) migration driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReshardState {
    /// No migration has run yet.
    Idle = 0,
    /// A migration is in flight.
    Running = 1,
    /// The most recent migration committed its epoch flip.
    Committed = 2,
    /// The most recent migration aborted; the old epoch keeps serving.
    Aborted = 3,
}

impl ReshardState {
    /// Wire/atomic representation.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ReshardState::as_u8`]; unknown values decode as
    /// `Aborted` (fail closed).
    pub fn from_u8(v: u8) -> ReshardState {
        match v {
            0 => ReshardState::Idle,
            1 => ReshardState::Running,
            2 => ReshardState::Committed,
            _ => ReshardState::Aborted,
        }
    }
}

/// Chaos injection points inside the migration driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardFault {
    /// Flip a byte in the bulk-copy stream (must be caught by the
    /// content-root handoff check → abort, never commit).
    TamperStream,
    /// Kill the target's primary store mid-copy (must abort and leave
    /// no trace of the target). Only consulted when the migration
    /// activated the target itself (a split): a merge target is a live
    /// data-bearing group, and killing its only primary is a plain
    /// shard loss — the replication layer's problem, not a migration
    /// outcome the driver could recover from by aborting.
    KillTarget,
}

/// Point-in-time migration driver status (see
/// [`crate::sharded::ShardedStore::reshard_status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardStatus {
    /// Driver lifecycle state.
    pub state: ReshardState,
    /// Current routing epoch.
    pub epoch: u64,
    /// Migrations started since construction.
    pub started: u64,
    /// Migrations committed.
    pub committed: u64,
    /// Migrations aborted.
    pub aborted: u64,
    /// Groups currently active (owning routing slots).
    pub active_groups: usize,
    /// The error that aborted the most recent failed migration, if any.
    pub last_error: Option<StoreError>,
}

type FaultHook = dyn Fn(ReshardFault) -> bool + Send + Sync;

/// Migration driver control block, one per store.
pub(crate) struct ReshardCtl {
    state: AtomicU8,
    started: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    last_error: Mutex<Option<StoreError>>,
    fault: RwLock<Option<Arc<FaultHook>>>,
    active: Vec<AtomicBool>,
}

impl ReshardCtl {
    pub(crate) fn new(max_groups: usize, active: usize) -> ReshardCtl {
        ReshardCtl {
            state: AtomicU8::new(ReshardState::Idle.as_u8()),
            started: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            last_error: Mutex::new(None),
            fault: RwLock::new(None),
            active: (0..max_groups).map(|g| AtomicBool::new(g < active)).collect(),
        }
    }

    pub(crate) fn is_active(&self, group: usize) -> bool {
        self.active[group].load(Ordering::SeqCst)
    }

    pub(crate) fn active_groups(&self) -> usize {
        self.active.iter().filter(|a| a.load(Ordering::SeqCst)).count()
    }

    pub(crate) fn set_fault_hook<F>(&self, hook: F)
    where
        F: Fn(ReshardFault) -> bool + Send + Sync + 'static,
    {
        *self.fault.write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(hook));
    }

    fn consult_fault(&self, fault: ReshardFault) -> bool {
        let guard = self.fault.read().unwrap_or_else(|p| p.into_inner());
        guard.as_ref().is_some_and(|hook| hook(fault))
    }

    /// Claim the single migration slot; returns the state the claim was
    /// won from, `None` if a migration is already running.
    fn claim(&self) -> Option<ReshardState> {
        [ReshardState::Idle, ReshardState::Committed, ReshardState::Aborted].into_iter().find(
            |prev| {
                self.state
                    .compare_exchange(
                        prev.as_u8(),
                        ReshardState::Running.as_u8(),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
            },
        )
    }
}

/// The error `start` refuses invalid or overlapping plans with.
fn plan_error(detail: &str) -> StoreError {
    StoreError::Log { op: "reshard", detail: detail.to_string() }
}

/// Validate and launch a migration on a background driver thread (see
/// [`crate::sharded::ShardedStore::start_reshard`]).
pub(crate) fn start<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    mode: ReshardMode,
    source: usize,
    target: usize,
) -> Result<(), StoreError> {
    let ctl = &inner.reshard;
    let Some(prev) = ctl.claim() else {
        return Err(plan_error("a migration is already running"));
    };
    let release = |e: StoreError| {
        ctl.state.store(prev.as_u8(), Ordering::SeqCst);
        Err(e)
    };
    if inner.shutdown.load(Ordering::SeqCst) {
        return release(StoreError::ShardUnavailable { shard: source });
    }
    if source >= inner.groups || target >= inner.groups {
        return release(plan_error("group index out of range"));
    }
    if source == target {
        return release(plan_error("source and target must differ"));
    }
    if !ctl.is_active(source) {
        return release(plan_error("source group is not active"));
    }
    match mode {
        ReshardMode::Split => {
            if ctl.is_active(target) {
                return release(plan_error("split target must be an inactive group"));
            }
            if inner.routing.owned_slots(source).len() < 2 {
                return release(plan_error("source owns too few slots to split"));
            }
        }
        ReshardMode::Merge => {
            if !ctl.is_active(target) {
                return release(plan_error("merge target must be an active group"));
            }
        }
    }
    spawn_registered(inner, format!("aria-reshard-{source}-{target}"), move |inner| {
        run(inner, mode, source, target)
    });
    Ok(())
}

/// Free-function form of
/// [`crate::sharded::ShardedStore::reshard_status`].
pub(crate) fn status<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>) -> ReshardStatus {
    let ctl = &inner.reshard;
    ReshardStatus {
        state: ReshardState::from_u8(ctl.state.load(Ordering::SeqCst)),
        epoch: inner.routing.epoch(),
        started: ctl.started.load(Ordering::SeqCst),
        committed: ctl.committed.load(Ordering::SeqCst),
        aborted: ctl.aborted.load(Ordering::SeqCst),
        active_groups: ctl.active_groups(),
        last_error: ctl.last_error.lock().unwrap_or_else(|p| p.into_inner()).clone(),
    }
}

/// Refresh the routing-epoch gauge on every slot's telemetry.
pub(crate) fn publish_routing_gauges<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>) {
    let epoch = inner.routing.epoch();
    for tele in &inner.tele {
        tele.store.routing_epoch.set(epoch);
    }
}

/// Set the per-replica migration-state gauge for one group
/// (0 = none, 1 = migration source, 2 = migration target).
fn set_migration_gauges<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>, group: usize, v: u64) {
    for r in 0..inner.replicas {
        inner.tele[inner.slot_index(group, r)].store.migration_state.set(v);
    }
}

/// In-service replica indexes of a group.
pub(crate) fn healthy_replicas<S: KvStore + Send + 'static>(
    inner: &Inner<S>,
    group: usize,
) -> Vec<usize> {
    (0..inner.replicas)
        .filter(|&r| inner.ctls[group].machine.health(r) == ShardHealth::Healthy)
        .collect()
}

/// Delete `keys` from every in-service replica of `group`, best-effort:
/// cleanup must not turn into a second failure.
fn delete_keys<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>, group: usize, keys: &[Vec<u8>]) {
    for r in healthy_replicas(inner, group) {
        let _ = write_slot(inner, inner.slot_index(group, r), &[], keys);
    }
}

/// Delete from a group every key its primary holds on `filter`'s slots,
/// best-effort, one export chunk per hold.
fn scrub<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>, group: usize, filter: &SlotFilter) {
    let slot = inner.slot_index(group, inner.ctls[group].machine.primary());
    let mut keys = Vec::new();
    let mut cursor = Some(0);
    while let Some(c) = cursor {
        let Ok(Ok((pairs, next))) = with_slot(inner, slot, |s| digested(s, inner, filter, c))
        else {
            break;
        };
        keys.extend(pairs.into_iter().map(|((k, _), _)| k));
        cursor = next;
    }
    delete_keys(inner, group, &keys);
}

/// Take a group out of service: stop routing candidates, drop its
/// stores and clear the active flag. The reverse of activation; used
/// after a merge drains the source and to scrub a freshly activated
/// target on abort.
fn deactivate<S: KvStore + Send + 'static>(inner: &Arc<Inner<S>>, group: usize) {
    inner.reshard.active[group].store(false, Ordering::SeqCst);
    for r in 0..inner.replicas {
        inner.ctls[group].machine.force(r, ShardHealth::Dead);
    }
    for r in 0..inner.replicas {
        remove_store(inner, inner.slot_index(group, r));
    }
}

/// The migration driver body (background thread): a [`Transfer`] of the
/// moving slots from the source primary into the target, fenced by
/// freezing them. Every failure path funnels through the abort arm:
/// routing untouched, slots unfrozen, target scrubbed, `Aborted` state
/// + counters recorded.
fn run<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    mode: ReshardMode,
    source: usize,
    target: usize,
) {
    let ctl = &inner.reshard;
    ctl.started.fetch_add(1, Ordering::SeqCst);
    let sp_slot = inner.slot_index(source, inner.ctls[source].machine.primary());
    inner.tele[sp_slot].store.reshards_started.inc();
    set_migration_gauges(inner, source, 1);
    set_migration_gauges(inner, target, 2);

    let owned = inner.routing.owned_slots(source);
    let moving: Vec<usize> = match mode {
        // Every other owned slot: halves the load while keeping both
        // halves spread over the hash space.
        ReshardMode::Split => owned.iter().copied().skip(1).step_by(2).collect(),
        ReshardMode::Merge => owned.clone(),
    };
    let mut on_moving = [false; NUM_ROUTING_SLOTS];
    for &s in &moving {
        on_moving[s] = true;
    }
    // A split target is built by this migration; a merge target already
    // serves its own slots.
    let activated = !ctl.is_active(target);

    // The protocol body; any Err lands in the abort arm below.
    let verdict = (|| {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(StoreError::ShardUnavailable { shard: source });
        }
        // A merge target needs no scrub first: whatever an earlier abort
        // failed to scrub off the moving slots fails this run's root
        // check, and this run's abort scrubs it.
        if activated {
            // A previously deactivated group is rebuilt through the
            // ordinary factory, so it restarts from fresh, empty stores.
            for r in 0..inner.replicas {
                install_store(inner, inner.slot_index(target, r))?;
                inner.ctls[target].machine.force(r, ShardHealth::Healthy);
            }
            ctl.active[target].store(true, Ordering::SeqCst);
        }
        let targets = healthy_replicas(inner, target).into_iter();
        let targets: Vec<usize> = targets.map(|r| inner.slot_index(target, r)).collect();
        if targets.is_empty() {
            return Err(StoreError::ShardUnavailable { shard: target });
        }
        let mut transfer = Transfer::new(inner, sp_slot, targets).only(on_moving);
        // Chaos: a tampered copy stream; only the root check can catch
        // it, and must.
        if ctl.consult_fault(ReshardFault::TamperStream) {
            transfer.tamper();
        }
        let mut killed = false;
        loop {
            // Chaos: kill the target's primary mid-copy; the next write
            // fails and the migration aborts without the epoch moving.
            // Only a half-built split target is expendable — its scrub
            // is a deactivation and the next attempt installs fresh
            // stores. A merge target serves live data; with no backup
            // to promote, killing it would just be an unrecoverable
            // shard loss wearing a chaos hat.
            if !killed && activated && ctl.consult_fault(ReshardFault::KillTarget) {
                killed = true;
                let tp = inner.ctls[target].machine.primary();
                let _ = with_slot(inner, inner.slot_index(target, tp), |_s| {
                    panic!("injected reshard target kill")
                });
            }
            if !transfer.copy_chunk()? {
                break;
            }
        }
        // The fence: a write to a frozen slot is refused under the
        // source's slot lock, the lock the delta's export holds, so a
        // write the delta misses is never acknowledged.
        inner.routing.freeze(&moving, true);
        transfer.delta()?;
        transfer.verify()?;
        // The epoch flip, before the unfreeze. From here the source
        // refuses ops on the moved slots at execution time, so the
        // deletes below can never race a client into lost data.
        inner.routing.commit_move(&moving, target);
        Ok(transfer.into_keys())
    })();
    inner.routing.freeze(&moving, false);

    let state = match verdict {
        Ok(moved_keys) => {
            ctl.committed.fetch_add(1, Ordering::SeqCst);
            inner.tele[sp_slot].store.reshards_committed.inc();
            publish_routing_gauges(inner);
            // Source cleanup: drop the moved keys (tombstones now; the
            // cold log reclaims them through the seqno-preserving
            // compaction rewrite in `maintain`), then retire the group
            // entirely if the merge emptied it.
            if !inner.shutdown.load(Ordering::SeqCst) {
                delete_keys(inner, source, &moved_keys);
                for r in healthy_replicas(inner, source) {
                    let _ = with_slot(inner, inner.slot_index(source, r), |s| {
                        let _ = s.maintain();
                    });
                }
            }
            if mode == ReshardMode::Merge {
                deactivate(inner, source);
            }
            ReshardState::Committed
        }
        Err(e) => {
            *ctl.last_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
            ctl.aborted.fetch_add(1, Ordering::SeqCst);
            inner.tele[sp_slot].store.reshards_aborted.inc();
            // Scrub: a target activated by this migration leaves no
            // trace; a merge target loses every key on the moving slots —
            // routing never pointed at them, so nothing served from them.
            if activated {
                deactivate(inner, target);
            } else if !inner.shutdown.load(Ordering::SeqCst) {
                scrub(inner, target, &on_moving);
            }
            ReshardState::Aborted
        }
    };
    set_migration_gauges(inner, source, 0);
    set_migration_gauges(inner, target, 0);
    ctl.state.store(state.as_u8(), Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedStore;
    use crate::{AriaHash, StoreConfig};
    use aria_sim::Enclave;
    use std::time::{Duration, Instant};

    fn elastic(active: usize, max: usize) -> ShardedStore<AriaHash> {
        ShardedStore::with_elastic(active, max, 1, |_| {
            AriaHash::new(StoreConfig::for_keys(4_096), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap()
    }

    fn await_settled(store: &ShardedStore<AriaHash>) -> ReshardStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let st = store.reshard_status();
            if st.state != ReshardState::Running {
                return st;
            }
            assert!(Instant::now() < deadline, "migration never settled");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn routing_table_initial_map_matches_modulo() {
        let t = RoutingTable::new(4);
        assert_eq!(t.epoch(), 1);
        for key in [b"alpha".as_slice(), b"beta", b"k123", b""] {
            // 4 divides 64, so slot % 4 == hash % 4: byte-identical to
            // the pre-reshard shard map.
            assert_eq!(t.group_of(key), (splitmix64(fnv1a(key)) % 4) as usize);
            assert_eq!(t.moved_epoch(t.slot_of(key)), 0);
        }
    }

    #[test]
    fn routing_commit_moves_ownership_and_bumps_epoch() {
        let t = RoutingTable::new(2);
        let slots = t.owned_slots(0);
        assert_eq!(slots.len(), 32);
        let moving = &slots[..4];
        assert!(!t.is_frozen(moving[0]));
        t.freeze(moving, true);
        assert!(t.is_frozen(moving[0]));
        let epoch = t.commit_move(moving, 3);
        t.freeze(moving, false);
        assert_eq!(epoch, 2);
        assert_eq!(t.epoch(), 2);
        for &s in moving {
            assert_eq!(t.owner(s), 3);
            assert_eq!(t.moved_epoch(s), 2);
        }
        assert_eq!(t.owned_slots(0).len(), 28);
    }

    #[test]
    fn split_then_merge_round_trip_keeps_every_key() {
        let store = elastic(2, 4);
        assert_eq!(store.active_shards(), 2);
        for i in 0..200u32 {
            store.put(format!("key{i}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        store.start_reshard(ReshardMode::Split, 0, 2).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Committed, "split failed: {:?}", st.last_error);
        assert_eq!(st.epoch, 2);
        assert_eq!(st.active_groups, 3);
        assert!(!store.routing().owned_slots(2).is_empty());
        for i in 0..200u32 {
            assert_eq!(
                store.get(format!("key{i}").as_bytes()).unwrap().unwrap(),
                i.to_le_bytes(),
                "key{i} lost after split"
            );
        }
        // Writes keep landing on the new owner.
        store.put(b"post-split", b"x").unwrap();
        assert_eq!(store.get(b"post-split").unwrap().unwrap(), b"x");
        store.start_reshard(ReshardMode::Merge, 2, 0).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Committed, "merge failed: {:?}", st.last_error);
        assert_eq!(st.epoch, 3);
        assert_eq!(st.active_groups, 2);
        assert!(store.routing().owned_slots(2).is_empty());
        for i in 0..200u32 {
            assert_eq!(
                store.get(format!("key{i}").as_bytes()).unwrap().unwrap(),
                i.to_le_bytes(),
                "key{i} lost after merge"
            );
        }
        assert_eq!(store.len(), 201);
    }

    #[test]
    fn tampered_copy_stream_aborts_and_leaves_no_trace() {
        let store = elastic(2, 4);
        for i in 0..100u32 {
            store.put(format!("key{i}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        store.set_reshard_fault_hook(|f| f == ReshardFault::TamperStream);
        store.start_reshard(ReshardMode::Split, 0, 2).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Aborted);
        assert_eq!(st.last_error, Some(StoreError::ReplicaDiverged { shard: 2 }));
        // The old epoch keeps serving, the target is gone.
        assert_eq!(st.epoch, 1);
        assert_eq!(st.active_groups, 2);
        for i in 0..100u32 {
            assert_eq!(store.get(format!("key{i}").as_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn killed_target_aborts_without_epoch_movement() {
        let store = elastic(2, 4);
        for i in 0..100u32 {
            store.put(format!("key{i}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        store.set_reshard_fault_hook(|f| f == ReshardFault::KillTarget);
        store.start_reshard(ReshardMode::Split, 0, 2).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Aborted, "kill must abort");
        assert_eq!(st.epoch, 1);
        assert_eq!(st.active_groups, 2);
        for i in 0..100u32 {
            assert_eq!(store.get(format!("key{i}").as_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
        // The failed target can be reused: a clean retry succeeds.
        store.set_reshard_fault_hook(|_| false);
        store.start_reshard(ReshardMode::Split, 0, 2).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Committed, "retry failed: {:?}", st.last_error);
        assert_eq!(st.active_groups, 3);
    }

    #[test]
    fn merge_targets_are_never_kill_candidates() {
        // A merge target is a live data-bearing group with (here) no
        // backup to promote: the KillTarget site must not be consulted
        // for it — the armed hook stays untouched and the merge
        // commits, target group intact.
        let store = elastic(2, 4);
        for i in 0..100u32 {
            store.put(format!("key{i}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        store.set_reshard_fault_hook(|f| f == ReshardFault::KillTarget);
        store.start_reshard(ReshardMode::Merge, 1, 0).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Committed, "merge failed: {:?}", st.last_error);
        assert_eq!(st.epoch, 2);
        assert_eq!(st.active_groups, 1);
        for i in 0..100u32 {
            assert_eq!(store.get(format!("key{i}").as_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn invalid_plans_are_refused_synchronously() {
        let store = elastic(2, 4);
        assert!(store.start_reshard(ReshardMode::Split, 0, 0).is_err());
        assert!(store.start_reshard(ReshardMode::Split, 0, 1).is_err(), "target active");
        assert!(store.start_reshard(ReshardMode::Merge, 0, 2).is_err(), "target inactive");
        assert!(store.start_reshard(ReshardMode::Split, 2, 3).is_err(), "source inactive");
        assert!(store.start_reshard(ReshardMode::Split, 0, 9).is_err(), "out of range");
        // Refusals release the single-flight claim.
        assert_eq!(store.reshard_status().state, ReshardState::Idle);
        store.start_reshard(ReshardMode::Split, 0, 2).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Committed, "{:?}", st.last_error);
    }

    #[test]
    fn stale_claims_are_detected_after_a_move() {
        let store = elastic(2, 4);
        for i in 0..50u32 {
            store.put(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        // No moves yet: no claim is stale, and claim 0 never refuses.
        assert_eq!(store.stale_claim(b"key1", 1), None);
        assert_eq!(store.stale_claim(b"key1", 0), None);
        store.start_reshard(ReshardMode::Split, 0, 2).unwrap();
        let st = await_settled(&store);
        assert_eq!(st.state, ReshardState::Committed, "{:?}", st.last_error);
        // Some key moved to group 2; a claim of epoch 1 is now stale
        // for it, and a refreshed claim is not.
        let moved = (0..50u32)
            .map(|i| format!("key{i}").into_bytes())
            .find(|k| store.shard_of(k) == 2)
            .expect("split moved some key to group 2");
        assert_eq!(store.stale_claim(&moved, 1), Some((2, 2)));
        assert_eq!(store.stale_claim(&moved, 2), None);
        assert_eq!(store.stale_claim(&moved, 0), None);
    }
}
