//! Per-layer telemetry structs, the per-shard bundle, and the
//! process-wide [`TelemetryHub`] with snapshot/delta semantics.
//!
//! Layout mirrors the store's layers: `cache` / `merkle` / `mem` /
//! `store` per shard, plus process-wide `net` and `chaos` sections.
//! Recorders live in **untrusted memory** by design — telemetry is an
//! observability aid, not security metadata, so nothing here is
//! MAC-protected or charged to the simulated enclave (see DESIGN.md
//! §12).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::metrics::{Counter, Gauge, HistSnapshot, Histogram};
use crate::recorder::FlightRecorder;
use crate::span::{TraceHub, TraceSummary, DEFAULT_TRACE_CAPACITY};

/// Version of the snapshot layout carried on the wire.
///
/// v2 added the replication fields (`failovers`, `resyncs`,
/// `resync_bytes`, `replica_role`, `replica_lag`) to the store section
/// and grew the chaos site table to 8. v3 grew the net opcode table to
/// 10 (`hello`) and added the reactor fields (`reactor_conns`,
/// `tick_batch_size`, `reactor_ops`, `reactor_submissions`). v4 added
/// the tiering fields (`hot_entries`, `cold_entries`, `migrations`,
/// `compactions`, `checkpoints`, `cold_read_latency`) to the store
/// section and grew the chaos site table to 11 (durability log sites).
/// v5 added the overload fields (`admission_shed`,
/// `watchdog_quarantines`, `queue_delay_ns` to the store section;
/// `conns_disconnected_slow`, `ops_shed_deadline`, `ops_shed_overload`
/// to the net section) and grew the chaos site table to 12
/// (`shard_stall`). v6 grew the net opcode table to 11 (`trace`) and
/// added the `traces` section (span counts plus per-stage latency
/// histograms). v7 added the resharding fields (`routing_epoch`,
/// `migration_state`, `reshards_started`, `reshards_committed`,
/// `reshards_aborted` to the store section), grew the chaos site table
/// to 15 (`migration_stream_tamper`, `target_kill`,
/// `stale_epoch_replay`) and the net opcode table to 12 (`reshard`).
/// v8 removed the slow-op section (its ops and drop count; slow store
/// runs are tail spans now) and added `tail_spans` to the `traces`
/// section. v9 removed the store section's health-state, replica-role
/// and replica-lag gauges (the `serving` section it added reads that
/// state directly) and dropped `stats` and `health` from the net
/// opcode table (10 entries).
pub const SNAPSHOT_VERSION: u32 = 9;

/// Number of integrity-violation classes (mirrors the store's
/// `Violation` variants / wire error codes 1..=7).
pub const VIOLATION_CLASSES: usize = 7;

/// Stable names for the violation classes, indexable by class.
pub const VIOLATION_NAMES: [&str; VIOLATION_CLASSES] = [
    "merkle_mismatch",
    "entry_mac_mismatch",
    "counter_reuse",
    "unauthorized_deletion",
    "allocator_metadata",
    "corrupt_pointer",
    "data_destroyed",
];

/// Number of chaos fault-injection sites (mirrors
/// `aria_chaos::FaultSite` order).
pub const FAULT_SITES: usize = 15;

/// Stable names for the fault sites, indexable by `FaultSite as usize`.
pub const FAULT_SITE_NAMES: [&str; FAULT_SITES] = [
    "entry_flip",
    "torn_write",
    "stale_node_replay",
    "node_flip",
    "index_pointer_swap",
    "free_list_tamper",
    "primary_kill",
    "replica_divergence",
    "log_bit_flip",
    "torn_append",
    "stale_checkpoint_rollback",
    "shard_stall",
    "migration_stream_tamper",
    "target_kill",
    "stale_epoch_replay",
];

/// Number of tracked wire opcodes.
pub const NET_OPS: usize = 10;

/// Stable names for the tracked wire opcodes.
pub const NET_OP_NAMES: [&str; NET_OPS] = [
    "ping",
    "get",
    "put",
    "delete",
    "multi_get",
    "put_batch",
    "metrics",
    "hello",
    "trace",
    "reshard",
];

/// Per-shard health-event ring capacity.
pub const HEALTH_EVENT_CAP: usize = 64;

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_millis() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// cache

/// Secure-cache recorders.
#[derive(Default)]
pub struct CacheTelemetry {
    /// Cache hits.
    pub hits: Counter,
    /// Cache misses.
    pub misses: Counter,
    /// Node admissions into the cache.
    pub inserts: Counter,
    /// Node evictions out of the cache.
    pub evictions: Counter,
    /// Evictions of dirty nodes (re-MAC + swap out).
    pub writebacks: Counter,
    /// Evictions of clean nodes (discarded without write-back).
    pub clean_discards: Counter,
    /// Bytes swapped into the cache from untrusted memory.
    pub swap_bytes_in: Counter,
    /// Bytes swapped out of the cache to untrusted memory.
    pub swap_bytes_out: Counter,
    /// Levels walked per miss before verification stopped.
    pub verify_depth: Histogram,
    /// Hit-ratio fallback engaged (swapping stopped).
    pub swap_stops: Counter,
    /// Swapping (re-)enabled.
    pub swap_starts: Counter,
}

/// Plain-data copy of [`CacheTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Admissions.
    pub inserts: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    /// Clean evictions.
    pub clean_discards: u64,
    /// Bytes swapped in.
    pub swap_bytes_in: u64,
    /// Bytes swapped out.
    pub swap_bytes_out: u64,
    /// Verify-stop-depth histogram.
    pub verify_depth: HistSnapshot,
    /// Swapping stopped events.
    pub swap_stops: u64,
    /// Swapping started events.
    pub swap_starts: u64,
}

impl CacheTelemetry {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            writebacks: self.writebacks.get(),
            clean_discards: self.clean_discards.get(),
            swap_bytes_in: self.swap_bytes_in.get(),
            swap_bytes_out: self.swap_bytes_out.get(),
            verify_depth: self.verify_depth.snapshot(),
            swap_stops: self.swap_stops.get(),
            swap_starts: self.swap_starts.get(),
        }
    }
}

impl CacheSnapshot {
    /// Hit ratio over all accesses (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Fold `other` in (all counters add).
    pub fn merge(&mut self, other: &CacheSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.clean_discards += other.clean_discards;
        self.swap_bytes_in += other.swap_bytes_in;
        self.swap_bytes_out += other.swap_bytes_out;
        self.verify_depth.merge(&other.verify_depth);
        self.swap_stops += other.swap_stops;
        self.swap_starts += other.swap_starts;
    }

    /// Activity since `earlier` (saturating).
    pub fn delta(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            clean_discards: self.clean_discards.saturating_sub(earlier.clean_discards),
            swap_bytes_in: self.swap_bytes_in.saturating_sub(earlier.swap_bytes_in),
            swap_bytes_out: self.swap_bytes_out.saturating_sub(earlier.swap_bytes_out),
            verify_depth: self.verify_depth.delta(&earlier.verify_depth),
            swap_stops: self.swap_stops.saturating_sub(earlier.swap_stops),
            swap_starts: self.swap_starts.saturating_sub(earlier.swap_starts),
        }
    }
}

// ---------------------------------------------------------------------------
// merkle

/// Merkle-tree recorders.
#[derive(Default)]
pub struct MerkleTelemetry {
    /// MAC/hash computations performed.
    pub hash_ops: Counter,
    /// Nodes that passed verification.
    pub verified_nodes: Counter,
}

/// Plain-data copy of [`MerkleTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MerkleSnapshot {
    /// MAC/hash computations.
    pub hash_ops: u64,
    /// Verified nodes.
    pub verified_nodes: u64,
}

impl MerkleTelemetry {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> MerkleSnapshot {
        MerkleSnapshot { hash_ops: self.hash_ops.get(), verified_nodes: self.verified_nodes.get() }
    }
}

impl MerkleSnapshot {
    /// Fold `other` in.
    pub fn merge(&mut self, other: &MerkleSnapshot) {
        self.hash_ops += other.hash_ops;
        self.verified_nodes += other.verified_nodes;
    }

    /// Activity since `earlier`.
    pub fn delta(&self, earlier: &MerkleSnapshot) -> MerkleSnapshot {
        MerkleSnapshot {
            hash_ops: self.hash_ops.saturating_sub(earlier.hash_ops),
            verified_nodes: self.verified_nodes.saturating_sub(earlier.verified_nodes),
        }
    }
}

// ---------------------------------------------------------------------------
// mem

/// Untrusted-heap recorders.
#[derive(Default)]
pub struct MemTelemetry {
    /// Block allocations.
    pub allocs: Counter,
    /// Block frees.
    pub frees: Counter,
    /// Bytes allocated.
    pub alloc_bytes: Counter,
    /// Bytes freed.
    pub freed_bytes: Counter,
    /// Live bytes (gauge).
    pub live_bytes: Gauge,
    /// Free-buffer (free-list) occupancy in bytes (gauge).
    pub free_buffer_bytes: Gauge,
}

/// Plain-data copy of [`MemTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    /// Block allocations.
    pub allocs: u64,
    /// Block frees.
    pub frees: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Live bytes.
    pub live_bytes: u64,
    /// Free-buffer occupancy in bytes.
    pub free_buffer_bytes: u64,
}

impl MemTelemetry {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            allocs: self.allocs.get(),
            frees: self.frees.get(),
            alloc_bytes: self.alloc_bytes.get(),
            freed_bytes: self.freed_bytes.get(),
            live_bytes: self.live_bytes.get(),
            free_buffer_bytes: self.free_buffer_bytes.get(),
        }
    }
}

impl MemSnapshot {
    /// Fold `other` in (gauges add: shard occupancies are disjoint).
    pub fn merge(&mut self, other: &MemSnapshot) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.alloc_bytes += other.alloc_bytes;
        self.freed_bytes += other.freed_bytes;
        self.live_bytes += other.live_bytes;
        self.free_buffer_bytes += other.free_buffer_bytes;
    }

    /// Activity since `earlier`; gauges keep the current reading.
    pub fn delta(&self, earlier: &MemSnapshot) -> MemSnapshot {
        MemSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            freed_bytes: self.freed_bytes.saturating_sub(earlier.freed_bytes),
            live_bytes: self.live_bytes,
            free_buffer_bytes: self.free_buffer_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// store

/// One health-state transition with a wall-clock timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// Per-shard monotonic sequence number.
    pub seq: u64,
    /// Milliseconds since the Unix epoch.
    pub unix_millis: u64,
    /// State left (0 healthy, 1 quarantined, 2 recovering, 3 dead).
    pub from: u8,
    /// State entered.
    pub to: u8,
}

/// Display name for a health-state byte.
pub fn health_name(state: u8) -> &'static str {
    match state {
        0 => "healthy",
        1 => "quarantined",
        2 => "recovering",
        3 => "dead",
        _ => "unknown",
    }
}

/// Store-level (per-shard) recorders.
pub struct StoreTelemetry {
    /// Latency per amortized get, nanoseconds.
    pub get_latency: Histogram,
    /// Latency per amortized put, nanoseconds.
    pub put_latency: Histogram,
    /// Latency per delete, nanoseconds.
    pub delete_latency: Histogram,
    /// Ops per drained batch.
    pub batch_size: Histogram,
    /// Index cells (bucket heads / chain pointers) probed.
    pub index_probes: Counter,
    /// Live keys in the shard (gauge, refreshed per batch).
    pub keys_live: Gauge,
    /// Live encryption counters (gauge).
    pub counter_live: Gauge,
    /// Counter-area capacity (gauge).
    pub counter_capacity: Gauge,
    /// Integrity violations by class (see [`VIOLATION_NAMES`]).
    pub violations: [Counter; VIOLATION_CLASSES],
    /// Completed primary promotions that landed on this replica slot.
    pub failovers: Counter,
    /// Completed anti-entropy re-sync re-admissions of this slot.
    pub resyncs: Counter,
    /// Bytes streamed per completed re-sync.
    pub resync_bytes: Histogram,
    /// Entries resident in the hot (DRAM) tier (gauge; equals
    /// `keys_live` on untiered stores).
    pub hot_entries: Gauge,
    /// Entries resident only in the cold segment log (gauge; 0 on
    /// untiered stores).
    pub cold_entries: Gauge,
    /// Hot entries migrated to the cold tier.
    pub migrations: Counter,
    /// Log segments compacted.
    pub compactions: Counter,
    /// Verified checkpoints sealed to disk.
    pub checkpoints: Counter,
    /// Latency per GET answered from the cold tier: the verified log
    /// read, plus the promotion into the hot region when it is the
    /// key's second cold read. Nanoseconds; its count is the number of
    /// cold GETs.
    pub cold_read_latency: Histogram,
    /// Ops refused by admission control (queue-delay budget exceeded).
    pub admission_shed: Counter,
    /// Quarantines triggered by the stuck-shard watchdog (accepting
    /// work but retiring no batches within the watchdog window).
    pub watchdog_quarantines: Counter,
    /// Estimated queue delay for this shard's acting primary (gauge,
    /// nanoseconds; in-flight depth × EWMA per-op service time).
    pub queue_delay_ns: Gauge,
    /// Current routing epoch (gauge; identical on every slot of a
    /// store, bumps once per committed reshard migration).
    pub routing_epoch: Gauge,
    /// Reshard involvement of this slot's group (gauge; 0 = none,
    /// 1 = migration source, 2 = migration target).
    pub migration_state: Gauge,
    /// Reshard migrations started (counted on the source primary).
    pub reshards_started: Counter,
    /// Reshard migrations committed (epoch flipped).
    pub reshards_committed: Counter,
    /// Reshard migrations aborted (routing left untouched).
    pub reshards_aborted: Counter,
    health_seq: AtomicU64,
    health_events: Mutex<VecDeque<HealthTransition>>,
}

impl Default for StoreTelemetry {
    fn default() -> Self {
        StoreTelemetry {
            get_latency: Histogram::new(),
            put_latency: Histogram::new(),
            delete_latency: Histogram::new(),
            batch_size: Histogram::new(),
            index_probes: Counter::new(),
            keys_live: Gauge::new(),
            counter_live: Gauge::new(),
            counter_capacity: Gauge::new(),
            violations: Default::default(),
            failovers: Counter::new(),
            resyncs: Counter::new(),
            resync_bytes: Histogram::new(),
            hot_entries: Gauge::new(),
            cold_entries: Gauge::new(),
            migrations: Counter::new(),
            compactions: Counter::new(),
            checkpoints: Counter::new(),
            cold_read_latency: Histogram::new(),
            admission_shed: Counter::new(),
            watchdog_quarantines: Counter::new(),
            queue_delay_ns: Gauge::new(),
            routing_epoch: Gauge::new(),
            migration_state: Gauge::new(),
            reshards_started: Counter::new(),
            reshards_committed: Counter::new(),
            reshards_aborted: Counter::new(),
            health_seq: AtomicU64::new(0),
            health_events: Mutex::new(VecDeque::new()),
        }
    }
}

impl StoreTelemetry {
    /// Record a health-state transition (slow path; takes a mutex).
    pub fn record_health_transition(&self, from: u8, to: u8) {
        if !crate::enabled() {
            return;
        }
        let ev = HealthTransition {
            seq: self.health_seq.fetch_add(1, Ordering::Relaxed),
            unix_millis: unix_millis(),
            from,
            to,
        };
        let mut ring = match self.health_events.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if ring.len() == HEALTH_EVENT_CAP {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Bump the violation counter for wire error class `class`
    /// (1..=7); out-of-range classes are ignored.
    pub fn record_violation(&self, class: u16) {
        if (1..=VIOLATION_CLASSES as u16).contains(&class) {
            self.violations[(class - 1) as usize].inc();
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> StoreSnapshot {
        let health_events = {
            let ring = match self.health_events.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            ring.iter().cloned().collect()
        };
        StoreSnapshot {
            get_latency: self.get_latency.snapshot(),
            put_latency: self.put_latency.snapshot(),
            delete_latency: self.delete_latency.snapshot(),
            batch_size: self.batch_size.snapshot(),
            index_probes: self.index_probes.get(),
            keys_live: self.keys_live.get(),
            counter_live: self.counter_live.get(),
            counter_capacity: self.counter_capacity.get(),
            violations: self.violations.iter().map(|c| c.get()).collect(),
            failovers: self.failovers.get(),
            resyncs: self.resyncs.get(),
            resync_bytes: self.resync_bytes.snapshot(),
            hot_entries: self.hot_entries.get(),
            cold_entries: self.cold_entries.get(),
            migrations: self.migrations.get(),
            compactions: self.compactions.get(),
            checkpoints: self.checkpoints.get(),
            cold_read_latency: self.cold_read_latency.snapshot(),
            admission_shed: self.admission_shed.get(),
            watchdog_quarantines: self.watchdog_quarantines.get(),
            queue_delay_ns: self.queue_delay_ns.get(),
            routing_epoch: self.routing_epoch.get(),
            migration_state: self.migration_state.get(),
            reshards_started: self.reshards_started.get(),
            reshards_committed: self.reshards_committed.get(),
            reshards_aborted: self.reshards_aborted.get(),
            health_events,
        }
    }
}

/// Plain-data copy of [`StoreTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Get latency histogram (nanoseconds).
    pub get_latency: HistSnapshot,
    /// Put latency histogram (nanoseconds).
    pub put_latency: HistSnapshot,
    /// Delete latency histogram (nanoseconds).
    pub delete_latency: HistSnapshot,
    /// Batch-size histogram (ops per drain).
    pub batch_size: HistSnapshot,
    /// Index probes.
    pub index_probes: u64,
    /// Live keys.
    pub keys_live: u64,
    /// Live encryption counters.
    pub counter_live: u64,
    /// Counter-area capacity.
    pub counter_capacity: u64,
    /// Violations by class (`VIOLATION_CLASSES` entries).
    pub violations: Vec<u64>,
    /// Completed failovers onto this slot.
    pub failovers: u64,
    /// Completed re-sync re-admissions of this slot.
    pub resyncs: u64,
    /// Bytes streamed per completed re-sync.
    pub resync_bytes: HistSnapshot,
    /// Entries resident in the hot tier.
    pub hot_entries: u64,
    /// Entries resident only in the cold log.
    pub cold_entries: u64,
    /// Hot entries migrated cold.
    pub migrations: u64,
    /// Log segments compacted.
    pub compactions: u64,
    /// Verified checkpoints sealed.
    pub checkpoints: u64,
    /// Cold-read latency histogram (nanoseconds).
    pub cold_read_latency: HistSnapshot,
    /// Ops refused by admission control.
    pub admission_shed: u64,
    /// Watchdog-triggered quarantines.
    pub watchdog_quarantines: u64,
    /// Estimated queue delay, nanoseconds.
    pub queue_delay_ns: u64,
    /// Current routing epoch.
    pub routing_epoch: u64,
    /// Reshard involvement (0 = none, 1 = source, 2 = target).
    pub migration_state: u64,
    /// Reshard migrations started.
    pub reshards_started: u64,
    /// Reshard migrations committed.
    pub reshards_committed: u64,
    /// Reshard migrations aborted.
    pub reshards_aborted: u64,
    /// Recent health transitions, oldest first.
    pub health_events: Vec<HealthTransition>,
}

impl Default for StoreSnapshot {
    fn default() -> Self {
        StoreSnapshot {
            get_latency: HistSnapshot::empty(),
            put_latency: HistSnapshot::empty(),
            delete_latency: HistSnapshot::empty(),
            batch_size: HistSnapshot::empty(),
            index_probes: 0,
            keys_live: 0,
            counter_live: 0,
            counter_capacity: 0,
            violations: vec![0; VIOLATION_CLASSES],
            failovers: 0,
            resyncs: 0,
            resync_bytes: HistSnapshot::empty(),
            hot_entries: 0,
            cold_entries: 0,
            migrations: 0,
            compactions: 0,
            checkpoints: 0,
            cold_read_latency: HistSnapshot::empty(),
            admission_shed: 0,
            watchdog_quarantines: 0,
            queue_delay_ns: 0,
            routing_epoch: 0,
            migration_state: 0,
            reshards_started: 0,
            reshards_committed: 0,
            reshards_aborted: 0,
            health_events: Vec::new(),
        }
    }
}

impl StoreSnapshot {
    /// Fold `other` in (latency histograms merge; gauges add — per-shard
    /// occupancies are disjoint; health events concatenate).
    pub fn merge(&mut self, other: &StoreSnapshot) {
        self.get_latency.merge(&other.get_latency);
        self.put_latency.merge(&other.put_latency);
        self.delete_latency.merge(&other.delete_latency);
        self.batch_size.merge(&other.batch_size);
        self.index_probes += other.index_probes;
        self.keys_live += other.keys_live;
        self.counter_live += other.counter_live;
        self.counter_capacity += other.counter_capacity;
        for (a, b) in self.violations.iter_mut().zip(&other.violations) {
            *a += *b;
        }
        self.failovers += other.failovers;
        self.resyncs += other.resyncs;
        self.resync_bytes.merge(&other.resync_bytes);
        self.hot_entries += other.hot_entries;
        self.cold_entries += other.cold_entries;
        self.migrations += other.migrations;
        self.compactions += other.compactions;
        self.checkpoints += other.checkpoints;
        self.cold_read_latency.merge(&other.cold_read_latency);
        self.admission_shed += other.admission_shed;
        self.watchdog_quarantines += other.watchdog_quarantines;
        // Queue delay aggregates pessimistically: the worst shard's
        // backlog is what callers of the hot key will actually see.
        self.queue_delay_ns = self.queue_delay_ns.max(other.queue_delay_ns);
        // One store publishes the same epoch on every slot; merging by
        // max keeps that reading (and prefers the newest if a snapshot
        // races a flip).
        self.routing_epoch = self.routing_epoch.max(other.routing_epoch);
        self.migration_state = self.migration_state.max(other.migration_state);
        self.reshards_started += other.reshards_started;
        self.reshards_committed += other.reshards_committed;
        self.reshards_aborted += other.reshards_aborted;
        self.health_events.extend(other.health_events.iter().cloned());
    }

    /// Activity since `earlier`; gauges keep the current reading and
    /// health events are filtered to those newer than `earlier`'s.
    pub fn delta(&self, earlier: &StoreSnapshot) -> StoreSnapshot {
        let horizon = earlier.health_events.last().map(|e| e.seq);
        StoreSnapshot {
            get_latency: self.get_latency.delta(&earlier.get_latency),
            put_latency: self.put_latency.delta(&earlier.put_latency),
            delete_latency: self.delete_latency.delta(&earlier.delete_latency),
            batch_size: self.batch_size.delta(&earlier.batch_size),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
            keys_live: self.keys_live,
            counter_live: self.counter_live,
            counter_capacity: self.counter_capacity,
            violations: self
                .violations
                .iter()
                .zip(&earlier.violations)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            resyncs: self.resyncs.saturating_sub(earlier.resyncs),
            resync_bytes: self.resync_bytes.delta(&earlier.resync_bytes),
            hot_entries: self.hot_entries,
            cold_entries: self.cold_entries,
            migrations: self.migrations.saturating_sub(earlier.migrations),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            cold_read_latency: self.cold_read_latency.delta(&earlier.cold_read_latency),
            admission_shed: self.admission_shed.saturating_sub(earlier.admission_shed),
            watchdog_quarantines: self
                .watchdog_quarantines
                .saturating_sub(earlier.watchdog_quarantines),
            queue_delay_ns: self.queue_delay_ns,
            routing_epoch: self.routing_epoch,
            migration_state: self.migration_state,
            reshards_started: self.reshards_started.saturating_sub(earlier.reshards_started),
            reshards_committed: self.reshards_committed.saturating_sub(earlier.reshards_committed),
            reshards_aborted: self.reshards_aborted.saturating_sub(earlier.reshards_aborted),
            health_events: self
                .health_events
                .iter()
                .filter(|e| horizon.map_or(true, |h| e.seq > h))
                .cloned()
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// net

/// Network service recorders (process-wide).
pub struct NetTelemetry {
    /// Per-opcode request latency, nanoseconds (see [`NET_OP_NAMES`]).
    pub op_latency: [Histogram; NET_OPS],
    /// Requests decoded but not yet answered.
    pub inflight: Gauge,
    /// Frame bytes read off sockets.
    pub frame_bytes_in: Counter,
    /// Frame bytes written to sockets.
    pub frame_bytes_out: Counter,
    /// Connections rejected at the accept gate.
    pub rejected_connections: Counter,
    /// Connections dropped for idling past the read timeout.
    pub timed_out_connections: Counter,
    /// Connections currently pinned to reactor threads (gauge).
    pub reactor_conns: Gauge,
    /// Decoded store ops handed off per reactor tick (only ticks that
    /// submitted at least one op are recorded).
    pub tick_batch_size: Histogram,
    /// Store ops served through coalesced reactor tick batches.
    pub reactor_ops: Counter,
    /// Store submissions made by reactors (one per shard with work per
    /// tick). `reactor_ops / reactor_submissions` is the coalesce
    /// ratio: average ops amortized over one store hand-off.
    pub reactor_submissions: Counter,
    /// Connections dropped because the peer read replies too slowly
    /// (write-deadline expiry while flushing).
    pub conns_disconnected_slow: Counter,
    /// Data ops shed because the client's deadline had already expired
    /// when the server looked at them (decode or sojourn check).
    pub ops_shed_deadline: Counter,
    /// Data ops shed by net-layer overload control (CoDel-style
    /// sojourn shedding at the reactor tick). Store-side admission
    /// refusals are counted separately in the store section.
    pub ops_shed_overload: Counter,
}

impl Default for NetTelemetry {
    fn default() -> Self {
        NetTelemetry {
            op_latency: std::array::from_fn(|_| Histogram::new()),
            inflight: Gauge::new(),
            frame_bytes_in: Counter::new(),
            frame_bytes_out: Counter::new(),
            rejected_connections: Counter::new(),
            timed_out_connections: Counter::new(),
            reactor_conns: Gauge::new(),
            tick_batch_size: Histogram::new(),
            reactor_ops: Counter::new(),
            reactor_submissions: Counter::new(),
            conns_disconnected_slow: Counter::new(),
            ops_shed_deadline: Counter::new(),
            ops_shed_overload: Counter::new(),
        }
    }
}

/// Plain-data copy of [`NetTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Per-opcode latency histograms (`NET_OPS` entries).
    pub op_latency: Vec<HistSnapshot>,
    /// In-flight request depth.
    pub inflight: u64,
    /// Frame bytes in.
    pub frame_bytes_in: u64,
    /// Frame bytes out.
    pub frame_bytes_out: u64,
    /// Rejected connections.
    pub rejected_connections: u64,
    /// Timed-out connections.
    pub timed_out_connections: u64,
    /// Connections currently pinned to reactors.
    pub reactor_conns: u64,
    /// Ops handed off per reactor tick.
    pub tick_batch_size: HistSnapshot,
    /// Ops served through reactor tick batches.
    pub reactor_ops: u64,
    /// Store submissions made by reactors.
    pub reactor_submissions: u64,
    /// Connections dropped for reading replies too slowly.
    pub conns_disconnected_slow: u64,
    /// Data ops shed at the net layer for expired deadlines.
    pub ops_shed_deadline: u64,
    /// Data ops shed by net-layer sojourn shedding.
    pub ops_shed_overload: u64,
}

impl Default for NetSnapshot {
    fn default() -> Self {
        NetSnapshot {
            op_latency: vec![HistSnapshot::empty(); NET_OPS],
            inflight: 0,
            frame_bytes_in: 0,
            frame_bytes_out: 0,
            rejected_connections: 0,
            timed_out_connections: 0,
            reactor_conns: 0,
            tick_batch_size: HistSnapshot::empty(),
            reactor_ops: 0,
            reactor_submissions: 0,
            conns_disconnected_slow: 0,
            ops_shed_deadline: 0,
            ops_shed_overload: 0,
        }
    }
}

impl NetTelemetry {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            op_latency: self.op_latency.iter().map(|h| h.snapshot()).collect(),
            inflight: self.inflight.get(),
            frame_bytes_in: self.frame_bytes_in.get(),
            frame_bytes_out: self.frame_bytes_out.get(),
            rejected_connections: self.rejected_connections.get(),
            timed_out_connections: self.timed_out_connections.get(),
            reactor_conns: self.reactor_conns.get(),
            tick_batch_size: self.tick_batch_size.snapshot(),
            reactor_ops: self.reactor_ops.get(),
            reactor_submissions: self.reactor_submissions.get(),
            conns_disconnected_slow: self.conns_disconnected_slow.get(),
            ops_shed_deadline: self.ops_shed_deadline.get(),
            ops_shed_overload: self.ops_shed_overload.get(),
        }
    }
}

impl NetSnapshot {
    /// Average decoded ops amortized over one reactor → store
    /// submission (0 when no reactor has submitted).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.reactor_submissions == 0 {
            0.0
        } else {
            self.reactor_ops as f64 / self.reactor_submissions as f64
        }
    }

    /// Activity since `earlier`; the gauges keep their readings.
    pub fn delta(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            op_latency: self
                .op_latency
                .iter()
                .zip(&earlier.op_latency)
                .map(|(a, b)| a.delta(b))
                .collect(),
            inflight: self.inflight,
            frame_bytes_in: self.frame_bytes_in.saturating_sub(earlier.frame_bytes_in),
            frame_bytes_out: self.frame_bytes_out.saturating_sub(earlier.frame_bytes_out),
            rejected_connections: self
                .rejected_connections
                .saturating_sub(earlier.rejected_connections),
            timed_out_connections: self
                .timed_out_connections
                .saturating_sub(earlier.timed_out_connections),
            reactor_conns: self.reactor_conns,
            tick_batch_size: self.tick_batch_size.delta(&earlier.tick_batch_size),
            reactor_ops: self.reactor_ops.saturating_sub(earlier.reactor_ops),
            reactor_submissions: self
                .reactor_submissions
                .saturating_sub(earlier.reactor_submissions),
            conns_disconnected_slow: self
                .conns_disconnected_slow
                .saturating_sub(earlier.conns_disconnected_slow),
            ops_shed_deadline: self.ops_shed_deadline.saturating_sub(earlier.ops_shed_deadline),
            ops_shed_overload: self.ops_shed_overload.saturating_sub(earlier.ops_shed_overload),
        }
    }
}

// ---------------------------------------------------------------------------
// chaos

/// Chaos-engine recorders (process-wide).
#[derive(Default)]
pub struct ChaosTelemetry {
    /// Faults injected per site (see [`FAULT_SITE_NAMES`]).
    pub injected: [Counter; FAULT_SITES],
}

/// Plain-data copy of [`ChaosTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// Injected faults per site (`FAULT_SITES` entries).
    pub injected: Vec<u64>,
}

impl Default for ChaosSnapshot {
    fn default() -> Self {
        ChaosSnapshot { injected: vec![0; FAULT_SITES] }
    }
}

impl ChaosTelemetry {
    /// Bump the injected counter for `site` (ignored out of range).
    pub fn record_injection(&self, site: usize) {
        if site < FAULT_SITES {
            self.injected[site].inc();
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> ChaosSnapshot {
        ChaosSnapshot { injected: self.injected.iter().map(|c| c.get()).collect() }
    }
}

impl ChaosSnapshot {
    /// Activity since `earlier`.
    pub fn delta(&self, earlier: &ChaosSnapshot) -> ChaosSnapshot {
        ChaosSnapshot {
            injected: self
                .injected
                .iter()
                .zip(&earlier.injected)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// serving

/// One replica's serving state, read from the store's health machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaServing {
    /// Health state (0 healthy, 1 quarantined, 2 recovering, 3 dead;
    /// see [`health_name`]).
    pub state: u8,
    /// Replica role (0 primary, 1 backup).
    pub role: u8,
    /// Replication lag in keys (0 when in sync or unreplicated).
    pub lag: u64,
    /// Quarantine-triggering violations observed on the replica.
    pub violations: u64,
    /// Completed quarantine → recovery → re-admission cycles.
    pub recoveries: u64,
}

/// The serving section: what the server is doing right now. Not a
/// recorder — the server fills it when a `METRICS` request arrives,
/// from its own and the store's state, so it stays exact when the
/// `telemetry-off` feature compiles the recorders away. A snapshot
/// taken straight from a [`TelemetryHub`] leaves it empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingSnapshot {
    /// Operations served since start (batch items count singly).
    pub ops_served: u64,
    /// Connections open now.
    pub open_connections: u64,
    /// Connections accepted since start.
    pub accepted_connections: u64,
    /// Sum of every group's last primary-reported key count; counts
    /// unhealthy groups at their last-known size.
    pub len_estimate: u64,
    /// Whether any group is not healthy or any shard's estimated queue
    /// delay is over its admission budget.
    pub degraded: bool,
    /// Data ops refused by store-side admission control since start.
    pub shed_ops_total: u64,
    /// Per-replica state, group-major (`group * replicas + replica`),
    /// indexed like [`TelemetrySnapshot::shards`].
    pub replicas: Vec<ReplicaServing>,
}

// ---------------------------------------------------------------------------
// shard bundle + hub

/// One shard's telemetry: independently `Arc`-shared handles per layer
/// so each layer stores only the piece it records into.
pub struct ShardTelemetry {
    /// Secure-cache section.
    pub cache: Arc<CacheTelemetry>,
    /// Merkle section.
    pub merkle: Arc<MerkleTelemetry>,
    /// Untrusted-heap section.
    pub mem: Arc<MemTelemetry>,
    /// Store section.
    pub store: Arc<StoreTelemetry>,
}

impl Default for ShardTelemetry {
    fn default() -> Self {
        ShardTelemetry {
            cache: Arc::new(CacheTelemetry::default()),
            merkle: Arc::new(MerkleTelemetry::default()),
            mem: Arc::new(MemTelemetry::default()),
            store: Arc::new(StoreTelemetry::default()),
        }
    }
}

impl ShardTelemetry {
    /// Point-in-time copy of all four sections.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            cache: self.cache.snapshot(),
            merkle: self.merkle.snapshot(),
            mem: self.mem.snapshot(),
            store: self.store.snapshot(),
        }
    }
}

/// Plain-data copy of one shard's telemetry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardSnapshot {
    /// Secure-cache section.
    pub cache: CacheSnapshot,
    /// Merkle section.
    pub merkle: MerkleSnapshot,
    /// Untrusted-heap section.
    pub mem: MemSnapshot,
    /// Store section.
    pub store: StoreSnapshot,
}

impl ShardSnapshot {
    /// Fold `other` in.
    pub fn merge(&mut self, other: &ShardSnapshot) {
        self.cache.merge(&other.cache);
        self.merkle.merge(&other.merkle);
        self.mem.merge(&other.mem);
        self.store.merge(&other.store);
    }

    /// Activity since `earlier`.
    pub fn delta(&self, earlier: &ShardSnapshot) -> ShardSnapshot {
        ShardSnapshot {
            cache: self.cache.delta(&earlier.cache),
            merkle: self.merkle.delta(&earlier.merkle),
            mem: self.mem.delta(&earlier.mem),
            store: self.store.delta(&earlier.store),
        }
    }
}

/// Process-wide telemetry: per-shard bundles plus the net and chaos
/// sections, the span rings, and the flight recorder.
pub struct TelemetryHub {
    /// Per-shard bundles.
    pub shards: Vec<Arc<ShardTelemetry>>,
    /// Network section.
    pub net: Arc<NetTelemetry>,
    /// Chaos section.
    pub chaos: Arc<ChaosTelemetry>,
    /// Span rings: head-sampled requests and tail-retained slow runs.
    pub traces: Arc<TraceHub>,
    /// Black-box event ring + anomaly dump renderer.
    pub recorder: Arc<FlightRecorder>,
}

impl TelemetryHub {
    /// Hub over existing per-shard bundles (e.g. from a running
    /// `ShardedStore`).
    pub fn new(shards: Vec<Arc<ShardTelemetry>>) -> Self {
        let traces = Arc::new(TraceHub::new(shards.len(), DEFAULT_TRACE_CAPACITY));
        Self::with_parts(shards, traces)
    }

    /// Hub with `n` freshly created shard bundles.
    pub fn with_shards(n: usize) -> Self {
        Self::new((0..n).map(|_| Arc::new(ShardTelemetry::default())).collect())
    }

    /// Hub over existing shard bundles *and* an existing trace hub
    /// (the one the store's shards publish tail spans into).
    pub fn with_parts(shards: Vec<Arc<ShardTelemetry>>, traces: Arc<TraceHub>) -> Self {
        TelemetryHub {
            shards,
            net: Arc::new(NetTelemetry::default()),
            chaos: Arc::new(ChaosTelemetry::default()),
            traces,
            recorder: Arc::new(FlightRecorder::default()),
        }
    }

    /// Point-in-time copy of everything.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            version: SNAPSHOT_VERSION,
            unix_millis: unix_millis(),
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            net: self.net.snapshot(),
            chaos: self.chaos.snapshot(),
            traces: self.traces.summary(),
            serving: ServingSnapshot::default(),
        }
    }
}

/// Versioned, plain-data, wire-encodable copy of the whole hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_millis: u64,
    /// Per-shard sections.
    pub shards: Vec<ShardSnapshot>,
    /// Network section.
    pub net: NetSnapshot,
    /// Chaos section.
    pub chaos: ChaosSnapshot,
    /// Trace section: span volume and per-stage latency.
    pub traces: TraceSummary,
    /// Serving section: filled by the server (see [`ServingSnapshot`]).
    pub serving: ServingSnapshot,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            version: SNAPSHOT_VERSION,
            unix_millis: 0,
            shards: Vec::new(),
            net: NetSnapshot::default(),
            chaos: ChaosSnapshot::default(),
            traces: TraceSummary::default(),
            serving: ServingSnapshot::default(),
        }
    }
}

impl TelemetrySnapshot {
    /// All shard sections merged into one (for aggregate dashboards).
    pub fn aggregate(&self) -> ShardSnapshot {
        let mut agg = ShardSnapshot::default();
        for s in &self.shards {
            agg.merge(s);
        }
        agg
    }

    /// Activity since `earlier`. Shards are matched by index; shards
    /// missing from `earlier` are reported in full. The serving section
    /// is a reading, not activity: it keeps the current one.
    pub fn delta(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let empty = ShardSnapshot::default();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.delta(earlier.shards.get(i).unwrap_or(&empty)))
            .collect();
        TelemetrySnapshot {
            version: self.version,
            unix_millis: self.unix_millis,
            shards,
            net: self.net.delta(&earlier.net),
            chaos: self.chaos.delta(&earlier.chaos),
            traces: self.traces.delta(&earlier.traces),
            serving: self.serving.clone(),
        }
    }

    /// Debug-build counter-invariant checks, run on the export paths.
    /// Exact only for quiesced snapshots (exports are scraped after
    /// load in tests and CI), hence `debug_assert` rather than `Err`.
    pub fn debug_validate(&self) {
        if cfg!(not(debug_assertions)) {
            return;
        }
        let mut hists: Vec<(&str, &HistSnapshot)> = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            debug_assert!(
                s.mem.frees <= s.mem.allocs,
                "shard {i}: frees ({}) exceed allocs ({})",
                s.mem.frees,
                s.mem.allocs
            );
            debug_assert!(
                s.cache.verify_depth.count() <= s.cache.hits + s.cache.misses,
                "shard {i}: more verify walks than cache accesses"
            );
            debug_assert!(
                s.cache.writebacks + s.cache.clean_discards <= s.cache.evictions,
                "shard {i}: eviction kinds exceed evictions"
            );
            hists.push(("verify_depth", &s.cache.verify_depth));
            hists.push(("get_latency", &s.store.get_latency));
            hists.push(("put_latency", &s.store.put_latency));
            hists.push(("delete_latency", &s.store.delete_latency));
            hists.push(("batch_size", &s.store.batch_size));
        }
        for h in &self.net.op_latency {
            hists.push(("net_op_latency", h));
        }
        hists.push(("tick_batch_size", &self.net.tick_batch_size));
        for h in &self.traces.stage_nanos {
            hists.push(("trace_stage_nanos", h));
        }
        for (name, h) in hists {
            let (lo, hi) = h.sum_bounds();
            debug_assert!(
                lo <= h.sum && h.sum <= hi,
                "histogram {name}: sum {} outside bucket-implied bounds [{lo}, {hi}]",
                h.sum
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_snapshot_shapes() {
        let hub = TelemetryHub::with_shards(3);
        let s = hub.snapshot();
        assert_eq!(s.version, SNAPSHOT_VERSION);
        assert_eq!(s.shards.len(), 3);
        assert_eq!(s.net.op_latency.len(), NET_OPS);
        assert_eq!(s.chaos.injected.len(), FAULT_SITES);
        assert_eq!(s.shards[0].store.violations.len(), VIOLATION_CLASSES);
        s.debug_validate();
    }

    #[test]
    fn health_ring_caps() {
        let t = StoreTelemetry::default();
        for i in 0..(HEALTH_EVENT_CAP as u8) {
            t.record_health_transition(i % 4, (i + 1) % 4);
        }
        t.record_health_transition(0, 3);
        let s = t.snapshot();
        if crate::enabled() {
            assert_eq!(s.health_events.len(), HEALTH_EVENT_CAP);
            assert_eq!(s.health_events.last().unwrap().to, 3);
            assert!(s.health_events.windows(2).all(|w| w[0].seq < w[1].seq));
        }
    }

    #[test]
    fn aggregate_and_delta() {
        let hub = TelemetryHub::with_shards(2);
        hub.shards[0].cache.hits.add(10);
        hub.shards[1].cache.hits.add(5);
        hub.shards[1].cache.misses.add(5);
        let a = hub.snapshot();
        hub.shards[0].cache.hits.add(3);
        let b = hub.snapshot();
        if crate::enabled() {
            assert_eq!(a.aggregate().cache.hits, 15);
            let d = b.delta(&a);
            assert_eq!(d.aggregate().cache.hits, 3);
            assert_eq!(d.aggregate().cache.misses, 0);
        }
    }
}
