//! Aria: a secure in-memory key-value store for untrusted hosts
//! (reproduction of Yang et al., ICDE 2021).
//!
//! Encrypted KV pairs and the index live in untrusted memory; per-pair
//! encryption counters are protected by a Merkle tree whose nodes are
//! cached at fine granularity inside the (simulated) enclave by the
//! Secure Cache. The crate provides:
//!
//! * [`AriaHash`] — the hash-table-indexed store (Aria-H),
//! * [`AriaTree`] — the B-tree-indexed store (Aria-T),
//! * [`AriaBPlusTree`] — the B+-tree extension the paper defers to
//!   future work (Aria-T+): chained leaves + separately encrypted
//!   routing keys,
//! * [`BaselineStore`] — the everything-in-enclave baseline,
//! * the `Aria w/o Cache` scheme via
//!   [`config::Scheme::AriaWithoutCache`] on either index,
//! * attack-injection APIs mirroring §V-C's threat analysis,
//! * memory accounting for the paper's §VI-D4 analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aria_hash;
pub mod baseline;
pub mod bplus;
pub mod btree;
pub mod config;
pub mod core;
pub mod counter;
pub mod entry;
pub mod error;
pub mod reshard;
pub mod resync;
pub mod sharded;
pub mod tiered;
mod transfer;

use std::sync::Arc;

use aria_sim::Enclave;

pub use aria_hash::AriaHash;
pub use baseline::BaselineStore;
pub use bplus::AriaBPlusTree;
pub use btree::AriaTree;
pub use config::{ConfigError, Scheme, StoreConfig, StoreConfigBuilder};
pub use counter::{CounterBackend, CounterStore};
pub use error::{RecoveryFailure, StoreError, Violation};
pub use reshard::{
    ReshardFault, ReshardMode, ReshardState, ReshardStatus, RoutingTable, NUM_ROUTING_SLOTS,
};
pub use resync::{
    content_root, content_root_from_digests, content_root_of, pair_digest_keyed, ContentRoot,
};
pub use sharded::{
    BatchOp, BatchReply, GroupHealthMachine, GroupStats, ReplicaHealthSnapshot, ReplicaRole,
    ShardHealth, ShardHealthSnapshot, ShardedStore,
};
pub use tiered::{TierStats, TieredOptions, TieredStore};

/// What a [`KvStore::recover`] pass found and repaired. All counts are
/// zero for stores whose untrusted state checked out (or that have none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Merkle leaf nodes condemned by the root-anchored audit.
    pub merkle_nodes_condemned: u64,
    /// Encryption counters reinitialized with fresh values.
    pub counters_reinitialized: u64,
    /// Sealed entries destroyed (unlinked and reclaimed) because their
    /// MAC no longer verified after the counter repair.
    pub entries_destroyed: u64,
    /// Sealed entries that re-verified intact during the sweep.
    pub entries_verified: u64,
    /// Index buckets poisoned: misses there now fail closed with
    /// [`Violation::DataDestroyed`] instead of answering "absent".
    pub buckets_poisoned: u64,
}

/// What one [`KvStore::maintain`] pass did. All counts are zero for
/// stores with no background upkeep (the default implementation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Entries migrated from the hot region to the cold tier.
    pub migrated: u64,
    /// Log segments compacted (records copied forward, file removed).
    pub segments_compacted: u64,
    /// Records compaction copied forward: the victim's live records and
    /// the frontier winners it carried for the last checkpoint.
    pub records_rewritten: u64,
    /// Whether a checkpoint was persisted during this pass, by
    /// compaction or by the periodic rule.
    pub checkpointed: bool,
}

impl MaintenanceReport {
    /// Whether the pass changed anything at all.
    pub fn did_work(&self) -> bool {
        self.migrated != 0 || self.segments_compacted != 0 || self.checkpointed
    }
}

impl RecoveryReport {
    /// Whether the pass found any damage at all.
    pub fn found_damage(&self) -> bool {
        self.merkle_nodes_condemned != 0
            || self.counters_reinitialized != 0
            || self.entries_destroyed != 0
            || self.buckets_poisoned != 0
    }

    /// Merge another report into this one (multi-tree stores).
    pub fn absorb(&mut self, other: RecoveryReport) {
        self.merkle_nodes_condemned += other.merkle_nodes_condemned;
        self.counters_reinitialized += other.counters_reinitialized;
        self.entries_destroyed += other.entries_destroyed;
        self.entries_verified += other.entries_verified;
        self.buckets_poisoned += other.buckets_poisoned;
    }
}

/// Secure Cache statistics, as reported through [`KvStore::cache_stats`]
/// by schemes that run one (aggregated across the counter area's trees).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counter lookups served from the EPC-resident cache.
    pub hits: u64,
    /// Counter lookups that had to verify untrusted nodes.
    pub misses: u64,
    /// Nodes swapped out of the cache (evictions).
    pub swaps: u64,
    /// Whether the cache is still swapping (stop-swap not yet engaged).
    pub swapping: bool,
}

impl CacheStats {
    /// Lifetime hit ratio (`0.0` when the cache was never consulted).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total counter lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Common store interface used by examples, tests and the bench harness.
pub trait KvStore {
    /// Insert or update a key.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Fetch a key's value (verified and decrypted). `Ok(None)` means the
    /// key is genuinely absent; detected attacks surface as
    /// [`StoreError::Integrity`].
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;
    /// Remove a key; returns whether it existed.
    fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError>;
    /// Live key count.
    fn len(&self) -> u64;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The enclave this store charges costs to.
    fn enclave(&self) -> &Arc<Enclave>;
    /// Secure Cache statistics, for schemes that run one. The default
    /// (`None`) is for schemes with no software-managed cache.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
    /// Fetch several keys in one request. The default issues one `get`
    /// per key; indexes that can amortize per-request work across a
    /// batch (one ECALL, shared Merkle paths) override it.
    fn multi_get(&mut self, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        keys.iter().map(|key| self.get(key)).collect()
    }
    /// Insert or update several pairs in one request. The default issues
    /// one `put` per pair; see [`KvStore::multi_get`].
    fn put_batch(&mut self, pairs: &[(&[u8], &[u8])]) -> Vec<Result<(), StoreError>> {
        pairs.iter().map(|(key, value)| self.put(key, value)).collect()
    }
    /// Audit and repair the store's untrusted state after a detected
    /// integrity violation, re-anchoring everything to enclave-resident
    /// ground truth (Merkle roots, EPC bitmaps, cached nodes).
    ///
    /// `Ok(report)` means the store is again safe to serve: every
    /// surviving datum re-verified, every condemned datum was destroyed
    /// and its index location poisoned (fail-closed). `Err` means the
    /// damage could not be contained and the store must stay offline.
    /// The default is for stores with no untrusted state to repair.
    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        Ok(RecoveryReport::default())
    }
    /// Hook this store's layers (heap, Secure Cache, Merkle trees) into a
    /// set of telemetry recorders. The default ignores the handles —
    /// stores without instrumentation simply stay dark.
    fn attach_telemetry(&mut self, tele: Arc<aria_telemetry::ShardTelemetry>) {
        let _ = tele;
    }
    /// Refresh point-in-time telemetry gauges (live keys, counter-area
    /// occupancy, heap bytes). The sharded layer calls it at the end of
    /// every batch, still under the slot lock; must stay cheap. The
    /// default is a no-op.
    fn refresh_gauges(&self) {}
    /// Stream about `max` verified `(key, value)` pairs (a store may
    /// round up to keep a bucket whole) starting at an opaque `cursor`
    /// (`0` = from the beginning). Returns the pairs and
    /// `Some(next_cursor)` while more remain, `None` once the store is
    /// exhausted. Every pair MUST come from a MAC-verified, decrypted
    /// read inside the enclave — this is the feed for anti-entropy
    /// re-sync, and an unverified export would let a tampered survivor
    /// poison its rejoining peer. Calls against an unmutated store
    /// return every pair exactly once. A mutation between calls may make
    /// a later call skip a pair or repeat one, but never fabricate one:
    /// whatever a call returns was in the store when that call ran.
    /// (A transfer's live copy relies on this; its single-hold barrier
    /// export repairs the skips.) The default refuses
    /// ([`StoreError::ExportUnsupported`]) for stores that cannot
    /// enumerate their contents.
    #[allow(unused_variables)]
    #[allow(clippy::type_complexity)]
    fn export_chunk(
        &mut self,
        cursor: u64,
        max: usize,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, Option<u64>), StoreError> {
        Err(StoreError::ExportUnsupported)
    }
    /// Run one bounded slice of background upkeep: tier migration,
    /// log compaction, checkpointing. Called periodically by the
    /// sharded layer under the shard's slot lock (so it is exclusive
    /// with regular operations): by the maintenance ticker when the
    /// slot is free, otherwise by the next batch that holds the slot,
    /// on that submitter's thread. Must do a *bounded* amount of work
    /// per call — a batch's replies wait for it.
    /// The default is a no-op for stores with nothing to maintain.
    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        Ok(MaintenanceReport::default())
    }
    /// Make every write applied so far durable (the covering fsync of a
    /// group-commit window). The sharded layer calls this once per
    /// submitted batch, under the slot lock, *before* any of the batch's
    /// replies is returned, so an acknowledgement is never issued for a
    /// write that could still be lost to a crash. The default is a no-op for stores with no
    /// durability log (their writes are memory-only by design).
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Memory-consumption breakdown (paper §VI-D4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Untrusted bytes of counters + Merkle inner nodes.
    pub merkle_untrusted: usize,
    /// Untrusted bytes reserved for sealed entries and index nodes.
    pub heap_chunks: usize,
    /// Live sealed bytes within those chunks.
    pub heap_live: usize,
    /// EPC bytes of allocator bitmaps.
    pub epc_alloc_bitmaps: usize,
    /// EPC bytes of the Secure Cache reservation.
    pub epc_cache: usize,
    /// Total EPC in use.
    pub epc_total: usize,
    /// Untrusted free-list bytes.
    pub freelist: usize,
}

impl AriaHash {
    /// Compute the memory breakdown for §VI-D4.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let heap = self.core().heap.stats();
        let merkle = self.core().counters.as_cached().map(|c| c.merkle_bytes()).unwrap_or(0);
        let cache = self
            .core()
            .counters
            .as_cached()
            .map(|c| (0..c.trees()).map(|i| c.cache(i).capacity_bytes()).sum())
            .unwrap_or(0);
        MemoryBreakdown {
            merkle_untrusted: merkle,
            heap_chunks: heap.chunk_bytes,
            heap_live: heap.live_bytes,
            epc_alloc_bitmaps: heap.epc_bitmap_bytes,
            epc_cache: cache,
            epc_total: self.enclave().epc_used(),
            freelist: heap.freelist_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_cache::CacheConfig;
    use aria_sim::CostModel;

    fn enclave() -> Arc<Enclave> {
        Arc::new(Enclave::new(CostModel::default(), 512 << 20))
    }

    fn hash_store(keys: u64) -> AriaHash {
        let mut cfg = StoreConfig::for_keys(keys);
        cfg.cache = CacheConfig::with_capacity(8 << 20);
        AriaHash::new(cfg, enclave()).unwrap()
    }

    fn tree_store(keys: u64) -> AriaTree {
        let mut cfg = StoreConfig::for_keys(keys);
        cfg.cache = CacheConfig::with_capacity(8 << 20);
        cfg.btree_order = 7;
        AriaTree::new(cfg, enclave()).unwrap()
    }

    fn k(i: u64) -> Vec<u8> {
        aria(i).to_vec()
    }

    fn aria(i: u64) -> [u8; 16] {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&i.to_be_bytes());
        key[8..].copy_from_slice(&i.wrapping_mul(0x9e37).to_le_bytes());
        key
    }

    // --- hash store ------------------------------------------------------

    #[test]
    fn hash_put_get_roundtrip() {
        let mut s = hash_store(1000);
        for i in 0..200u64 {
            s.put(&k(i), format!("value-{i}").as_bytes()).unwrap();
        }
        assert_eq!(s.len(), 200);
        for i in 0..200u64 {
            assert_eq!(s.get(&k(i)).unwrap().unwrap(), format!("value-{i}").as_bytes());
        }
        assert_eq!(s.get(&k(9999)).unwrap(), None);
    }

    #[test]
    fn hash_update_same_and_different_size() {
        let mut s = hash_store(100);
        s.put(&k(1), b"aaaa").unwrap();
        s.put(&k(1), b"bbbb").unwrap(); // same size: in place
        assert_eq!(s.get(&k(1)).unwrap().unwrap(), b"bbbb");
        s.put(&k(1), b"a-much-longer-value-that-relocates").unwrap();
        assert_eq!(
            s.get(&k(1)).unwrap().unwrap().as_slice(),
            b"a-much-longer-value-that-relocates"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hash_update_relocation_preserves_chain() {
        // Force collisions: tiny bucket count.
        let mut cfg = StoreConfig::for_keys(100);
        cfg.buckets = 2;
        cfg.cache = CacheConfig::with_capacity(4 << 20);
        let mut s = AriaHash::new(cfg, enclave()).unwrap();
        for i in 0..20u64 {
            s.put(&k(i), b"0123456789").unwrap();
        }
        // Relocate an entry in the middle of a chain.
        s.put(&k(5), b"a-significantly-longer-replacement-value").unwrap();
        for i in 0..20u64 {
            assert!(s.get(&k(i)).unwrap().is_some(), "key {i} lost");
        }
    }

    #[test]
    fn hash_delete() {
        let mut s = hash_store(100);
        for i in 0..50u64 {
            s.put(&k(i), b"v").unwrap();
        }
        assert!(s.delete(&k(25)).unwrap());
        assert!(!s.delete(&k(25)).unwrap());
        assert_eq!(s.get(&k(25)).unwrap(), None);
        assert_eq!(s.len(), 49);
        // Neighbours unaffected.
        for i in 0..50u64 {
            if i != 25 {
                assert!(s.get(&k(i)).unwrap().is_some(), "key {i}");
            }
        }
    }

    #[test]
    fn hash_delete_middle_of_chain_reseals_successor() {
        let mut cfg = StoreConfig::for_keys(100);
        cfg.buckets = 1; // everything in one chain
        cfg.cache = CacheConfig::with_capacity(4 << 20);
        let mut s = AriaHash::new(cfg, enclave()).unwrap();
        for i in 0..10u64 {
            s.put(&k(i), b"value").unwrap();
        }
        assert!(s.delete(&k(4)).unwrap());
        for i in 0..10u64 {
            if i != 4 {
                assert_eq!(s.get(&k(i)).unwrap().unwrap(), b"value", "key {i}");
            }
        }
        assert!(s.delete(&k(0)).unwrap()); // head deletion
        assert!(s.delete(&k(9)).unwrap()); // tail deletion
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn hash_empty_value_and_binary_keys() {
        let mut s = hash_store(100);
        s.put(b"\x00\x01\xff", b"").unwrap();
        assert_eq!(s.get(b"\x00\x01\xff").unwrap().unwrap(), b"");
    }

    #[test]
    fn hash_key_too_long_rejected() {
        let mut s = hash_store(10);
        let long = vec![0u8; 4096];
        assert!(matches!(s.put(&long, b"v"), Err(StoreError::KeyTooLong { .. })));
    }

    // --- attacks on the hash store ----------------------------------------

    #[test]
    fn attack_value_tamper_detected() {
        let mut s = hash_store(100);
        s.put(&k(7), b"sensitive-value").unwrap();
        assert!(s.attack_tamper_value(&k(7)));
        let err = s.get(&k(7)).unwrap_err();
        assert!(err.is_integrity_violation());
    }

    #[test]
    fn attack_replay_detected() {
        let mut s = hash_store(100);
        s.put(&k(7), b"version-1-value").unwrap();
        let snapshot = s.attack_snapshot(&k(7)).unwrap();
        s.put(&k(7), b"version-2-value").unwrap();
        assert!(s.attack_replay(&snapshot));
        let err = s.get(&k(7)).unwrap_err();
        assert!(err.is_integrity_violation(), "replay returned stale data undetected");
    }

    #[test]
    fn attack_pointer_swap_detected() {
        let mut s = hash_store(10_000);
        // Find two keys in different buckets.
        s.put(&k(1), b"value-one").unwrap();
        s.put(&k(2), b"value-two").unwrap();
        s.attack_swap_bucket_pointers(&k(1), &k(2));
        // Reading either key now reaches an entry via the wrong pointer
        // cell: its AdField-bound MAC fails.
        let r1 = s.get(&k(1));
        let r2 = s.get(&k(2));
        let detected = matches!(&r1, Err(e) if e.is_integrity_violation())
            || matches!(&r2, Err(e) if e.is_integrity_violation());
        assert!(detected, "pointer swap undetected: {r1:?} {r2:?}");
    }

    #[test]
    fn attack_unauthorized_delete_detected() {
        let mut s = hash_store(100);
        s.put(&k(3), b"to-be-hidden").unwrap();
        assert!(s.attack_unauthorized_delete(&k(3)));
        let err = s.get(&k(3)).unwrap_err();
        assert_eq!(err, StoreError::Integrity(Violation::UnauthorizedDeletion));
    }

    #[test]
    fn attack_counter_replay_detected() {
        // Replay entry bytes AND the untrusted counter leaf: the Merkle
        // chain catches the stale leaf.
        let mut s = hash_store(100);
        s.put(&k(9), b"original-longer").unwrap();
        let snapshot = s.attack_snapshot(&k(9)).unwrap();
        // Snapshot the counter leaf bytes too.
        let header = entry::parse_header(&snapshot.1).unwrap();
        let redptr = header.redptr;
        let (leaf, _) = {
            let area = s.core().counters.as_cached().unwrap();
            area.cache(0).tree().locate_counter(redptr)
        };
        let old_leaf = {
            let area = s.core().counters.as_cached().unwrap();
            area.cache(0).tree().node(leaf).to_vec()
        };
        s.put(&k(9), b"updated-longer!").unwrap();
        // Flush so the fresh counter reaches untrusted memory and the
        // cache no longer shields the leaf.
        s.core_mut().counters.as_cached_mut().unwrap().flush();
        assert!(s.attack_replay(&snapshot));
        let area = s.core_mut().counters.as_cached_mut().unwrap();
        area.cache_mut(0).tree_mut_raw().write_node(leaf, &old_leaf);
        let err = s.get(&k(9)).unwrap_err();
        assert!(err.is_integrity_violation(), "counter replay undetected");
    }

    // --- Aria w/o Cache scheme ---------------------------------------------

    #[test]
    fn without_cache_scheme_works() {
        let mut cfg = StoreConfig::for_keys(1000);
        cfg.scheme = Scheme::AriaWithoutCache;
        let mut s = AriaHash::new(cfg, enclave()).unwrap();
        for i in 0..100u64 {
            s.put(&k(i), b"wo-cache").unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(s.get(&k(i)).unwrap().unwrap(), b"wo-cache");
        }
        // Tamper detection still works (MACs in untrusted memory, counters
        // in the EPC).
        assert!(s.attack_tamper_value(&k(5)));
        assert!(s.get(&k(5)).unwrap_err().is_integrity_violation());
    }

    // --- B-tree store ---------------------------------------------------------

    #[test]
    fn tree_put_get_roundtrip() {
        let mut s = tree_store(2000);
        for i in 0..500u64 {
            s.put(&k(i), format!("tval-{i}").as_bytes()).unwrap();
        }
        assert_eq!(s.len(), 500);
        for i in 0..500u64 {
            assert_eq!(s.get(&k(i)).unwrap().unwrap(), format!("tval-{i}").as_bytes(), "key {i}");
        }
        assert_eq!(s.get(&k(9999)).unwrap(), None);
        assert!(s.height() >= 2, "tree should have split");
    }

    #[test]
    fn tree_keys_stay_ordered() {
        let mut s = tree_store(1000);
        // Insert in a scrambled order.
        for i in 0..300u64 {
            let id = (i * 7919) % 300;
            s.put(&k(id), b"v").unwrap();
        }
        let keys = s.keys_in_order().unwrap();
        assert_eq!(keys.len(), 300);
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "order violated");
        }
    }

    #[test]
    fn tree_range_scan() {
        let mut s = tree_store(2000);
        for i in 0..400u64 {
            s.put(&k(i), format!("rv-{i}").as_bytes()).unwrap();
        }
        // Inclusive-lo, exclusive-hi.
        let got = s.range(&k(100), &k(110)).unwrap();
        assert_eq!(got.len(), 10);
        for (offset, (key, value)) in got.iter().enumerate() {
            assert_eq!(key, &k(100 + offset as u64));
            assert_eq!(value, format!("rv-{}", 100 + offset).as_bytes());
        }
        // Full range and empty ranges.
        assert_eq!(s.range(&k(0), &k(400)).unwrap().len(), 400);
        assert_eq!(s.range(&k(50), &k(50)).unwrap().len(), 0);
        assert_eq!(s.range(&k(500), &k(600)).unwrap().len(), 0);
        // Boundaries that don't fall on existing keys.
        let mut hi = k(20);
        hi[15] ^= 0xff; // just past k(20) in byte order
        let got = s.range(&k(18), &hi).unwrap();
        assert!(got.len() >= 2 && got.len() <= 3);
    }

    #[test]
    fn tree_range_matches_in_order_oracle() {
        let mut s = tree_store(1000);
        for i in 0..200u64 {
            s.put(&k((i * 37) % 200), b"v").unwrap();
        }
        let all = s.keys_in_order().unwrap();
        let ranged: Vec<Vec<u8>> =
            s.range(&k(0), &k(200)).unwrap().into_iter().map(|(key, _)| key).collect();
        assert_eq!(all, ranged);
    }

    #[test]
    fn tree_update_existing() {
        let mut s = tree_store(500);
        for i in 0..100u64 {
            s.put(&k(i), b"first").unwrap();
        }
        for i in 0..100u64 {
            s.put(&k(i), b"second-longer-value").unwrap();
        }
        assert_eq!(s.len(), 100);
        for i in 0..100u64 {
            assert_eq!(s.get(&k(i)).unwrap().unwrap(), b"second-longer-value");
        }
    }

    #[test]
    fn tree_delete_various_positions() {
        let mut s = tree_store(1000);
        for i in 0..200u64 {
            s.put(&k(i), b"value").unwrap();
        }
        // Delete every third key (hits leaves, inner nodes, borrows and
        // merges).
        for i in (0..200u64).step_by(3) {
            assert!(s.delete(&k(i)).unwrap(), "delete {i}");
        }
        for i in 0..200u64 {
            let expect = i % 3 != 0;
            assert_eq!(s.get(&k(i)).unwrap().is_some(), expect, "key {i}");
        }
        let keys = s.keys_in_order().unwrap();
        assert_eq!(keys.len() as u64, s.len());
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn tree_delete_everything() {
        let mut s = tree_store(500);
        for i in 0..120u64 {
            s.put(&k(i), b"value").unwrap();
        }
        for i in 0..120u64 {
            assert!(s.delete(&k(i)).unwrap(), "delete {i}");
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.height(), 0);
        assert_eq!(s.get(&k(0)).unwrap(), None);
        // Reinsert after emptying.
        s.put(&k(1), b"again").unwrap();
        assert_eq!(s.get(&k(1)).unwrap().unwrap(), b"again");
    }

    #[test]
    fn tree_attack_child_pointer_swap_detected() {
        let mut s = tree_store(4000);
        for i in 0..1500u64 {
            s.put(&k(i), b"v").unwrap();
        }
        assert!(s.height() >= 3, "need two levels of inner nodes");
        assert!(s.attack_swap_child_pointers());
        // Scan a spread of keys: at least one path crosses the swapped
        // pointers and must fail verification.
        let mut detected = false;
        for i in 0..1500u64 {
            match s.get(&k(i)) {
                Err(e) if e.is_integrity_violation() => {
                    detected = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(detected, "child pointer swap went undetected");
    }

    #[test]
    fn tree_attack_truncate_root_detected() {
        let mut s = tree_store(1000);
        for i in 0..100u64 {
            s.put(&k(i), b"v").unwrap();
        }
        assert!(s.attack_truncate_root());
        let mut detected = false;
        for i in 0..100u64 {
            match s.get(&k(i)) {
                Err(e) if e.is_integrity_violation() => {
                    detected = true;
                    break;
                }
                Ok(None) => {
                    // A silent miss with wrong depth must have been
                    // flagged instead.
                }
                _ => {}
            }
        }
        assert!(detected, "root truncation went undetected");
    }

    // --- B+-tree extension (Aria-T+) ------------------------------------------

    fn bplus_store(keys: u64) -> AriaBPlusTree {
        let mut cfg = StoreConfig::for_keys(keys);
        cfg.cache = CacheConfig::with_capacity(8 << 20);
        cfg.btree_order = 7;
        AriaBPlusTree::new(cfg, enclave()).unwrap()
    }

    #[test]
    fn bplus_put_get_roundtrip() {
        let mut s = bplus_store(2000);
        for i in 0..500u64 {
            s.put(&k(i), format!("bp-{i}").as_bytes()).unwrap();
        }
        assert_eq!(s.len(), 500);
        for i in 0..500u64 {
            assert_eq!(s.get(&k(i)).unwrap().unwrap(), format!("bp-{i}").as_bytes(), "key {i}");
        }
        assert_eq!(s.get(&k(9999)).unwrap(), None);
        assert!(s.height() >= 2);
    }

    #[test]
    fn bplus_scrambled_inserts_stay_ordered() {
        let mut s = bplus_store(1000);
        for i in 0..300u64 {
            s.put(&k((i * 7919) % 300), b"v").unwrap();
        }
        let keys = s.keys_in_order().unwrap();
        assert_eq!(keys.len(), 300);
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "B+ order violated");
        }
    }

    #[test]
    fn bplus_update_existing() {
        let mut s = bplus_store(500);
        for i in 0..100u64 {
            s.put(&k(i), b"first").unwrap();
        }
        for i in 0..100u64 {
            s.put(&k(i), b"second-longer-value").unwrap();
        }
        assert_eq!(s.len(), 100);
        for i in 0..100u64 {
            assert_eq!(s.get(&k(i)).unwrap().unwrap(), b"second-longer-value");
        }
    }

    #[test]
    fn bplus_delete_various_positions() {
        let mut s = bplus_store(1000);
        for i in 0..200u64 {
            s.put(&k(i), b"value").unwrap();
        }
        for i in (0..200u64).step_by(3) {
            assert!(s.delete(&k(i)).unwrap(), "delete {i}");
        }
        for i in 0..200u64 {
            let expect = i % 3 != 0;
            assert_eq!(s.get(&k(i)).unwrap().is_some(), expect, "key {i}");
        }
        let keys = s.keys_in_order().unwrap();
        assert_eq!(keys.len() as u64, s.len());
    }

    #[test]
    fn bplus_delete_everything_and_reuse() {
        let mut s = bplus_store(500);
        for i in 0..120u64 {
            s.put(&k(i), b"value").unwrap();
        }
        for i in 0..120u64 {
            assert!(s.delete(&k(i)).unwrap(), "delete {i}");
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.height(), 0);
        s.put(&k(1), b"again").unwrap();
        assert_eq!(s.get(&k(1)).unwrap().unwrap(), b"again");
    }

    #[test]
    fn bplus_range_scan_streams_leaves() {
        let mut s = bplus_store(2000);
        for i in 0..400u64 {
            s.put(&k(i), format!("rv-{i}").as_bytes()).unwrap();
        }
        let got = s.range(&k(100), &k(150)).unwrap();
        assert_eq!(got.len(), 50);
        for (offset, (key, value)) in got.iter().enumerate() {
            assert_eq!(key, &k(100 + offset as u64));
            assert_eq!(value, format!("rv-{}", 100 + offset).as_bytes());
        }
        assert_eq!(s.range(&k(0), &k(400)).unwrap().len(), 400);
        assert_eq!(s.range(&k(50), &k(50)).unwrap().len(), 0);
    }

    #[test]
    fn bplus_range_survives_churn() {
        let mut s = bplus_store(1000);
        for i in 0..300u64 {
            s.put(&k(i), b"v1").unwrap();
        }
        for i in (0..300u64).step_by(2) {
            s.delete(&k(i)).unwrap();
        }
        for i in (0..300u64).step_by(5) {
            s.put(&k(i), b"v2").unwrap();
        }
        let got = s.range(&k(0), &k(300)).unwrap();
        let expect: Vec<u64> = (0..300).filter(|i| i % 2 == 1 || i % 5 == 0).collect();
        assert_eq!(got.len(), expect.len());
        for ((key, _), id) in got.iter().zip(expect.iter()) {
            assert_eq!(key, &k(*id));
        }
    }

    #[test]
    fn bplus_attack_child_pointer_swap_detected() {
        let mut s = bplus_store(4000);
        for i in 0..1500u64 {
            s.put(&k(i), b"v").unwrap();
        }
        assert!(s.height() >= 3);
        assert!(s.attack_swap_child_pointers());
        let mut detected = false;
        for i in 0..1500u64 {
            if matches!(s.get(&k(i)), Err(e) if e.is_integrity_violation()) {
                detected = true;
                break;
            }
        }
        assert!(detected, "B+ child pointer swap undetected");
    }

    #[test]
    fn bplus_point_lookup_cheaper_than_btree() {
        // The extension's headline: routing decrypts short separator keys
        // instead of full entries, so lookups cost fewer cycles at the
        // same order — especially with larger values.
        let cost_of = |bplus: bool| {
            let enclave = enclave();
            let mut cfg = StoreConfig::for_keys(4000);
            cfg.cache = CacheConfig::with_capacity(8 << 20);
            cfg.btree_order = 7;
            let mut s: Box<dyn KvStore> = if bplus {
                Box::new(AriaBPlusTree::new(cfg, Arc::clone(&enclave)).unwrap())
            } else {
                Box::new(AriaTree::new(cfg, Arc::clone(&enclave)).unwrap())
            };
            for i in 0..2000u64 {
                s.put(&k(i), &[7u8; 256]).unwrap();
            }
            let c0 = enclave.cycles();
            for i in 0..500u64 {
                s.get(&k(i * 3 % 2000)).unwrap();
            }
            (enclave.cycles() - c0) / 500
        };
        let btree = cost_of(false);
        let bplus = cost_of(true);
        assert!(bplus < btree, "B+ lookups ({bplus} cyc) should beat B-tree lookups ({btree} cyc)");
    }

    // --- cross-cutting --------------------------------------------------------

    #[test]
    fn memory_breakdown_reports_components() {
        let mut s = hash_store(10_000);
        for i in 0..1000u64 {
            s.put(&k(i), &[7u8; 64]).unwrap();
        }
        let m = s.memory_breakdown();
        assert!(m.merkle_untrusted > 10_000 * 16, "counters + inner nodes");
        assert!(m.heap_live > 0);
        assert!(m.epc_cache > 0);
        assert!(m.epc_total >= m.epc_cache);
    }

    #[test]
    fn cycles_accumulate_per_operation() {
        let mut s = hash_store(1000);
        s.put(&k(0), b"value").unwrap();
        let c0 = s.enclave().cycles();
        s.get(&k(0)).unwrap();
        let get_cost = s.enclave().cycles() - c0;
        assert!(get_cost > 1000, "a Get should cost >1k cycles, got {get_cost}");
        assert!(get_cost < 1_000_000, "a hot Get should not cost {get_cost}");
    }

    #[test]
    fn counter_expansion_under_load() {
        let mut cfg = StoreConfig::for_keys(64);
        cfg.counter_capacity = 64;
        cfg.cache = CacheConfig::with_capacity(1 << 20);
        cfg.expansion_cache_bytes = 1 << 20;
        let mut s = AriaHash::new(cfg, enclave()).unwrap();
        for i in 0..200u64 {
            s.put(&k(i), b"grow").unwrap();
        }
        for i in 0..200u64 {
            assert!(s.get(&k(i)).unwrap().is_some());
        }
        assert!(s.core().counters.as_cached().unwrap().trees() > 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aria_cache::CacheConfig;
    use aria_sim::CostModel;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Put(u8, Vec<u8>),
        Get(u8),
        Delete(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(k, v)| Op::Put(k, v)),
            3 => any::<u8>().prop_map(Op::Get),
            2 => any::<u8>().prop_map(Op::Delete),
        ]
    }

    fn key_of(id: u8) -> Vec<u8> {
        format!("prop-key-{id:03}").into_bytes()
    }

    fn run_model<S: KvStore>(store: &mut S, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(id, v) => {
                    store.put(&key_of(id), &v).unwrap();
                    model.insert(id, v);
                }
                Op::Get(id) => {
                    let got = store.get(&key_of(id)).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&id), "get {}", id);
                }
                Op::Delete(id) => {
                    let existed = store.delete(&key_of(id)).unwrap();
                    prop_assert_eq!(existed, model.remove(&id).is_some(), "delete {}", id);
                }
            }
            prop_assert_eq!(store.len(), model.len() as u64);
        }
        for (id, v) in &model {
            let got = store.get(&key_of(*id)).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn hash_store_linearizes(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 512 << 20));
            let mut cfg = StoreConfig::for_keys(512);
            cfg.cache = CacheConfig::with_capacity(2 << 20);
            cfg.buckets = 16; // force chains
            let mut s = AriaHash::new(cfg, enclave).unwrap();
            run_model(&mut s, ops)?;
        }

        #[test]
        fn tree_store_linearizes(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 512 << 20));
            let mut cfg = StoreConfig::for_keys(512);
            cfg.cache = CacheConfig::with_capacity(2 << 20);
            cfg.btree_order = 5; // force splits and merges
            let mut s = AriaTree::new(cfg, enclave).unwrap();
            run_model(&mut s, ops)?;
        }

        #[test]
        fn tree_stays_ordered_under_churn(ops in proptest::collection::vec(op_strategy(), 1..100)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 512 << 20));
            let mut cfg = StoreConfig::for_keys(512);
            cfg.cache = CacheConfig::with_capacity(2 << 20);
            cfg.btree_order = 5;
            let mut s = AriaTree::new(cfg, enclave).unwrap();
            for op in ops {
                match op {
                    Op::Put(id, v) => { s.put(&key_of(id), &v).unwrap(); }
                    Op::Get(id) => { s.get(&key_of(id)).unwrap(); }
                    Op::Delete(id) => { s.delete(&key_of(id)).unwrap(); }
                }
            }
            let keys = s.keys_in_order().unwrap();
            prop_assert_eq!(keys.len() as u64, s.len());
            for w in keys.windows(2) {
                prop_assert!(w[0] < w[1], "B-tree order violated");
            }
        }

        #[test]
        fn bplus_store_linearizes(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 512 << 20));
            let mut cfg = StoreConfig::for_keys(512);
            cfg.cache = CacheConfig::with_capacity(2 << 20);
            cfg.btree_order = 5; // force splits and merges
            let mut s = AriaBPlusTree::new(cfg, enclave).unwrap();
            run_model(&mut s, ops)?;
        }

        #[test]
        fn bplus_stays_ordered_under_churn(ops in proptest::collection::vec(op_strategy(), 1..100)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 512 << 20));
            let mut cfg = StoreConfig::for_keys(512);
            cfg.cache = CacheConfig::with_capacity(2 << 20);
            cfg.btree_order = 5;
            let mut s = AriaBPlusTree::new(cfg, enclave).unwrap();
            for op in ops {
                match op {
                    Op::Put(id, v) => { s.put(&key_of(id), &v).unwrap(); }
                    Op::Get(id) => { s.get(&key_of(id)).unwrap(); }
                    Op::Delete(id) => { s.delete(&key_of(id)).unwrap(); }
                }
            }
            let keys = s.keys_in_order().unwrap();
            prop_assert_eq!(keys.len() as u64, s.len());
            for w in keys.windows(2) {
                prop_assert!(w[0] < w[1], "B+-tree order violated");
            }
        }

        #[test]
        fn without_cache_store_linearizes(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 512 << 20));
            let mut cfg = StoreConfig::for_keys(512);
            cfg.scheme = Scheme::AriaWithoutCache;
            cfg.buckets = 16;
            let mut s = AriaHash::new(cfg, enclave).unwrap();
            run_model(&mut s, ops)?;
        }

        #[test]
        fn baseline_store_linearizes(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let enclave = Arc::new(Enclave::new(CostModel::default(), 64 << 20));
            let mut s = BaselineStore::new(enclave, 1 << 20);
            run_model(&mut s, ops)?;
        }
    }
}
