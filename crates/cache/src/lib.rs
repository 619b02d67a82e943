//! Secure Cache — the core contribution of the Aria paper (§IV).
//!
//! A software-managed EPC cache of Merkle-tree nodes at *node*
//! granularity, replacing SGX's 4 KB hardware secure paging for security
//! metadata. See [`SecureCache`] for the mechanism and
//! [`CacheConfig`] for the knobs (replacement policy, level pinning,
//! stop-swap, semantic-aware swap optimizations) that the paper's
//! Figure 12/14/15 experiments sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod secure_cache;

pub use config::{
    CacheConfig, CacheConfigBuilder, CacheConfigError, EvictionPolicy, SwapMode, ENTRY_META_BYTES,
};
pub use secure_cache::{CacheError, CacheStats, IntegrityViolation, SecureCache};

#[cfg(test)]
mod tests {
    use super::*;
    use aria_crypto::RealSuite;
    use aria_merkle::{MerkleTree, NodeId};
    use aria_sim::{CostModel, Enclave};
    use std::sync::Arc;

    fn suite() -> Arc<RealSuite> {
        Arc::new(RealSuite::from_master(&[9u8; 16]))
    }

    fn setup(counters: u64, arity: usize, cfg: CacheConfig) -> SecureCache {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 256 << 20));
        let tree = MerkleTree::new(counters, arity, suite(), 11);
        SecureCache::new(tree, enclave, cfg).expect("cache construction")
    }

    fn small_cfg(capacity: usize) -> CacheConfig {
        CacheConfig { capacity_bytes: capacity, pinned_levels: 1, ..CacheConfig::default() }
    }

    #[test]
    fn construction_pins_top_levels() {
        let cache = setup(10_000, 8, CacheConfig { pinned_levels: 3, ..CacheConfig::default() });
        let h = cache.tree().height();
        assert_eq!(cache.pinned_floor(), h - 3);
        assert!(cache.cached_entries() > 0);
    }

    #[test]
    fn get_returns_initial_counters() {
        let mut cache = setup(1000, 4, CacheConfig::default());
        for idx in [0u64, 1, 500, 999] {
            let expected = cache.tree().counter_bytes(idx);
            assert_eq!(cache.get_counter(idx).unwrap(), expected);
        }
    }

    #[test]
    fn second_access_is_a_hit() {
        let mut cache = setup(10_000, 8, CacheConfig::default());
        cache.get_counter(42).unwrap();
        assert_eq!(cache.stats().misses, 1);
        cache.get_counter(42).unwrap();
        assert_eq!(cache.stats().hits, 1);
        // Neighbouring counter in the same leaf node: also a hit.
        cache.get_counter(43).unwrap();
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn update_then_get_roundtrips() {
        let mut cache = setup(1000, 4, CacheConfig::default());
        cache.update_counter(7, &[0x77; 16]).unwrap();
        assert_eq!(cache.get_counter(7).unwrap(), [0x77; 16]);
    }

    #[test]
    fn bump_increments_by_one() {
        let mut cache = setup(1000, 4, CacheConfig::default());
        let before = cache.get_counter(3).unwrap();
        let after = cache.bump_counter(3).unwrap();
        let mut expected = before;
        aria_crypto::increment_counter(&mut expected);
        assert_eq!(after, expected);
        assert_eq!(cache.get_counter(3).unwrap(), expected);
    }

    #[test]
    fn eviction_preserves_values() {
        // Capacity for only a handful of leaf entries: heavy eviction.
        let node = 4 * 16 + ENTRY_META_BYTES;
        let mut cache = setup(4096, 4, small_cfg(8 * node));
        for idx in 0..256u64 {
            cache.update_counter(idx, &[idx as u8; 16]).unwrap();
        }
        assert!(cache.stats().evictions > 0, "expected evictions");
        for idx in 0..256u64 {
            assert_eq!(cache.get_counter(idx).unwrap(), [idx as u8; 16], "idx {idx}");
        }
        assert!(cache.used_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn flush_leaves_untrusted_tree_consistent() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        let mut cache = setup(1024, 4, small_cfg(16 * node));
        for idx in 0..512u64 {
            cache.update_counter(idx, &[(idx % 251) as u8; 16]).unwrap();
        }
        cache.flush();
        for idx in (0..512u64).step_by(37) {
            let (leaf, _) = cache.tree().locate_counter(idx);
            assert_eq!(
                cache.tree().verify_path_plain(leaf),
                aria_merkle::Verification::Ok,
                "leaf of {idx}"
            );
            assert_eq!(cache.tree().counter_bytes(idx), [(idx % 251) as u8; 16]);
        }
    }

    #[test]
    fn tampering_uncached_leaf_detected() {
        let mut cache = setup(4096, 8, CacheConfig::default());
        cache.flush();
        let (leaf, _) = cache.tree().locate_counter(100);
        cache.tree_mut_raw().node_mut_raw(leaf)[3] ^= 1;
        assert!(cache.get_counter(100).is_err());
    }

    #[test]
    fn tampering_untrusted_copy_of_cached_leaf_is_harmless() {
        let mut cache = setup(4096, 8, CacheConfig::default());
        let good = cache.get_counter(100).unwrap(); // now cached
        let (leaf, _) = cache.tree().locate_counter(100);
        cache.tree_mut_raw().node_mut_raw(leaf)[3] ^= 1;
        // Served from the EPC copy: still the good value.
        assert_eq!(cache.get_counter(100).unwrap(), good);
    }

    #[test]
    fn replay_of_old_counter_detected_after_eviction() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        let mut cache = setup(1024, 4, small_cfg(4 * node));
        let (leaf, _) = cache.tree().locate_counter(5);
        let old_bytes = cache.tree().node(leaf).to_vec();
        cache.update_counter(5, &[0xee; 16]).unwrap();
        cache.flush();
        // Attacker restores the pre-update leaf bytes.
        cache.tree_mut_raw().write_node(leaf, &old_bytes);
        assert!(cache.get_counter(5).is_err(), "replay went undetected");
    }

    #[test]
    fn clean_victims_discarded_without_writeback() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        let mut cache = setup(4096, 4, small_cfg(4 * node));
        for idx in (0..1024u64).step_by(4) {
            cache.get_counter(idx).unwrap(); // read-only: entries stay clean
        }
        assert!(cache.stats().clean_discards > 0);
        assert_eq!(cache.stats().writebacks, 0);
    }

    #[test]
    fn disabled_clean_discard_pays_writebacks() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        let cfg = CacheConfig {
            capacity_bytes: 4 * node,
            pinned_levels: 1,
            skip_clean_writeback: false,
            swap_without_encryption: false,
            ..CacheConfig::default()
        };
        let mut cache = setup(4096, 4, cfg);
        let crypted_before = cache.enclave().snapshot().bytes_crypted;
        for idx in (0..1024u64).step_by(4) {
            cache.get_counter(idx).unwrap();
        }
        assert_eq!(cache.stats().clean_discards, 0);
        assert!(cache.stats().writebacks > 0);
        // Swap-out encryption was charged.
        assert!(cache.enclave().snapshot().bytes_crypted > crypted_before);
    }

    #[test]
    fn fifo_evicts_insertion_order() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        // Room for exactly 2 swappable leaf entries.
        let cfg = CacheConfig {
            capacity_bytes: 2 * node + node / 2,
            pinned_levels: 0,
            policy: EvictionPolicy::Fifo,
            swap_mode: SwapMode::Always,
            ..CacheConfig::default()
        };
        let mut cache = setup(64, 4, cfg);
        cache.get_counter(0).unwrap(); // leaf 0 in
        cache.get_counter(4).unwrap(); // leaf 1 in
        cache.get_counter(0).unwrap(); // hit, FIFO order unchanged
        cache.get_counter(8).unwrap(); // leaf 2 in -> evicts leaf 0
        let before = cache.stats().hits;
        cache.get_counter(4).unwrap(); // leaf 1 still cached
        assert_eq!(cache.stats().hits, before + 1);
        let misses_before = cache.stats().misses;
        cache.get_counter(0).unwrap(); // leaf 0 was evicted
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn lru_protects_recently_used() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        let cfg = CacheConfig {
            capacity_bytes: 2 * node + node / 2,
            pinned_levels: 0,
            policy: EvictionPolicy::Lru,
            swap_mode: SwapMode::Always,
            ..CacheConfig::default()
        };
        let mut cache = setup(64, 4, cfg);
        cache.get_counter(0).unwrap(); // leaf 0
        cache.get_counter(4).unwrap(); // leaf 1
        cache.get_counter(0).unwrap(); // refresh leaf 0
        cache.get_counter(8).unwrap(); // evicts leaf 1 (LRU)
        let hits = cache.stats().hits;
        cache.get_counter(0).unwrap(); // leaf 0 survived
        assert_eq!(cache.stats().hits, hits + 1);
    }

    #[test]
    fn lru_hits_cost_more_than_fifo_hits() {
        let run = |policy| {
            let cfg = CacheConfig { policy, ..CacheConfig::default() };
            let mut cache = setup(4096, 8, cfg);
            cache.get_counter(1).unwrap();
            let start = cache.enclave().cycles();
            for _ in 0..1000 {
                cache.get_counter(1).unwrap();
            }
            cache.enclave().cycles() - start
        };
        let fifo = run(EvictionPolicy::Fifo);
        let lru = run(EvictionPolicy::Lru);
        assert!(lru > fifo, "LRU hit path should cost more: lru={lru} fifo={fifo}");
    }

    #[test]
    fn stop_swap_triggers_on_low_hit_ratio() {
        let node = 8 * 16 + ENTRY_META_BYTES;
        let cfg = CacheConfig {
            capacity_bytes: 64 * node,
            pinned_levels: 1,
            swap_mode: SwapMode::Auto,
            stop_swap_threshold: 0.7,
            stop_swap_window: 500,
            ..CacheConfig::default()
        };
        let mut cache = setup(100_000, 8, cfg);
        assert!(cache.swapping());
        // Uniform scan: hit ratio ~0.
        for idx in 0..2000u64 {
            cache.get_counter((idx * 49) % 100_000).unwrap();
        }
        assert!(!cache.swapping(), "stop-swap did not trigger");
        // Pinning extended downward.
        assert!(cache.pinned_floor() < cache.tree().height());
        // Counters still correct afterwards.
        let expected = cache.tree().counter_bytes(12345);
        assert_eq!(cache.get_counter(12345).unwrap(), expected);
    }

    /// 100 000 counters at arity 8: levels of 12 500, 1 563, 196, 25, 4
    /// and 1 nodes. 300 entries hold the top four levels but not L1.
    fn stopped_cache(tamper_l1: Option<u64>) -> SecureCache {
        let node = 8 * 16 + ENTRY_META_BYTES;
        let cfg = CacheConfig {
            capacity_bytes: 300 * node,
            pinned_levels: 3,
            swap_mode: SwapMode::Auto,
            stop_swap_threshold: 0.7,
            stop_swap_window: 500,
            ..CacheConfig::default()
        };
        let mut cache = setup(100_000, 8, cfg);
        if let Some(index) = tamper_l1 {
            cache.tree_mut_raw().node_mut_raw(NodeId { level: 1, index })[0] ^= 0xff;
        }
        // A scan of the upper half of the counters: hit ratio ~0, and it
        // never touches the L1 nodes at the front of the level.
        for i in 0..2000u64 {
            cache.get_counter(50_000 + (i * 49) % 50_000).unwrap();
        }
        assert!(!cache.swapping(), "stop-swap did not trigger");
        cache
    }

    #[test]
    fn stop_swap_fills_the_budget_to_within_one_path() {
        let cache = stopped_cache(None);
        let node = 8 * 16 + ENTRY_META_BYTES;
        // L2 is pinned whole and L1 in part: a path is a leaf plus at most
        // one L1 node.
        assert_eq!(cache.pinned_floor(), 2);
        let free = cache.capacity_bytes() - cache.used_bytes();
        let path = cache.pinned_floor() as usize * node;
        assert!(free >= path, "no room left for a verification path: {free} B free");
        assert!(free < path + node, "budget not filled: {free} B free");
        assert!(cache.cached_entries() > 1 + 4 + 25 + 196, "no L1 prefix pinned");
    }

    #[test]
    fn counter_under_a_pinned_prefix_node_verifies_at_depth_one() {
        let mut cache = stopped_cache(None);
        let levels = cache.stats().verify_levels;
        // Counter 0 sits under L1 node 0, the first node the fill pins.
        assert_eq!(cache.get_counter(0).unwrap(), cache.tree().counter_bytes(0));
        assert_eq!(cache.stats().verify_levels, levels + 1);
        // The last counter's L1 node is beyond the prefix: two levels.
        let last = cache.tree().num_counters() - 1;
        assert_eq!(cache.get_counter(last).unwrap(), cache.tree().counter_bytes(last));
        assert_eq!(cache.stats().verify_levels, levels + 3);
    }

    #[test]
    fn node_tampered_before_the_stop_is_never_pinned() {
        // L1 node 5 is flipped in slot 0 while the cache still swaps.
        let mut cache = stopped_cache(Some(5));
        // Its prefix neighbours were pinned and serve at depth one.
        let levels = cache.stats().verify_levels;
        assert!(cache.get_counter(0).is_ok());
        assert_eq!(cache.stats().verify_levels, levels + 1);
        // A counter under an untouched slot of node 5 (leaf 41): were the
        // tampered node pinned, its intact slot would vouch for the leaf.
        assert!(cache.get_counter(41 * 8).is_err(), "read under a tampered node succeeded");
    }

    #[test]
    fn held_path_serves_the_bump_and_drops_on_each_event() {
        let cfg = CacheConfig {
            swap_mode: SwapMode::Never,
            pinned_levels: 1,
            capacity_bytes: 64 * (8 * 16 + ENTRY_META_BYTES),
            ..CacheConfig::default()
        };
        let mut cache = setup(100_000, 8, cfg);
        // A read then a bump of one counter: one access, one verification.
        let before = cache.get_counter(100).unwrap();
        let (hits, misses, levels) =
            (cache.stats().hits, cache.stats().misses, cache.stats().verify_levels);
        let bumped = cache.bump_counter(100).unwrap();
        let mut expected = before;
        aria_crypto::increment_counter(&mut expected);
        assert_eq!(bumped, expected);
        assert_eq!(cache.stats().misses, misses, "the bump re-verified");
        assert_eq!(cache.stats().hits, hits, "the bump counted as a second access");
        assert_eq!(cache.stats().verify_levels, levels);
        // Write-through: the untrusted tree verifies up to the root.
        cache.flush();
        let (leaf, _) = cache.tree().locate_counter(100);
        assert_eq!(cache.tree().verify_path_plain(leaf), aria_merkle::Verification::Ok);
        assert_eq!(cache.tree().counter_bytes(100), expected);

        for event in ["another leaf", "flush", "recovery_drain", "tree_mut_raw"] {
            cache.get_counter(100).unwrap();
            let misses = cache.stats().misses;
            cache.get_counter(100).unwrap();
            assert_eq!(cache.stats().misses, misses, "{event}: held path not serving");
            match event {
                "another leaf" => {
                    cache.get_counter(90_000).unwrap();
                }
                "flush" => cache.flush(),
                "recovery_drain" => {
                    cache.recovery_drain();
                    cache.tree_mut_raw().rebuild();
                    cache.recovery_repin();
                }
                _ => {
                    cache.tree_mut_raw();
                }
            }
            let misses = cache.stats().misses;
            assert_eq!(cache.get_counter(100).unwrap(), expected, "{event}");
            assert_eq!(cache.stats().misses, misses + 1, "{event} kept the held path");
        }
        // A tamper through the raw accessor is seen by the next read.
        cache.get_counter(100).unwrap();
        cache.tree_mut_raw().node_mut_raw(leaf)[0] ^= 1;
        assert!(cache.get_counter(100).is_err());
    }

    /// A dirty write-back must not re-MAC an uncached parent it never
    /// verified: here the parent and a leaf under it are rolled back
    /// together, and the honest sibling's write-back would otherwise
    /// re-authenticate the stale pair.
    #[test]
    fn dirty_writeback_does_not_launder_a_rolled_back_sibling() {
        let node = 4 * 16 + ENTRY_META_BYTES;
        let cfg = CacheConfig {
            capacity_bytes: 6 * node,
            pinned_levels: 1,
            swap_mode: SwapMode::Always,
            ..CacheConfig::default()
        };
        let mut cache = setup(1024, 4, cfg);
        // Counters 0 and 4: leaves 0 and 1, siblings under L1 node 0.
        let (leaf, _) = cache.tree().locate_counter(0);
        let parent = cache.tree().parent(leaf).unwrap();
        assert_eq!(Some(parent), cache.tree().parent(cache.tree().locate_counter(4).0));
        cache.update_counter(0, &[1; 16]).unwrap();
        cache.flush();
        let (old_leaf, old_parent) =
            (cache.tree().node(leaf).to_vec(), cache.tree().node(parent).to_vec());
        cache.update_counter(0, &[2; 16]).unwrap();
        cache.flush();
        cache.update_counter(4, &[3; 16]).unwrap(); // the sibling, dirty in the cache
        cache.tree_mut_raw().write_node(leaf, &old_leaf);
        cache.tree_mut_raw().write_node(parent, &old_parent);
        cache.flush(); // evicts the sibling
        let read = cache.get_counter(0);
        assert!(read.is_err(), "rolled-back counter served: {read:?}");
        // The sibling's write was not lost: it stayed cached.
        assert_eq!(cache.get_counter(4).unwrap(), [3; 16]);
    }

    #[test]
    fn never_mode_updates_work_without_caching() {
        let cfg = CacheConfig { swap_mode: SwapMode::Never, ..CacheConfig::default() };
        let mut cache = setup(10_000, 8, cfg);
        assert!(!cache.swapping());
        let inserts_before = cache.stats().inserts;
        cache.update_counter(77, &[0xab; 16]).unwrap();
        assert_eq!(cache.get_counter(77).unwrap(), [0xab; 16]);
        assert_eq!(cache.stats().inserts, inserts_before);
        // Untrusted tree must remain verifiable (updates propagate).
        let (leaf, _) = cache.tree().locate_counter(77);
        // The anchor may be a pinned dirty node; flush and verify fully.
        cache.flush();
        assert_eq!(cache.tree().verify_path_plain(leaf), aria_merkle::Verification::Ok);
    }

    #[test]
    fn pinned_level_hit_avoids_verification() {
        // With everything but L0 pinned (Never mode + ample capacity), a
        // counter fetch walks exactly one level.
        let cfg = CacheConfig {
            swap_mode: SwapMode::Never,
            capacity_bytes: 64 << 20,
            ..CacheConfig::default()
        };
        let mut cache = setup(10_000, 8, cfg);
        assert_eq!(cache.pinned_floor(), 1);
        cache.get_counter(9999).unwrap();
        assert_eq!(cache.stats().verify_levels, 1);
    }

    #[test]
    fn capacity_too_small_rejected() {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 256 << 20));
        let tree = MerkleTree::new(100, 4, suite(), 1);
        let cfg = CacheConfig { capacity_bytes: 16, ..CacheConfig::default() };
        assert!(matches!(
            SecureCache::new(tree, enclave, cfg),
            Err(CacheError::CapacityTooSmall { .. })
        ));
    }

    #[test]
    fn epc_budget_respected() {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 1 << 20));
        let tree = MerkleTree::new(100, 4, suite(), 1);
        let cfg = CacheConfig { capacity_bytes: 2 << 20, ..CacheConfig::default() };
        assert!(matches!(
            SecureCache::new(tree, enclave, cfg),
            Err(CacheError::EpcExhausted { .. })
        ));
    }

    #[test]
    fn drop_releases_epc() {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 64 << 20));
        {
            let tree = MerkleTree::new(100, 4, suite(), 1);
            let cfg = CacheConfig { capacity_bytes: 1 << 20, ..CacheConfig::default() };
            let _cache = SecureCache::new(tree, Arc::clone(&enclave), cfg).unwrap();
            assert_eq!(enclave.epc_used(), 1 << 20);
        }
        assert_eq!(enclave.epc_used(), 0);
    }

    #[test]
    fn recovery_drain_dumps_cached_truth_and_empties_cache() {
        let mut cache = setup(4096, 8, CacheConfig { pinned_levels: 2, ..CacheConfig::default() });
        cache.update_counter(100, &[0xcd; 16]).unwrap(); // dirty cached leaf
        let (leaf, _) = cache.tree().locate_counter(100);
        // Attacker scribbles over the untrusted copy of the cached leaf
        // *and* an unrelated uncached leaf.
        cache.tree_mut_raw().node_mut_raw(leaf)[0] ^= 0xff;
        let (other, _) = cache.tree().locate_counter(4000);
        cache.tree_mut_raw().node_mut_raw(other)[0] ^= 0xff;

        let trusted: std::collections::HashSet<NodeId> =
            cache.recovery_drain().into_iter().collect();
        assert_eq!(cache.cached_entries(), 0);
        assert_eq!(cache.used_bytes(), 0);
        assert!(trusted.contains(&leaf), "dirty cached leaf must be in the trusted set");
        // The drain restored the cached leaf's bytes in untrusted memory.
        assert_eq!(cache.tree().counter_bytes(100), [0xcd; 16]);

        // Audit from the root + trusted set: the drained leaf survives,
        // the scribbled uncached leaf is condemned.
        let condemned = cache.tree().audit_leaves(&trusted);
        assert!(!condemned.contains(&leaf));
        assert!(condemned.contains(&other));
    }

    #[test]
    fn recovery_repin_restores_pinning_after_rebuild() {
        let mut cache =
            setup(10_000, 8, CacheConfig { pinned_levels: 3, ..CacheConfig::default() });
        let floor_before = cache.pinned_floor();
        cache.recovery_drain();
        assert_eq!(cache.pinned_floor(), cache.tree().height());
        cache.tree_mut_raw().rebuild();
        cache.recovery_repin();
        assert_eq!(cache.pinned_floor(), floor_before);
        // Cache serves correct counters again.
        let expected = cache.tree().counter_bytes(1234);
        assert_eq!(cache.get_counter(1234).unwrap(), expected);
    }

    #[test]
    fn tampering_inner_node_detected_on_cold_path() {
        let mut cache =
            setup(100_000, 8, CacheConfig { pinned_levels: 1, ..CacheConfig::default() });
        cache.flush();
        // Corrupt an uncached inner node.
        let inner = NodeId { level: 1, index: 7 };
        cache.tree_mut_raw().node_mut_raw(inner)[0] ^= 0xff;
        // A counter whose path crosses that node must fail.
        let idx = 7 * 8 * 8; // leaf index 7*8, counter under it
        assert!(cache.get_counter(idx as u64).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aria_crypto::RealSuite;
    use aria_merkle::MerkleTree;
    use aria_sim::{CostModel, Enclave};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Update(u64, u8),
        Bump(u64),
        Flush,
    }

    fn op_strategy(counters: u64) -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..counters).prop_map(Op::Get),
            4 => (0..counters, any::<u8>()).prop_map(|(i, v)| Op::Update(i, v)),
            2 => (0..counters).prop_map(Op::Bump),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The Secure Cache behaves exactly like a plain map of counters
        /// under any op sequence, for both policies, swapping or pinned
        /// only, and tight capacities, and the untrusted tree verifies
        /// after a final flush.
        #[test]
        fn cache_linearizes_against_model(
            ops in proptest::collection::vec(op_strategy(600), 1..250),
            fifo in any::<bool>(),
            never in any::<bool>(),
            cap_entries in 2usize..20,
        ) {
            let arity = 4usize;
            let node = arity * 16 + ENTRY_META_BYTES;
            let cfg = CacheConfig {
                capacity_bytes: cap_entries * node,
                pinned_levels: 1,
                policy: if fifo { EvictionPolicy::Fifo } else { EvictionPolicy::Lru },
                swap_mode: if never { SwapMode::Never } else { SwapMode::Always },
                ..CacheConfig::default()
            };
            let enclave = Arc::new(Enclave::new(CostModel::default(), 256 << 20));
            let tree = MerkleTree::new(600, arity, Arc::new(RealSuite::from_master(&[5u8; 16])), 3);
            let mut model: HashMap<u64, [u8; 16]> =
                (0..600).map(|i| (i, tree.counter_bytes(i))).collect();
            let mut cache = SecureCache::new(tree, enclave, cfg).unwrap();

            for op in ops {
                match op {
                    Op::Get(i) => {
                        prop_assert_eq!(cache.get_counter(i).unwrap(), model[&i]);
                    }
                    Op::Update(i, v) => {
                        cache.update_counter(i, &[v; 16]).unwrap();
                        model.insert(i, [v; 16]);
                    }
                    Op::Bump(i) => {
                        let mut expect = model[&i];
                        aria_crypto::increment_counter(&mut expect);
                        prop_assert_eq!(cache.bump_counter(i).unwrap(), expect);
                        model.insert(i, expect);
                    }
                    Op::Flush => cache.flush(),
                }
                prop_assert!(cache.used_bytes() <= cache.capacity_bytes());
            }

            cache.flush();
            for (i, v) in &model {
                prop_assert_eq!(&cache.tree().counter_bytes(*i), v);
                let (leaf, _) = cache.tree().locate_counter(*i);
                prop_assert_eq!(cache.tree().verify_path_plain(leaf), aria_merkle::Verification::Ok);
            }
        }
    }
}
