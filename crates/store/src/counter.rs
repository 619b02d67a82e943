//! The redirection layer and counter-area management (paper §V-C).
//!
//! Every KV pair owns one 16-byte encryption counter, named by a counter
//! id (the entry's *RedPtr*). Free ids are recycled through a circular
//! buffer in **untrusted** memory, while a per-counter occupation bitmap
//! lives in the **EPC**: when a fetched id's bitmap bit is already set,
//! the untrusted free list must have been tampered with and an attack is
//! asserted.
//!
//! Two backends implement the counter store, mirroring the paper's
//! schemes:
//!
//! * [`CounterArea`] — full Aria: counters live under a Merkle tree with
//!   a [`SecureCache`] in front (one tree per expansion unit; a new tree
//!   is built when the area is exhausted, §V-A).
//! * [`EpcCounters`] — "Aria w/o Cache": all counters live inside the
//!   enclave in a flat array subject to hardware secure paging.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use aria_cache::{CacheConfig, SecureCache};
use aria_crypto::CipherSuite;
use aria_merkle::{MerkleTree, NodeId};
use aria_sim::{Enclave, PagedRegionId};
use aria_telemetry::{CacheTelemetry, MerkleTelemetry};

use crate::error::{StoreError, Violation};
use crate::RecoveryReport;

/// Bytes per counter.
pub const COUNTER_LEN: usize = 16;

/// Common behaviour of counter backends.
pub trait CounterStore {
    /// Acquire a free counter id.
    fn fetch(&mut self) -> Result<u64, StoreError>;
    /// Release a counter id (the caller must have bumped it first so any
    /// sealed bytes referencing the old value are invalidated).
    fn free(&mut self, id: u64) -> Result<(), StoreError>;
    /// Trusted read of a counter value.
    fn get(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError>;
    /// Increment a counter, returning the new value.
    fn bump(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError>;
    /// Counters currently allocated.
    fn live(&self) -> u64;
    /// Total counter slots provisioned (grows with area expansion).
    fn capacity(&self) -> u64;
}

/// Shared bitmap + free-ring logic.
struct IdAllocator {
    /// Occupation bitmap (conceptually in the EPC).
    bitmap: Vec<u64>,
    /// Circular buffer of freed ids (conceptually in untrusted memory).
    free_ring: VecDeque<u64>,
    next_fresh: u64,
    capacity: u64,
    live: u64,
}

impl IdAllocator {
    fn new(capacity: u64) -> Self {
        IdAllocator {
            bitmap: vec![0u64; (capacity as usize).div_ceil(64)],
            free_ring: VecDeque::new(),
            next_fresh: 0,
            capacity,
            live: 0,
        }
    }

    fn bitmap_bytes(capacity: u64) -> usize {
        (capacity as usize).div_ceil(64) * 8
    }

    fn bit(&self, id: u64) -> bool {
        (self.bitmap[(id / 64) as usize] >> (id % 64)) & 1 == 1
    }

    fn set_bit(&mut self, id: u64, v: bool) {
        if v {
            self.bitmap[(id / 64) as usize] |= 1 << (id % 64);
        } else {
            self.bitmap[(id / 64) as usize] &= !(1 << (id % 64));
        }
    }

    fn grow(&mut self, new_capacity: u64) {
        self.bitmap.resize((new_capacity as usize).div_ceil(64), 0);
        self.capacity = new_capacity;
    }

    /// Take an id from the ring or the fresh watermark. Returns
    /// `Err(Some(violation))` on attack, `Err(None)` when exhausted.
    fn take(&mut self, enclave: &Enclave) -> Result<u64, Option<Violation>> {
        if let Some(id) = self.free_ring.pop_front() {
            enclave.access_untrusted(8);
            enclave.access_epc(8);
            if self.bit(id) {
                return Err(Some(Violation::CounterReuse { counter: id }));
            }
            self.set_bit(id, true);
            self.live += 1;
            return Ok(id);
        }
        if self.next_fresh >= self.capacity {
            return Err(None);
        }
        let id = self.next_fresh;
        self.next_fresh += 1;
        enclave.access_epc(8);
        self.set_bit(id, true);
        self.live += 1;
        Ok(id)
    }

    fn release(&mut self, id: u64, enclave: &Enclave) -> Result<(), Violation> {
        enclave.access_epc(8);
        if id >= self.capacity || !self.bit(id) {
            return Err(Violation::CounterReuse { counter: id });
        }
        self.set_bit(id, false);
        self.live -= 1;
        self.free_ring.push_back(id);
        enclave.access_untrusted(8);
        Ok(())
    }

    /// Rebuild the untrusted free ring from the EPC bitmap. The ring may
    /// have been tampered with (entries dropped, duplicated, or forged);
    /// the bitmap is the ground truth, so after this every id below the
    /// fresh watermark whose bit is clear is free exactly once.
    fn rebuild_ring(&mut self, enclave: &Enclave) {
        self.free_ring.clear();
        for id in 0..self.next_fresh {
            enclave.access_epc(8);
            if !self.bit(id) {
                self.free_ring.push_back(id);
                enclave.access_untrusted(8);
            }
        }
    }
}

/// Full-Aria counter backend: Merkle-tree-protected counters behind the
/// Secure Cache, with expansion by whole trees.
pub struct CounterArea {
    caches: Vec<SecureCache>,
    per_tree: u64,
    ids: IdAllocator,
    enclave: Arc<Enclave>,
    suite: Arc<dyn CipherSuite>,
    arity: usize,
    expansion_cache_bytes: usize,
    seed: u64,
    /// Bumped on every recovery pass so reinitialized counters can never
    /// collide with any value ever handed out before the attack.
    recovery_epoch: u64,
    /// Telemetry handles re-attached to every cache built by expansion.
    tele: Option<(Arc<CacheTelemetry>, Arc<MerkleTelemetry>)>,
}

impl CounterArea {
    /// Build the initial tree + cache.
    pub fn new(
        capacity: u64,
        arity: usize,
        cache_cfg: CacheConfig,
        suite: Arc<dyn CipherSuite>,
        enclave: Arc<Enclave>,
        expansion_cache_bytes: usize,
        seed: u64,
    ) -> Result<Self, StoreError> {
        let tree = MerkleTree::new(capacity, arity, Arc::clone(&suite), seed);
        let cache =
            SecureCache::new(tree, Arc::clone(&enclave), cache_cfg).map_err(|e| match e {
                aria_cache::CacheError::EpcExhausted { .. } => StoreError::EpcExhausted,
                aria_cache::CacheError::CapacityTooSmall { .. } => StoreError::EpcExhausted,
            })?;
        enclave
            .epc_alloc(IdAllocator::bitmap_bytes(capacity))
            .map_err(|_| StoreError::EpcExhausted)?;
        Ok(CounterArea {
            caches: vec![cache],
            per_tree: capacity,
            ids: IdAllocator::new(capacity),
            enclave,
            suite,
            arity,
            expansion_cache_bytes,
            seed,
            recovery_epoch: 0,
            tele: None,
        })
    }

    /// Attach telemetry recorders to every Secure Cache (existing and,
    /// via `CounterArea::expand`, future ones).
    pub fn set_telemetry(&mut self, cache: Arc<CacheTelemetry>, merkle: Arc<MerkleTelemetry>) {
        for c in &mut self.caches {
            c.set_telemetry(Arc::clone(&cache), Arc::clone(&merkle));
        }
        self.tele = Some((cache, merkle));
    }

    fn locate(&self, id: u64) -> (usize, u64) {
        ((id / self.per_tree) as usize, id % self.per_tree)
    }

    /// A counter id arriving from untrusted memory (an entry's RedPtr) is
    /// attacker-controlled until the entry MAC is checked — and the MAC
    /// check *needs* the counter. Ids outside the allocated area are
    /// therefore rejected as integrity violations up front.
    fn check_id(&self, id: u64) -> Result<(), StoreError> {
        if id >= self.per_tree * self.caches.len() as u64 {
            return Err(StoreError::Integrity(Violation::CounterReuse { counter: id }));
        }
        Ok(())
    }

    /// Build a fresh tree when the area is exhausted (§V-A: the paper
    /// reserves the next tree from a background thread; the simulator is
    /// single-threaded, so expansion happens synchronously at the same
    /// cost).
    fn expand(&mut self) -> Result<(), StoreError> {
        let tree_idx = self.caches.len() as u64;
        let tree = MerkleTree::new(
            self.per_tree,
            self.arity,
            Arc::clone(&self.suite),
            self.seed ^ (tree_idx.wrapping_mul(0x9e37_79b9)),
        );
        let cfg =
            CacheConfig { capacity_bytes: self.expansion_cache_bytes, ..CacheConfig::default() };
        let mut cache = SecureCache::new(tree, Arc::clone(&self.enclave), cfg)
            .map_err(|_| StoreError::EpcExhausted)?;
        if let Some((ct, mt)) = &self.tele {
            cache.set_telemetry(Arc::clone(ct), Arc::clone(mt));
        }
        self.enclave
            .epc_alloc(IdAllocator::bitmap_bytes(self.per_tree))
            .map_err(|_| StoreError::EpcExhausted)?;
        self.caches.push(cache);
        self.ids.grow(self.per_tree * (tree_idx + 1));
        Ok(())
    }

    /// Aggregate cache statistics across trees.
    pub fn cache_stats(&self) -> aria_cache::CacheStats {
        let mut total = aria_cache::CacheStats::default();
        for c in &self.caches {
            let s = c.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.inserts += s.inserts;
            total.evictions += s.evictions;
            total.writebacks += s.writebacks;
            total.clean_discards += s.clean_discards;
            total.verify_levels += s.verify_levels;
            total.propagations += s.propagations;
        }
        total
    }

    /// Untrusted bytes of all Merkle trees (counters + inner nodes).
    pub fn merkle_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.tree().total_bytes()).sum()
    }

    /// Per-level untrusted bytes of the first tree (§VI-D4 analysis).
    pub fn level_bytes(&self) -> Vec<usize> {
        self.caches[0].tree().level_bytes()
    }

    /// Whether swapping is still active on the first tree.
    pub fn swapping(&self) -> bool {
        self.caches[0].swapping()
    }

    /// Flush all Secure Caches (tests / shutdown).
    pub fn flush(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
    }

    /// Number of trees (1 + expansions).
    pub fn trees(&self) -> usize {
        self.caches.len()
    }

    /// Audit and repair every counter tree against enclave ground truth.
    ///
    /// Per tree: drain the Secure Cache's EPC-resident nodes into
    /// untrusted memory (they are ground truth), run the root-anchored
    /// [`MerkleTree::audit_leaves`] pass, reinitialize every counter in
    /// a condemned leaf with a globally fresh value (so no sealed entry
    /// referencing an old counter can ever verify again), rebuild the
    /// tree bottom-up, and re-pin the cache. Finally the untrusted free
    /// ring is rebuilt from the EPC bitmap. Counter ids are never lost:
    /// condemned ids stay allocated until their owning entries are
    /// excised by the index-level sweep.
    pub fn recover(&mut self) -> RecoveryReport {
        self.recovery_epoch += 1;
        let mut report = RecoveryReport::default();
        for (tree_idx, cache) in self.caches.iter_mut().enumerate() {
            let base = tree_idx as u64 * self.per_tree;
            let trusted: HashSet<NodeId> = cache.recovery_drain().into_iter().collect();
            let condemned = cache.tree().audit_leaves(&trusted);
            report.merkle_nodes_condemned += condemned.len() as u64;
            for leaf in &condemned {
                for slot in cache.tree().counters_in_leaf(*leaf) {
                    let value = fresh_counter(self.seed, self.recovery_epoch, base + slot);
                    self.enclave.access_untrusted(COUNTER_LEN);
                    cache.tree_mut_raw().write_counter_raw(slot, &value);
                    report.counters_reinitialized += 1;
                }
            }
            // Recompute every inner node + the enclave root from the
            // repaired leaves (the audit guarantees surviving leaves are
            // genuine, so the rebuilt root anchors only genuine data).
            let total = cache.tree().total_bytes();
            self.enclave.access_untrusted(total);
            self.enclave.charge_mac(total);
            cache.tree_mut_raw().rebuild();
            cache.recovery_repin();
        }
        self.ids.rebuild_ring(&self.enclave);
        report
    }

    /// Attacker access to a tree's untrusted state.
    pub fn cache_mut(&mut self, tree: usize) -> &mut SecureCache {
        &mut self.caches[tree]
    }

    /// Shared access for diagnostics.
    pub fn cache(&self, tree: usize) -> &SecureCache {
        &self.caches[tree]
    }
}

impl CounterStore for CounterArea {
    fn fetch(&mut self) -> Result<u64, StoreError> {
        match self.ids.take(&self.enclave) {
            Ok(id) => Ok(id),
            Err(Some(v)) => Err(StoreError::Integrity(v)),
            Err(None) => {
                self.expand()?;
                self.ids.take(&self.enclave).map_err(|_| StoreError::CountersExhausted)
            }
        }
    }

    fn free(&mut self, id: u64) -> Result<(), StoreError> {
        self.ids.release(id, &self.enclave).map_err(StoreError::Integrity)
    }

    fn get(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError> {
        self.check_id(id)?;
        let (tree, slot) = self.locate(id);
        Ok(self.caches[tree].get_counter(slot)?)
    }

    fn bump(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError> {
        self.check_id(id)?;
        let (tree, slot) = self.locate(id);
        Ok(self.caches[tree].bump_counter(slot)?)
    }

    fn live(&self) -> u64 {
        self.ids.live
    }

    fn capacity(&self) -> u64 {
        self.ids.capacity
    }
}

/// A counter value for `id` that is distinct from every value produced at
/// initialization or by any earlier recovery epoch (epoch 0 is reserved
/// for initialization; recovery epochs start at 1 and are folded into
/// both halves of the value).
fn fresh_counter(seed: u64, epoch: u64, id: u64) -> [u8; COUNTER_LEN] {
    let mut x = seed ^ epoch.rotate_left(17) ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let mut v = [0u8; COUNTER_LEN];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v[8..].copy_from_slice(&(id ^ epoch.rotate_left(48)).to_le_bytes());
    v
}

/// "Aria w/o Cache" backend: a flat counter array inside the enclave,
/// subject to hardware secure paging once it outgrows the EPC.
pub struct EpcCounters {
    values: Vec<[u8; COUNTER_LEN]>,
    region: PagedRegionId,
    ids: IdAllocator,
    enclave: Arc<Enclave>,
}

impl EpcCounters {
    /// Allocate the in-enclave counter array.
    pub fn new(capacity: u64, enclave: Arc<Enclave>, seed: u64) -> Self {
        let region = enclave.declare_paged_region(capacity as usize * COUNTER_LEN);
        let mut values = Vec::with_capacity(capacity as usize);
        for i in 0..capacity {
            let mut v = [0u8; COUNTER_LEN];
            let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            v[..8].copy_from_slice(&x.to_le_bytes());
            v[8..].copy_from_slice(&i.to_le_bytes());
            values.push(v);
        }
        EpcCounters { values, region, ids: IdAllocator::new(capacity), enclave }
    }

    #[inline]
    fn touch(&self, id: u64) {
        self.enclave.touch_paged(self.region, id as usize * COUNTER_LEN, COUNTER_LEN);
    }

    /// Recovery for the in-enclave backend: the counters themselves are
    /// EPC-resident (nothing to audit), but the free ring is untrusted
    /// and is rebuilt from the bitmap.
    pub fn recover(&mut self) -> RecoveryReport {
        self.ids.rebuild_ring(&self.enclave);
        RecoveryReport::default()
    }
}

impl CounterStore for EpcCounters {
    fn fetch(&mut self) -> Result<u64, StoreError> {
        match self.ids.take(&self.enclave) {
            Ok(id) => Ok(id),
            Err(Some(v)) => Err(StoreError::Integrity(v)),
            Err(None) => {
                // Grow the in-enclave array (and its paged region).
                let old = self.values.len() as u64;
                let new_cap = old * 2;
                for i in old..new_cap {
                    let mut v = [0u8; COUNTER_LEN];
                    v[..8].copy_from_slice(&i.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
                    v[8..].copy_from_slice(&i.to_le_bytes());
                    self.values.push(v);
                }
                self.enclave.grow_paged(self.region, new_cap as usize * COUNTER_LEN);
                self.ids.grow(new_cap);
                self.ids.take(&self.enclave).map_err(|_| StoreError::CountersExhausted)
            }
        }
    }

    fn free(&mut self, id: u64) -> Result<(), StoreError> {
        self.ids.release(id, &self.enclave).map_err(StoreError::Integrity)
    }

    fn get(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError> {
        // Reject attacker-controlled out-of-range ids (see CounterArea).
        if id as usize >= self.values.len() {
            return Err(StoreError::Integrity(Violation::CounterReuse { counter: id }));
        }
        self.touch(id);
        Ok(self.values[id as usize])
    }

    fn bump(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError> {
        if id as usize >= self.values.len() {
            return Err(StoreError::Integrity(Violation::CounterReuse { counter: id }));
        }
        self.touch(id);
        let v = &mut self.values[id as usize];
        aria_crypto::increment_counter(v);
        Ok(*v)
    }

    fn live(&self) -> u64 {
        self.ids.live
    }

    fn capacity(&self) -> u64 {
        self.ids.capacity
    }
}

/// Enum dispatch over the two backends (avoids generics in the store and
/// keeps bench code monomorphic).
pub enum CounterBackend {
    /// Secure-Cache-managed Merkle-tree counters (full Aria).
    Cached(CounterArea),
    /// Hardware-paged in-enclave array (Aria w/o Cache).
    Epc(EpcCounters),
}

impl CounterStore for CounterBackend {
    fn fetch(&mut self) -> Result<u64, StoreError> {
        match self {
            CounterBackend::Cached(c) => c.fetch(),
            CounterBackend::Epc(c) => c.fetch(),
        }
    }

    fn free(&mut self, id: u64) -> Result<(), StoreError> {
        match self {
            CounterBackend::Cached(c) => c.free(id),
            CounterBackend::Epc(c) => c.free(id),
        }
    }

    fn get(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError> {
        match self {
            CounterBackend::Cached(c) => c.get(id),
            CounterBackend::Epc(c) => c.get(id),
        }
    }

    fn bump(&mut self, id: u64) -> Result<[u8; COUNTER_LEN], StoreError> {
        match self {
            CounterBackend::Cached(c) => c.bump(id),
            CounterBackend::Epc(c) => c.bump(id),
        }
    }

    fn live(&self) -> u64 {
        match self {
            CounterBackend::Cached(c) => c.live(),
            CounterBackend::Epc(c) => c.live(),
        }
    }

    fn capacity(&self) -> u64 {
        match self {
            CounterBackend::Cached(c) => c.capacity(),
            CounterBackend::Epc(c) => c.capacity(),
        }
    }
}

impl CounterBackend {
    /// Audit and repair whichever backend is in use (see
    /// [`CounterArea::recover`] / [`EpcCounters::recover`]).
    pub fn recover(&mut self) -> RecoveryReport {
        match self {
            CounterBackend::Cached(c) => c.recover(),
            CounterBackend::Epc(c) => c.recover(),
        }
    }

    /// The `CounterArea` if this is the cached backend.
    pub fn as_cached(&self) -> Option<&CounterArea> {
        match self {
            CounterBackend::Cached(c) => Some(c),
            CounterBackend::Epc(_) => None,
        }
    }

    /// Mutable variant of [`CounterBackend::as_cached`].
    pub fn as_cached_mut(&mut self) -> Option<&mut CounterArea> {
        match self {
            CounterBackend::Cached(c) => Some(c),
            CounterBackend::Epc(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_crypto::RealSuite;
    use aria_sim::CostModel;

    fn area(capacity: u64) -> CounterArea {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 256 << 20));
        let suite: Arc<dyn CipherSuite> = Arc::new(RealSuite::from_master(&[2u8; 16]));
        CounterArea::new(
            capacity,
            8,
            CacheConfig::with_capacity(1 << 20),
            suite,
            enclave,
            1 << 20,
            9,
        )
        .unwrap()
    }

    #[test]
    fn fetch_returns_distinct_ids() {
        let mut a = area(100);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.fetch().unwrap()));
        }
        assert_eq!(a.live(), 100);
    }

    #[test]
    fn free_then_fetch_recycles() {
        let mut a = area(100);
        let id = a.fetch().unwrap();
        a.free(id).unwrap();
        assert_eq!(a.fetch().unwrap(), id);
    }

    #[test]
    fn double_free_detected() {
        let mut a = area(100);
        let id = a.fetch().unwrap();
        a.free(id).unwrap();
        assert!(matches!(a.free(id), Err(StoreError::Integrity(Violation::CounterReuse { .. }))));
    }

    #[test]
    fn exhaustion_triggers_expansion() {
        let mut a = area(64);
        for _ in 0..64 {
            a.fetch().unwrap();
        }
        assert_eq!(a.trees(), 1);
        let id = a.fetch().unwrap();
        assert_eq!(a.trees(), 2);
        assert_eq!(id, 64);
        // Counters in the second tree work.
        let v = a.get(id).unwrap();
        let b = a.bump(id).unwrap();
        assert_ne!(v, b);
    }

    #[test]
    fn bump_changes_value_monotonically() {
        let mut a = area(16);
        let id = a.fetch().unwrap();
        let v0 = a.get(id).unwrap();
        let v1 = a.bump(id).unwrap();
        let v2 = a.bump(id).unwrap();
        assert_ne!(v0, v1);
        assert_ne!(v1, v2);
        assert_eq!(a.get(id).unwrap(), v2);
    }

    #[test]
    fn recover_reinitializes_only_condemned_counters() {
        let mut a = area(256);
        let ids: Vec<u64> = (0..32).map(|_| a.fetch().unwrap()).collect();
        let survivor = a.get(ids[0]).unwrap();
        // Make the untrusted tree globally consistent, then corrupt the
        // leaf holding a *different* counter.
        a.cache_mut(0).flush();
        let (victim_leaf, _) = a.cache(0).tree().locate_counter(ids[20]);
        a.cache_mut(0).tree_mut_raw().node_mut_raw(victim_leaf)[0] ^= 0xff;
        assert!(a.get(ids[20]).is_err(), "corruption must be detected before recovery");

        let old_victim_region: Vec<[u8; 16]> = a
            .cache(0)
            .tree()
            .counters_in_leaf(victim_leaf)
            .map(|slot| a.cache(0).tree().counter_bytes(slot))
            .collect();
        let report = a.recover();
        assert_eq!(report.merkle_nodes_condemned, 1);
        assert_eq!(report.counters_reinitialized, 8);
        // The survivor's counter is untouched; the victims are fresh.
        assert_eq!(a.get(ids[0]).unwrap(), survivor);
        for (i, slot) in a.cache(0).tree().counters_in_leaf(victim_leaf).enumerate() {
            let new = a.cache(0).tree().counter_bytes(slot);
            assert_ne!(new, old_victim_region[i], "slot {slot} kept a condemned value");
        }
        // And everything verifies again.
        assert!(a.get(ids[20]).is_ok());
    }

    #[test]
    fn recover_rebuilds_tampered_free_ring() {
        let mut a = area(128);
        let ids: Vec<u64> = (0..10).map(|_| a.fetch().unwrap()).collect();
        for &id in &ids[..5] {
            a.free(id).unwrap();
        }
        // Attacker empties the (untrusted) free ring; without recovery the
        // freed ids would leak and fresh ids be burned instead.
        a.ids.free_ring.clear();
        a.recover();
        let mut recycled: Vec<u64> = (0..5).map(|_| a.fetch().unwrap()).collect();
        recycled.sort_unstable();
        assert_eq!(recycled, ids[..5].to_vec());
    }

    #[test]
    fn recover_keeps_cached_dirty_counters() {
        let mut a = area(256);
        let id = a.fetch().unwrap();
        let bumped = a.bump(id).unwrap(); // dirty in the EPC cache only
                                          // Attacker scribbles the untrusted copy of that leaf.
        let (leaf, _) = a.cache(0).tree().locate_counter(id);
        a.cache_mut(0).tree_mut_raw().node_mut_raw(leaf)[1] ^= 0x55;
        let report = a.recover();
        // The EPC-cached copy was ground truth: nothing condemned, the
        // bumped value survives.
        assert_eq!(report.merkle_nodes_condemned, 0);
        assert_eq!(a.get(id).unwrap(), bumped);
    }

    #[test]
    fn epc_backend_basics() {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 16 << 20));
        let mut c = EpcCounters::new(1000, enclave, 5);
        let id = c.fetch().unwrap();
        let v0 = c.get(id).unwrap();
        let v1 = c.bump(id).unwrap();
        assert_ne!(v0, v1);
        c.free(id).unwrap();
        assert_eq!(c.fetch().unwrap(), id);
    }

    #[test]
    fn epc_backend_pages_when_larger_than_epc() {
        // 1 MB EPC, 4 MB of counters: accesses must fault.
        let enclave = Arc::new(Enclave::new(CostModel::default(), 1 << 20));
        let mut c = EpcCounters::new(262_144, Arc::clone(&enclave), 5);
        for i in 0..262_144u64 {
            if i % 64 == 0 {
                c.get(i % 262_144).unwrap_or_default();
            }
        }
        assert!(enclave.total_page_faults() > 0);
    }

    #[test]
    fn epc_backend_grows_on_exhaustion() {
        let enclave = Arc::new(Enclave::new(CostModel::default(), 16 << 20));
        let mut c = EpcCounters::new(4, enclave, 5);
        let ids: Vec<u64> = (0..10).map(|_| c.fetch().unwrap()).collect();
        assert_eq!(ids.len(), 10);
        assert_eq!(c.live(), 10);
    }
}
