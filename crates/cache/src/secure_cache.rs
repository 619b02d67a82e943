//! The Secure Cache (paper §IV): a software-managed, fine-grained EPC
//! cache of Merkle-tree nodes.
//!
//! Instead of letting SGX hardware page 4 KB mixtures of hot and cold
//! metadata, Secure Cache tracks *individual Merkle-tree nodes*:
//!
//! * a **hit** on a leaf node yields the trusted counter with no Merkle
//!   verification at all — KV-pair-granularity protection;
//! * a **miss** verifies the node bottom-up, stopping at the *first cached
//!   ancestor* (cached nodes are protected by SGX and act as roots of
//!   sub-trees), then caches the requested node. Only leaves are swapped
//!   in, so below the pinned levels that ancestor is a pinned node: a
//!   swapping miss always walks up to the pinned floor;
//! * **eviction** of a dirty node writes its bytes back to untrusted
//!   memory and publishes its fresh MAC into the first cached ancestor,
//!   re-MACing the uncached ancestors en route, so that the newest state
//!   of every leaf is always anchored in the EPC. Those ancestors are
//!   verified first: a propagation rewrites only bytes it verified;
//! * the top-K levels are **pinned** (§IV-E), bounding worst-case
//!   verification depth at `h - k - 1`;
//! * when the observed hit ratio drops below a threshold the cache
//!   **stops swapping** (§IV-E) and falls back to pinning: verified nodes
//!   are pinned breadth-first until the budget is full, and the path a
//!   miss verified is held until another leaf is accessed, so reading and
//!   then bumping one counter verifies it once.
//!
//! Every operation charges simulated cycles to the shared [`Enclave`]:
//! node verification pays an untrusted read, a copy into the EPC and a
//! CMAC per level walked; hits pay a map lookup plus (for LRU only) the
//! recency-update tax; write-backs pay untrusted writes — plus a CTR
//! encryption when the "swap out without encryption" optimization is
//! disabled, modelling what hardware EWB paging would force.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use aria_merkle::{MerkleTree, NodeId, SLOT};
use aria_sim::Enclave;
use aria_telemetry::{CacheTelemetry, MerkleTelemetry};

use crate::config::{CacheConfig, EvictionPolicy, SwapMode, ENTRY_META_BYTES};

/// Integrity violation surfaced during verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// The node whose MAC failed to verify.
    pub node: NodeId,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Merkle integrity violation at level {} index {}",
            self.node.level, self.node.index
        )
    }
}

impl std::error::Error for IntegrityViolation {}

/// Errors constructing a Secure Cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The enclave could not reserve the requested capacity.
    EpcExhausted {
        /// Requested capacity in bytes.
        requested: usize,
        /// EPC bytes still available.
        available: usize,
    },
    /// Capacity cannot hold even one swappable entry.
    CapacityTooSmall {
        /// Requested capacity in bytes.
        capacity: usize,
        /// Minimum required for this tree geometry.
        required: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::EpcExhausted { requested, available } => {
                write!(f, "EPC exhausted: secure cache wants {requested} bytes, {available} free")
            }
            CacheError::CapacityTooSmall { capacity, required } => {
                write!(f, "secure cache capacity {capacity} below minimum {required}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Monotonic Secure Cache statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served from a cached node.
    pub hits: u64,
    /// Accesses that required verification.
    pub misses: u64,
    /// Swappable entries inserted.
    pub inserts: u64,
    /// Victims evicted.
    pub evictions: u64,
    /// Victim write-backs to untrusted memory.
    pub writebacks: u64,
    /// Clean victims discarded without write-back (§IV-C).
    pub clean_discards: u64,
    /// Total Merkle levels walked during verifications.
    pub verify_levels: u64,
    /// MAC propagations performed on eviction/update paths.
    pub propagations: u64,
}

impl CacheStats {
    /// Lifetime hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    data: Box<[u8]>,
    dirty: bool,
    pinned: bool,
    stamp: u64,
}

/// Verified copies of consecutive tree nodes, lowest first: a node and its
/// uncached ancestors, up to (not including) the trusted anchor they were
/// verified against, a cached node or the enclave root.
struct Path {
    ids: Vec<NodeId>,
    bytes: Vec<u8>,
    node_size: usize,
}

impl Path {
    fn new(node_size: usize) -> Self {
        Path { ids: Vec::new(), bytes: Vec::new(), node_size }
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.bytes.clear();
    }

    fn push(&mut self, id: NodeId, bytes: &[u8]) {
        self.ids.push(id);
        self.bytes.extend_from_slice(bytes);
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn bottom(&self) -> Option<NodeId> {
        self.ids.first().copied()
    }

    fn node(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.node_size..(i + 1) * self.node_size]
    }

    fn node_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.bytes[i * self.node_size..(i + 1) * self.node_size]
    }
}

/// How a [`SecureCache::fetch_leaf`] counts in the hit ratio.
#[derive(Clone, Copy, PartialEq)]
enum Access {
    /// Served by a cache entry.
    Hit,
    /// Verified.
    Miss,
    /// Served by the held path: the same counter access as the miss that
    /// verified it (a PUT's bump after its read), so not counted again.
    Reread,
}

/// The Secure Cache over one Merkle tree.
pub struct SecureCache {
    tree: MerkleTree,
    enclave: Arc<Enclave>,
    cfg: CacheConfig,
    entries: HashMap<NodeId, Entry>,
    queue: VecDeque<(NodeId, u64)>,
    tick: u64,
    /// EPC bytes consumed (node data + per-entry metadata, pinned included).
    used_bytes: usize,
    entry_bytes: usize,
    /// Lowest wholly pinned level (h = nothing pinned besides the enclave
    /// root). After swapping stops, a prefix of the level below may be
    /// pinned too.
    pinned_floor: u32,
    swapping: bool,
    /// The leaf a miss verified but did not cache, with its verified
    /// ancestors. It lives in the room [`SecureCache::extend_pinning`]
    /// keeps free, so a read and a bump of one counter verify once. Every
    /// write to it is written through, so it always equals the untrusted
    /// bytes and can be dropped at any time.
    held: Path,
    window_hits: u64,
    window_accesses: u64,
    /// Consecutive windows below the stop-swap threshold.
    low_windows: u32,
    stats: CacheStats,
    /// Optional telemetry sinks (untrusted state; observability only).
    tele: Option<Arc<CacheTelemetry>>,
    tele_merkle: Option<Arc<MerkleTelemetry>>,
}

impl SecureCache {
    /// Build a Secure Cache over `tree`, reserving `cfg.capacity_bytes` of
    /// EPC from `enclave` and pinning the configured top levels.
    pub fn new(
        tree: MerkleTree,
        enclave: Arc<Enclave>,
        cfg: CacheConfig,
    ) -> Result<Self, CacheError> {
        let entry_bytes = tree.node_size() + ENTRY_META_BYTES;
        let min_capacity = entry_bytes * 2;
        if cfg.capacity_bytes < min_capacity {
            return Err(CacheError::CapacityTooSmall {
                capacity: cfg.capacity_bytes,
                required: min_capacity,
            });
        }
        enclave.epc_alloc(cfg.capacity_bytes).map_err(|e| CacheError::EpcExhausted {
            requested: cfg.capacity_bytes,
            available: e.available,
        })?;

        let mut cache = SecureCache {
            pinned_floor: tree.height(),
            swapping: !matches!(cfg.swap_mode, SwapMode::Never),
            held: Path::new(tree.node_size()),
            tree,
            enclave,
            entries: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
            used_bytes: 0,
            entry_bytes,
            window_hits: 0,
            window_accesses: 0,
            low_windows: 0,
            stats: CacheStats::default(),
            tele: None,
            tele_merkle: None,
            cfg,
        };

        // Pin the requested top levels, highest first, clamped to what
        // fits: pinning must leave room for at least one swappable entry.
        let want = cache.cfg.pinned_levels.min(cache.tree.height().saturating_sub(1));
        for k in 0..want {
            let level = cache.tree.height() - 1 - k;
            if !cache.try_pin_level(level) {
                break;
            }
        }

        // In Never mode, immediately extend pinning as far as capacity
        // allows (the stop-swap configuration).
        if matches!(cache.cfg.swap_mode, SwapMode::Never) {
            cache.extend_pinning();
        }
        Ok(cache)
    }

    /// Attach telemetry sinks: `cache` records this cache's activity and
    /// `merkle` is threaded through to the underlying tree (hash ops) and
    /// the verification walk (verified nodes). Records a swap-on
    /// transition if swapping is currently enabled, so the transition
    /// counters reflect the state the observer started from.
    pub fn set_telemetry(&mut self, cache: Arc<CacheTelemetry>, merkle: Arc<MerkleTelemetry>) {
        if self.swapping {
            cache.swap_starts.inc();
        }
        self.tree.set_telemetry(Arc::clone(&merkle));
        self.tele = Some(cache);
        self.tele_merkle = Some(merkle);
    }

    fn level_pin_cost(&self, level: u32) -> usize {
        self.tree.nodes_in_level(level) as usize * self.entry_bytes
    }

    /// Pin an entire level if it fits (leaving one swappable slot). The
    /// tree is trusted at pin time: this runs at secure initialization and
    /// after a recovery rebuild.
    fn try_pin_level(&mut self, level: u32) -> bool {
        if level < self.pinned_floor && level + 1 != self.pinned_floor {
            // Pin strictly contiguously from the top.
            return false;
        }
        if level >= self.pinned_floor {
            return true; // already pinned
        }
        let cost = self.level_pin_cost(level);
        if self.used_bytes + cost + self.entry_bytes > self.cfg.capacity_bytes {
            return false;
        }
        for index in 0..self.tree.nodes_in_level(level) {
            let id = NodeId { level, index };
            let data: Box<[u8]> = self.tree.node(id).into();
            self.entries.insert(id, Entry { data, dirty: false, pinned: true, stamp: 0 });
        }
        self.used_bytes += cost;
        self.pinned_floor = level;
        true
    }

    /// Pin verified nodes breadth-first below the pinned floor until the
    /// budget is full: whole levels while they fit, then a prefix of the
    /// next level. Room is kept for one verification path (a leaf and its
    /// unpinned ancestors, at most `pinned_floor` nodes), which the held
    /// path uses. Leaves are never pinned. Each node is verified against
    /// its pinned parent first; one that fails is not pinned and ends the
    /// fill, so reads under it keep failing verification.
    ///
    /// The paper pins whole levels only; filling the budget is a
    /// deliberate departure (DESIGN.md §8).
    fn extend_pinning(&mut self) {
        // A held path may overlap the nodes about to be pinned.
        self.held.clear();
        let node_size = self.tree.node_size();
        while self.pinned_floor > 1 {
            let level = self.pinned_floor - 1;
            for index in 0..self.tree.nodes_in_level(level) {
                let id = NodeId { level, index };
                if self.entries.contains_key(&id) {
                    continue;
                }
                let reserve = self.pinned_floor as usize * self.entry_bytes;
                if self.used_bytes + self.entry_bytes + reserve > self.cfg.capacity_bytes {
                    return;
                }
                self.enclave.access_untrusted(node_size);
                self.enclave.charge_mac(node_size);
                if self.verify_against_parent(id, &self.tree.mac_of(id)) != Ok(true) {
                    return;
                }
                let data: Box<[u8]> = self.tree.node(id).into();
                self.entries.insert(id, Entry { data, dirty: false, pinned: true, stamp: 0 });
                self.used_bytes += self.entry_bytes;
            }
            self.pinned_floor = level;
        }
    }

    /// Compare a node's MAC against its authoritative parent slot (cached
    /// copy if cached, untrusted bytes otherwise; enclave root for the top
    /// node).
    fn verify_against_parent(
        &self,
        id: NodeId,
        mac: &[u8; 16],
    ) -> Result<bool, IntegrityViolation> {
        // Returns Ok(true) if the anchor was *trusted* (cached parent or
        // root), Ok(false) if it matched an untrusted parent (caller must
        // keep walking).
        match self.tree.parent(id) {
            None => {
                if *mac != self.tree.root() {
                    return Err(IntegrityViolation { node: id });
                }
                Ok(true)
            }
            Some(parent) => {
                let slot = self.tree.slot_in_parent(id);
                if let Some(entry) = self.entries.get(&parent) {
                    self.enclave.access_epc(SLOT);
                    let stored = &entry.data[slot * SLOT..(slot + 1) * SLOT];
                    if stored != mac {
                        return Err(IntegrityViolation { node: id });
                    }
                    Ok(true)
                } else {
                    let stored = self.tree.stored_child_mac(parent, slot);
                    if stored != *mac {
                        return Err(IntegrityViolation { node: id });
                    }
                    Ok(false)
                }
            }
        }
    }

    /// Verify `id` and its uncached ancestors up to the first trusted
    /// anchor, copying each node into `path` before MACing the copy.
    /// Charges one untrusted read, one EPC copy and one CMAC per level
    /// walked; on error `path` holds the levels walked.
    fn verify_path(&mut self, id: NodeId, path: &mut Path) -> Result<(), IntegrityViolation> {
        path.clear();
        let node_size = self.tree.node_size();
        let mut cur = id;
        loop {
            self.enclave.access_untrusted(node_size);
            self.enclave.access_epc(node_size);
            self.enclave.charge_mac(node_size);
            path.push(cur, self.tree.node(cur));
            let mac = self.tree.mac_of_bytes(path.node(path.len() - 1));
            let anchored = self.verify_against_parent(cur, &mac)?;
            if let Some(t) = &self.tele_merkle {
                t.verified_nodes.inc();
            }
            if anchored {
                return Ok(());
            }
            cur = self.tree.parent(cur).expect("untrusted anchor implies a parent");
        }
    }

    /// Publish `mac`, the fresh MAC of `node`, in its parent and carry the
    /// change up: through `path[from..]`, the verified copies of the
    /// uncached ancestors of `node` (each rewritten in untrusted memory
    /// and re-MACed), into the trusted anchor above them, a cached node
    /// (marked dirty) or the enclave root. Only bytes verified into `path`
    /// are rewritten; nothing is read back from untrusted memory. Keeps the
    /// invariant that the newest state of every leaf is anchored in the
    /// EPC.
    fn propagate_mac_up(
        &mut self,
        mut node: NodeId,
        mut mac: [u8; 16],
        path: &mut Path,
        from: usize,
    ) {
        let node_size = self.tree.node_size();
        for i in from..path.len() {
            self.stats.propagations += 1;
            let parent = path.ids[i];
            debug_assert_eq!(self.tree.parent(node), Some(parent));
            let slot = self.tree.slot_in_parent(node);
            self.enclave.access_epc(SLOT);
            path.node_mut(i)[slot * SLOT..(slot + 1) * SLOT].copy_from_slice(&mac);
            self.enclave.access_untrusted(SLOT);
            self.tree.write_node(parent, path.node(i));
            self.enclave.charge_mac(node_size);
            mac = self.tree.mac_of_bytes(path.node(i));
            node = parent;
        }
        self.stats.propagations += 1;
        match self.tree.parent(node) {
            None => self.tree.set_root(mac),
            Some(parent) => {
                let slot = self.tree.slot_in_parent(node);
                let entry = self
                    .entries
                    .get_mut(&parent)
                    .expect("a verified path ends below a cached node");
                self.enclave.access_epc(SLOT);
                entry.data[slot * SLOT..(slot + 1) * SLOT].copy_from_slice(&mac);
                entry.dirty = true;
            }
        }
    }

    /// Pop the oldest live swappable entry off the queue.
    fn next_victim(&mut self) -> Option<(NodeId, u64)> {
        while let Some((id, stamp)) = self.queue.pop_front() {
            if self.entries.get(&id).is_some_and(|e| !e.pinned && e.stamp == stamp) {
                return Some((id, stamp));
            }
        }
        None
    }

    /// Evict the cached node `id`. A dirty victim is written back and its
    /// MAC carried up through its uncached ancestors, which are verified
    /// first: a write-back must not re-authenticate untrusted bytes it
    /// never checked (a rolled-back sibling would be laundered). If they
    /// fail, the victim stays cached and the violation is returned.
    fn evict(&mut self, id: NodeId) -> Result<(), IntegrityViolation> {
        let node_size = self.tree.node_size();
        let dirty = self.entries.get(&id).is_some_and(|e| e.dirty);
        let mut ancestors = Path::new(node_size);
        if dirty {
            if let Some(parent) = self.tree.parent(id).filter(|p| !self.entries.contains_key(p)) {
                self.verify_path(parent, &mut ancestors)?;
            }
        }
        let entry = self.entries.remove(&id).expect("victim is cached");
        self.used_bytes -= self.entry_bytes;
        self.stats.evictions += 1;
        if let Some(t) = &self.tele {
            t.evictions.inc();
        }
        if dirty {
            // Write back (plaintext unless the semantic optimization
            // is disabled, in which case pay the encryption the
            // hardware path would force) and publish the fresh MAC.
            if !self.cfg.swap_without_encryption {
                self.enclave.charge_crypt(node_size);
            }
            self.enclave.access_untrusted(node_size);
            self.tree.write_node(id, &entry.data);
            self.stats.writebacks += 1;
            if let Some(t) = &self.tele {
                t.writebacks.inc();
                t.swap_bytes_out.add(node_size as u64);
            }
            self.enclave.charge_mac(node_size);
            let mac = self.tree.mac_of_bytes(&entry.data);
            self.propagate_mac_up(id, mac, &mut ancestors, 0);
        } else if self.cfg.skip_clean_writeback {
            // Clean: untrusted copy already matches; discard.
            self.stats.clean_discards += 1;
            if let Some(t) = &self.tele {
                t.clean_discards.inc();
            }
        } else {
            // Model EWB-style forced write-back of clean pages.
            if !self.cfg.swap_without_encryption {
                self.enclave.charge_crypt(node_size);
            }
            self.enclave.access_untrusted(node_size);
            self.tree.write_node(id, &entry.data);
            self.stats.writebacks += 1;
            if let Some(t) = &self.tele {
                t.writebacks.inc();
                t.swap_bytes_out.add(node_size as u64);
            }
        }
        Ok(())
    }

    /// Evict until one more swappable entry fits. `Ok(false)` if nothing
    /// is left to evict; a write-back that fails verification is returned
    /// and its victim stays cached.
    fn make_room(&mut self) -> Result<bool, IntegrityViolation> {
        while self.used_bytes + self.entry_bytes > self.cfg.capacity_bytes {
            let Some(victim) = self.next_victim() else { return Ok(false) };
            if let Err(e) = self.evict(victim.0) {
                self.queue.push_front(victim);
                return Err(e);
            }
        }
        Ok(true)
    }

    /// Evict every swappable entry it can. A victim whose write-back fails
    /// verification stays cached and queued: it is the only trusted copy
    /// of its leaf.
    fn evict_all(&mut self) {
        let mut kept = VecDeque::new();
        while let Some(victim) = self.next_victim() {
            if self.evict(victim.0).is_err() {
                kept.push_back(victim);
            }
        }
        self.queue = kept;
    }

    fn insert_entry(&mut self, id: NodeId, data: Box<[u8]>) {
        self.tick += 1;
        let stamp = self.tick;
        self.enclave.access_epc(self.tree.node_size());
        self.entries.insert(id, Entry { data, dirty: false, pinned: false, stamp });
        self.queue.push_back((id, stamp));
        self.used_bytes += self.entry_bytes;
        self.stats.inserts += 1;
        if let Some(t) = &self.tele {
            t.inserts.inc();
            t.swap_bytes_in.add(self.tree.node_size() as u64);
        }
    }

    /// Read counter `slot` of a trusted copy of `leaf`, and leave that
    /// copy in a cache entry or at the bottom of the held path. A miss
    /// verifies the leaf and its uncached ancestors; the leaf is then
    /// swapped in, or, when the cache is not swapping, the verified path is
    /// held. An access to any other leaf drops the held path.
    fn fetch_leaf(
        &mut self,
        leaf: NodeId,
        slot: usize,
    ) -> Result<(Access, [u8; SLOT]), IntegrityViolation> {
        let range = slot * SLOT..(slot + 1) * SLOT;
        let mut ctr = [0u8; SLOT];
        if self.held.bottom().is_some_and(|h| h != leaf) {
            self.held.clear();
        }
        if let Some(entry) = self.entries.get(&leaf) {
            ctr.copy_from_slice(&entry.data[range]);
            self.enclave.access_epc(SLOT);
            self.touch_policy(leaf);
            return Ok((Access::Hit, ctr));
        }
        if self.held.bottom() == Some(leaf) {
            ctr.copy_from_slice(&self.held.node(0)[range]);
            self.enclave.access_epc(SLOT);
            return Ok((Access::Reread, ctr));
        }
        // Room is made before verifying: a write-back rewrites ancestors
        // this leaf may share, and a held path must match untrusted bytes.
        let room = self.swapping && self.make_room()?;
        let mut path = std::mem::replace(&mut self.held, Path::new(self.tree.node_size()));
        let verified = self.verify_path(leaf, &mut path);
        self.stats.verify_levels += path.len() as u64;
        match verified {
            Ok(()) => {
                if let Some(t) = &self.tele {
                    t.verify_depth.observe(path.len() as u64);
                }
                ctr.copy_from_slice(&path.node(0)[range]);
                if room {
                    self.insert_entry(leaf, path.node(0).into());
                    path.clear();
                }
            }
            Err(_) => path.clear(),
        }
        self.held = path;
        verified.map(|()| (Access::Miss, ctr))
    }

    /// Overwrite counter `slot` of the trusted copy of `leaf` that
    /// [`SecureCache::fetch_leaf`] left, and say whether it was cached. A
    /// cached leaf is marked dirty (a pinned dirty node is never evicted;
    /// it *is* the EPC anchor). A held leaf is written through: to
    /// untrusted memory, with its new MAC carried up the held path to the
    /// pinned anchor.
    fn write_slot(&mut self, leaf: NodeId, slot: usize, value: &[u8; SLOT]) -> bool {
        if let Some(entry) = self.entries.get_mut(&leaf) {
            entry.data[slot * SLOT..(slot + 1) * SLOT].copy_from_slice(value);
            entry.dirty = true;
            return true;
        }
        debug_assert_eq!(self.held.bottom(), Some(leaf));
        let mut path = std::mem::replace(&mut self.held, Path::new(self.tree.node_size()));
        path.node_mut(0)[slot * SLOT..(slot + 1) * SLOT].copy_from_slice(value);
        self.enclave.access_untrusted(SLOT);
        self.tree.write_node(leaf, path.node(0));
        self.enclave.charge_mac(self.tree.node_size());
        let mac = self.tree.mac_of_bytes(path.node(0));
        self.propagate_mac_up(leaf, mac, &mut path, 1);
        self.held = path;
        false
    }

    /// Count a fetch in the hit ratio. Runs last in every public access:
    /// it may stop swapping, which evicts the leaf just fetched.
    fn account(&mut self, fetched: Result<(Access, [u8; SLOT]), IntegrityViolation>) {
        match fetched {
            Ok((Access::Reread, _)) => {}
            Ok((access, _)) => self.record_access(access == Access::Hit),
            Err(_) => self.record_access(false),
        }
    }

    fn record_access(&mut self, hit: bool) {
        self.window_accesses += 1;
        if hit {
            self.window_hits += 1;
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        if let Some(t) = &self.tele {
            if hit {
                t.hits.inc();
            } else {
                t.misses.inc();
            }
        }
        if matches!(self.cfg.swap_mode, SwapMode::Auto)
            && self.swapping
            && self.window_accesses >= self.cfg.stop_swap_window
        {
            let ratio = self.window_hits as f64 / self.window_accesses as f64;
            if ratio < self.cfg.stop_swap_threshold {
                // One cold window is normal after a working-set shift;
                // only a sustained low hit ratio (a genuinely uniform
                // access pattern) disables swapping.
                self.low_windows += 1;
                if self.low_windows >= 3 {
                    self.stop_swapping();
                }
            } else {
                self.low_windows = 0;
            }
            self.window_hits = 0;
            self.window_accesses = 0;
        }
    }

    /// Stop swapping: flush swappable entries and fill the budget with
    /// pinned nodes (§IV-E "Stopping Swap"; see
    /// [`SecureCache::extend_pinning`]).
    fn stop_swapping(&mut self) {
        self.swapping = false;
        if let Some(t) = &self.tele {
            t.swap_stops.inc();
        }
        // Evict everything swappable (dirty state is propagated).
        self.evict_all();
        self.extend_pinning();
    }

    fn touch_policy(&mut self, id: NodeId) {
        if self.cfg.policy == EvictionPolicy::Lru {
            // The recency update is real work in EPC memory — the "hit
            // penalty" Figure 12 measures.
            self.enclave.charge(self.enclave.cost().lru_hit_update);
            if let Some(entry) = self.entries.get_mut(&id) {
                if !entry.pinned {
                    self.tick += 1;
                    entry.stamp = self.tick;
                    self.queue.push_back((id, self.tick));
                }
            }
        }
    }

    // --- public API --------------------------------------------------------

    /// Fetch the trusted value of counter `idx`, verifying as needed.
    pub fn get_counter(&mut self, idx: u64) -> Result<[u8; SLOT], IntegrityViolation> {
        let (leaf, slot) = self.tree.locate_counter(idx);
        self.enclave.charge(self.enclave.cost().cache_lookup);
        let fetched = self.fetch_leaf(leaf, slot);
        self.account(fetched);
        fetched.map(|(_, ctr)| ctr)
    }

    /// Overwrite counter `idx` with `value`, maintaining the EPC anchor
    /// invariant.
    pub fn update_counter(
        &mut self,
        idx: u64,
        value: &[u8; SLOT],
    ) -> Result<(), IntegrityViolation> {
        let (leaf, slot) = self.tree.locate_counter(idx);
        self.enclave.charge(self.enclave.cost().cache_lookup);
        let fetched = self.fetch_leaf(leaf, slot);
        if fetched.is_ok() {
            self.write_slot(leaf, slot, value);
        }
        self.account(fetched);
        fetched.map(|_| ())
    }

    /// Read-increment-write a counter, returning the **new** value. This
    /// is the Put-path primitive: the counter is bumped before every
    /// re-encryption so the CTR keystream never repeats. Right after a
    /// [`SecureCache::get_counter`] of the same leaf the bump verifies
    /// nothing: the leaf is cached or held.
    pub fn bump_counter(&mut self, idx: u64) -> Result<[u8; SLOT], IntegrityViolation> {
        let (leaf, slot) = self.tree.locate_counter(idx);
        self.enclave.charge(self.enclave.cost().cache_lookup);
        let fetched = self.fetch_leaf(leaf, slot).map(|(access, mut ctr)| {
            aria_crypto::increment_counter(&mut ctr);
            if self.write_slot(leaf, slot, &ctr) {
                self.enclave.access_epc(SLOT);
            }
            (access, ctr)
        });
        self.account(fetched);
        fetched.map(|(_, ctr)| ctr)
    }

    /// Flush every swappable entry (write-backs + propagation), leaving
    /// only pinned levels cached, and drop the held path. After a flush
    /// the untrusted tree plus root is fully self-consistent except under
    /// pinned dirty nodes.
    pub fn flush(&mut self) {
        self.held.clear();
        self.evict_all();
        // Also publish pinned dirty nodes so the untrusted tree + root is
        // globally consistent (used by tests and by tenant shutdown).
        let mut pinned_dirty: Vec<NodeId> =
            self.entries.iter().filter(|(_, e)| e.pinned && e.dirty).map(|(id, _)| *id).collect();
        // Lowest levels first so parents absorb child MACs before being
        // written back themselves.
        pinned_dirty.sort();
        // Pinned nodes sit under pinned parents: nothing to verify.
        let mut no_ancestors = Path::new(self.tree.node_size());
        for id in pinned_dirty {
            let data = {
                let entry = self.entries.get_mut(&id).expect("pinned entry");
                entry.dirty = false;
                entry.data.clone()
            };
            self.enclave.access_untrusted(self.tree.node_size());
            self.tree.write_node(id, &data);
            self.enclave.charge_mac(self.tree.node_size());
            let mac = self.tree.mac_of_bytes(&data);
            // Propagation may re-dirty an upper pinned level; the sort
            // guarantees we visit it afterwards and clean it again.
            self.propagate_mac_up(id, mac, &mut no_ancestors, 0);
            if let Some(e) = self.entries.get_mut(&id) {
                e.dirty = false;
            }
        }
        // Clear any re-dirtied flags bottom-up one more time.
        let redirty: Vec<NodeId> =
            self.entries.iter().filter(|(_, e)| e.pinned && e.dirty).map(|(id, _)| *id).collect();
        if !redirty.is_empty() {
            self.flush();
        }
    }

    // --- recovery -----------------------------------------------------------

    /// Dump every cached node's EPC bytes into untrusted memory **without**
    /// verification or MAC propagation, empty the cache (held path
    /// included), and return the ids of the dumped nodes.
    ///
    /// This is the first step of shard recovery after an integrity
    /// violation: the untrusted tree may be arbitrarily corrupt and
    /// possibly MAC-inconsistent with the enclave root, so normal
    /// flush/propagation (which verifies uncached ancestors) could fail.
    /// The returned set is exactly the nodes whose untrusted bytes now
    /// come from EPC-protected copies — ground truth the subsequent
    /// [`aria_merkle::MerkleTree::audit_leaves`] pass may trust besides
    /// the root itself. After the audit repairs and rebuilds the tree,
    /// call [`SecureCache::recovery_repin`] to restore level pinning.
    pub fn recovery_drain(&mut self) -> Vec<NodeId> {
        self.held.clear();
        let node_size = self.tree.node_size();
        let entries = std::mem::take(&mut self.entries);
        let mut trusted: Vec<NodeId> = Vec::with_capacity(entries.len());
        for (id, entry) in entries {
            self.enclave.access_untrusted(node_size);
            self.tree.write_node(id, &entry.data);
            trusted.push(id);
        }
        self.queue.clear();
        self.used_bytes = 0;
        self.pinned_floor = self.tree.height();
        self.window_hits = 0;
        self.window_accesses = 0;
        self.low_windows = 0;
        trusted
    }

    /// Re-pin the configured top levels from the untrusted tree after a
    /// recovery rebuild, then, if the cache is not swapping, fill the
    /// budget again. Only call this once the tree is globally
    /// self-consistent (the recovery pass just recomputed every inner
    /// node and the enclave root from the repaired leaves), because
    /// pinning the top levels copies untrusted bytes into the EPC trusting
    /// them.
    pub fn recovery_repin(&mut self) {
        let want = self.cfg.pinned_levels.min(self.tree.height().saturating_sub(1));
        for k in 0..want {
            let level = self.tree.height() - 1 - k;
            if !self.try_pin_level(level) {
                break;
            }
        }
        if !self.swapping {
            self.extend_pinning();
        }
    }

    // --- introspection ------------------------------------------------------

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Whether the cache is currently swapping nodes.
    pub fn swapping(&self) -> bool {
        self.swapping
    }

    /// The lowest wholly pinned level (`height()` if nothing is pinned).
    pub fn pinned_floor(&self) -> u32 {
        self.pinned_floor
    }

    /// EPC bytes currently used by entries and metadata.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Configured capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.cfg.capacity_bytes
    }

    /// The underlying Merkle tree (untrusted state).
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// Attacker-side mutable access to the untrusted tree. Drops the held
    /// path, so the next access re-verifies what the caller may have
    /// changed.
    pub fn tree_mut_raw(&mut self) -> &mut MerkleTree {
        self.held.clear();
        &mut self.tree
    }

    /// The enclave costs are charged to.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Number of cached entries (pinned + swappable).
    pub fn cached_entries(&self) -> usize {
        self.entries.len()
    }
}

impl Drop for SecureCache {
    fn drop(&mut self) {
        self.enclave.epc_free(self.cfg.capacity_bytes);
    }
}
