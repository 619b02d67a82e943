//! Property tests for the tier index.
//!
//! * Digests: whatever sequence of writes, reads (served cold,
//!   promoting, or hot), upkeep and restarts ran, the root a checkpoint
//!   builds from the digests cached in the index equals the root over a
//!   full verified re-read of both tiers, and a checkpoint with nothing
//!   new to digest reads nothing from the log.
//! * Residency: demotion is exact LRU. The hot set always equals a
//!   model's, and each `maintain()` demotes exactly the model's
//!   least-recently-touched entries that cover the excess, at most
//!   `migrate_batch` of them.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aria_cache::CacheConfig;
use aria_sim::{CostModel, Enclave};
use aria_store::{content_root_of, AriaHash, KvStore, StoreConfig, TieredOptions, TieredStore};
use proptest::prelude::*;

const MASTER: &[u8; 16] = b"tiered-prop-mast";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aria-tiered-props-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hot_store() -> AriaHash {
    let mut cfg = StoreConfig::for_keys(512);
    cfg.cache = CacheConfig::with_capacity(2 << 20);
    cfg.master_key = *MASTER;
    AriaHash::new(cfg, Arc::new(Enclave::new(CostModel::default(), 512 << 20))).unwrap()
}

/// Small enough that a few dozen ops migrate, rotate, compact and
/// checkpoint on their own.
fn opts(dir: &std::path::Path) -> TieredOptions {
    TieredOptions::new(dir.to_path_buf())
        .segment_bytes(4096)
        .hot_budget_bytes(1 << 10)
        .compact_min_dead_ratio(0.3)
        .checkpoint_every(24)
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    /// Read the key this many times in a row: on a cold key the first
    /// read is served from the log, the second promotes, the third hits
    /// the hot region. (The promotion threshold is 2 for a store's
    /// first 1 024 cold reads after open, more than any case here
    /// makes.)
    Get(u8, u8),
    Delete(u8),
    Maintain,
    Checkpoint,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // 48 keys: most puts are overwrites, most gets find a cold key.
    prop_oneof![
        8 => (0u8..48, proptest::collection::vec(any::<u8>(), 0..96)).prop_map(|(k, v)| Op::Put(k, v)),
        6 => (0u8..48, 1u8..4).prop_map(|(k, times)| Op::Get(k, times)),
        2 => (0u8..48).prop_map(Op::Delete),
        3 => Just(Op::Maintain),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Reopen),
    ]
}

fn key_of(id: u8) -> Vec<u8> {
    format!("tier-prop-key-{id:03}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_digest_root_equals_full_reread(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let dir = tmpdir();
        let mut store = TieredStore::open(hot_store(), MASTER, opts(&dir)).unwrap();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(id, v) => {
                    store.put(&key_of(id), &v).unwrap();
                    model.insert(id, v);
                }
                Op::Get(id, times) => {
                    let before = store.tier_stats();
                    for _ in 0..times {
                        let got = store.get(&key_of(id)).unwrap();
                        prop_assert_eq!(got.as_ref(), model.get(&id), "get {}", id);
                    }
                    // Reads move a key between tiers at most once, and
                    // only by a counted promotion.
                    let after = store.tier_stats();
                    let promoted = after.promotions - before.promotions;
                    prop_assert!(promoted <= 1, "get {} x{} promoted {}", id, times, promoted);
                    prop_assert_eq!(after.hot_entries, before.hot_entries + promoted);
                    prop_assert_eq!(after.cold_entries, before.cold_entries - promoted);
                }
                Op::Delete(id) => {
                    let existed = store.delete(&key_of(id)).unwrap();
                    prop_assert_eq!(existed, model.remove(&id).is_some(), "delete {}", id);
                }
                Op::Maintain => {
                    store.maintain().unwrap();
                }
                Op::Checkpoint => {
                    store.force_checkpoint().unwrap();
                }
                Op::Reopen => {
                    let floor = store.checkpoint_epoch();
                    drop(store);
                    store = TieredStore::open(hot_store(), MASTER, opts(&dir).min_epoch(floor))
                        .expect("a clean restart must recover");
                }
            }
            prop_assert_eq!(store.len(), model.len() as u64);
        }

        let sealed = store.force_checkpoint().unwrap();
        let (pairs, reread) = content_root_of(&mut store).unwrap();
        prop_assert_eq!((sealed.pairs, sealed.root), (reread.pairs, reread.digest));
        let mut expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(id, v)| (key_of(*id), v.clone())).collect();
        let mut pairs = pairs;
        expect.sort();
        pairs.sort();
        prop_assert_eq!(pairs, expect);

        // Every digest is cached now: checkpointing again is free of
        // log reads, and seals the same root.
        let reads = store.tier_stats().log_reads;
        let again = store.force_checkpoint().unwrap();
        prop_assert_eq!(store.tier_stats().log_reads, reads);
        prop_assert_eq!((again.pairs, again.root), (sealed.pairs, sealed.root));
        prop_assert_eq!(again.epoch, sealed.epoch + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[derive(Debug, Clone)]
enum LruOp {
    Put(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
    Maintain,
}

fn lru_op_strategy() -> impl Strategy<Value = LruOp> {
    // 24 keys, fewer than the cold-touch window's 64-entry floor: a
    // cold key's first read since open is served from the log, every
    // later one promotes.
    prop_oneof![
        6 => (0u8..24, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| LruOp::Put(k, v)),
        8 => (0u8..24).prop_map(LruOp::Get),
        2 => (0u8..24).prop_map(LruOp::Delete),
        3 => Just(LruOp::Maintain),
    ]
}

/// A hot budget of a few entries, and a batch smaller than most excesses.
const LRU_BUDGET: usize = 320;
const LRU_BATCH: usize = 3;

/// What the store's residency should be: per hot key its last touch and
/// its bytes, and the keys read cold once since open.
#[derive(Default)]
struct LruModel {
    tick: u64,
    hot: HashMap<u8, (u64, usize)>,
    read_cold: HashSet<u8>,
}

impl LruModel {
    fn touch(&mut self, id: u8, bytes: usize) {
        self.tick += 1;
        self.hot.insert(id, (self.tick, bytes));
    }

    /// Demote the least-recently-touched entries until they cover the
    /// excess over the budget, at most `LRU_BATCH` of them.
    fn maintain(&mut self) {
        let total: usize = self.hot.values().map(|(_, bytes)| bytes).sum();
        let excess = total.saturating_sub(LRU_BUDGET);
        let mut by_age: Vec<(u64, u8, usize)> =
            self.hot.iter().map(|(id, (tick, bytes))| (*tick, *id, *bytes)).collect();
        by_age.sort_unstable();
        let mut covered = 0;
        for (_, id, bytes) in by_age.into_iter().take(LRU_BATCH) {
            if covered >= excess {
                break;
            }
            self.hot.remove(&id);
            covered += bytes;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn demotion_is_exact_lru(ops in proptest::collection::vec(lru_op_strategy(), 1..200)) {
        let dir = tmpdir();
        let mut o = opts(&dir).hot_budget_bytes(LRU_BUDGET).checkpoint_every(0);
        o.migrate_batch = LRU_BATCH;
        let mut store = TieredStore::open(hot_store(), MASTER, o).unwrap();
        let mut values: HashMap<u8, Vec<u8>> = HashMap::new();
        let mut model = LruModel::default();
        for op in ops {
            match op {
                LruOp::Put(id, v) => {
                    store.put(&key_of(id), &v).unwrap();
                    model.touch(id, key_of(id).len() + v.len());
                    values.insert(id, v);
                }
                LruOp::Get(id) => {
                    let got = store.get(&key_of(id)).unwrap();
                    prop_assert_eq!(got.as_ref(), values.get(&id), "get {}", id);
                    // A hot key is touched; a live cold key promotes if
                    // it was read cold before.
                    if let Some(v) = values.get(&id) {
                        if model.hot.contains_key(&id) || !model.read_cold.insert(id) {
                            model.touch(id, key_of(id).len() + v.len());
                        }
                    }
                }
                LruOp::Delete(id) => {
                    store.delete(&key_of(id)).unwrap();
                    model.hot.remove(&id);
                    values.remove(&id);
                }
                LruOp::Maintain => {
                    store.maintain().unwrap();
                    model.maintain();
                }
            }
            let hot: Vec<u8> = (0..24).filter(|id| store.is_hot(&key_of(*id))).collect();
            let mut want: Vec<u8> = model.hot.keys().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(hot, want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
