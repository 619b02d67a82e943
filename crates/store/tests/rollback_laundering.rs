//! A rolled-back counter must not come back through a sibling's
//! write-back. The adversary replays an overwritten entry together with
//! its counter leaf and the parent slot that vouched for that leaf. The
//! parent no longer matches its own parent, so any read under it fails,
//! unless a dirty sibling's write-back re-MACs the stale parent bytes
//! and so re-authenticates the rollback.

use std::sync::Arc;

use aria_cache::{CacheConfig, SwapMode, ENTRY_META_BYTES};
use aria_merkle::{MerkleTree, NodeId};
use aria_sim::Enclave;
use aria_store::{entry, AriaHash, KvStore, StoreConfig};

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

/// The untrusted counter tree.
fn tree(s: &AriaHash) -> &MerkleTree {
    s.core().counters.as_cached().expect("Aria scheme").cache(0).tree()
}

/// The leaf holding `key`'s counter, read from its sealed header.
fn counter_leaf(s: &AriaHash, key: &[u8]) -> NodeId {
    let (_, sealed) = s.attack_snapshot(key).expect("key is stored");
    let redptr = entry::parse_header(&sealed).expect("header").redptr;
    tree(s).locate_counter(redptr).0
}

fn flush(s: &mut AriaHash) {
    s.core_mut().counters.as_cached_mut().expect("Aria scheme").flush();
}

#[test]
fn sibling_writeback_does_not_launder_a_rolled_back_counter() {
    let mut cfg = StoreConfig::for_keys(64);
    let node = cfg.arity * 16 + ENTRY_META_BYTES;
    cfg.cache = CacheConfig {
        capacity_bytes: 6 * node,
        pinned_levels: 1,
        swap_mode: SwapMode::Always,
        ..CacheConfig::default()
    };
    let arity = cfg.arity;
    let mut s = AriaHash::new(cfg, Arc::new(Enclave::with_default_epc())).unwrap();
    for i in 0..=arity {
        s.put(&key(i), b"value-0").unwrap();
    }
    let target = key(0);
    let leaf = counter_leaf(&s, &target);
    let parent = tree(&s).parent(leaf).expect("leaf below the top");
    let sibling = (1..=arity)
        .map(key)
        .find(|k| {
            let l = counter_leaf(&s, k);
            l != leaf && tree(&s).parent(l) == Some(parent)
        })
        .expect("a key whose counter shares the parent");

    s.put(&target, b"value-1").unwrap();
    flush(&mut s);
    let stale_entry = s.attack_snapshot(&target).unwrap();
    let stale_leaf = tree(&s).node(leaf).to_vec();
    let stale_parent = tree(&s).node(parent).to_vec();
    s.put(&target, b"value-2").unwrap();
    flush(&mut s);
    s.put(&sibling, b"value-3").unwrap(); // its counter leaf is dirty in the cache

    assert!(s.attack_replay(&stale_entry));
    let area = s.core_mut().counters.as_cached_mut().unwrap();
    area.cache_mut(0).tree_mut_raw().write_node(leaf, &stale_leaf);
    area.cache_mut(0).tree_mut_raw().write_node(parent, &stale_parent);
    flush(&mut s); // evicts the sibling's leaf

    match s.get(&target) {
        Err(e) => assert!(e.is_integrity_violation(), "{e:?}"),
        Ok(v) => panic!("rollback served: {:?}", v.map(String::from_utf8)),
    }
    // The honest write is not lost: its leaf stayed in the EPC.
    assert_eq!(s.get(&sibling).unwrap().as_deref(), Some(&b"value-3"[..]));
}
