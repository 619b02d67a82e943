//! One verified transfer, the state move re-sync and resharding share
//! (DESIGN.md §19). A caller drives it as a loop over its steps:
//!
//! 1. [`Transfer::copy_chunk`], repeated: one export chunk per source
//!    slot-lock hold, so the source keeps serving between chunks. Only
//!    each sent key's [`pair_digest_keyed`] is remembered, never its value.
//! 2. The caller's write fence, then [`Transfer::delta`]: one more export
//!    in a **single** hold — the barrier snapshot — re-sends the pairs
//!    whose digest changed and deletes the keys that vanished.
//! 3. [`Transfer::verify`]: each target recomputes the barrier's
//!    [`ContentRoot`] from its own verified reads, or the transfer fails.
//! 4. The caller's commit or abort, before it lowers the fence.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::btree::KvPair;
use crate::reshard::NUM_ROUTING_SLOTS;
use crate::resync::{content_root_from_digests, pair_digest_keyed, ContentRoot};
use crate::sharded::{with_slot, Inner, ShardHealth};
use crate::{KvStore, StoreError};

/// Pairs per export chunk and per write hold.
pub(crate) const CHUNK_PAIRS: usize = 256;

/// The routing slots whose keys a transfer moves.
pub(crate) type SlotFilter = [bool; NUM_ROUTING_SLOTS];

/// A pair with its content digest.
type Digested = (KvPair, [u8; 16]);

/// One export chunk of `s`, keeping the pairs on `filter`'s slots, each
/// digested (and charged) inside `s`'s enclave.
pub(crate) fn digested<S: KvStore + Send + 'static>(
    s: &mut S,
    inner: &Inner<S>,
    filter: &SlotFilter,
    cursor: u64,
) -> Result<(Vec<Digested>, Option<u64>), StoreError> {
    let (pairs, next) = s.export_chunk(cursor, CHUNK_PAIRS)?;
    let all = filter.iter().all(|&on| on);
    let kept = pairs.into_iter().filter(|(k, _)| all || filter[inner.routing.slot_of(k)]);
    let enclave = s.enclave();
    let out = kept.map(|(k, v)| {
        enclave.charge_mac(16 + k.len() + v.len());
        let d = pair_digest_keyed(&k, &v);
        ((k, v), d)
    });
    Ok((out.collect(), next))
}

/// [`digested`] over the whole store inside the caller's one hold: an
/// export cursor is only valid while the store is not mutated.
fn each_digested<S: KvStore + Send + 'static>(
    s: &mut S,
    inner: &Inner<S>,
    filter: &SlotFilter,
    mut f: impl FnMut(Digested),
) -> Result<(), StoreError> {
    let mut cursor = Some(0);
    while let Some(c) = cursor {
        let (pairs, next) = digested(s, inner, filter, c)?;
        pairs.into_iter().for_each(&mut f);
        cursor = next;
    }
    Ok(())
}

/// Put `pairs`, then delete `gone`, on one slot's store,
/// [`CHUNK_PAIRS`] per hold.
pub(crate) fn write_slot<S: KvStore + Send + 'static>(
    inner: &Arc<Inner<S>>,
    slot: usize,
    pairs: &[KvPair],
    gone: &[Vec<u8>],
) -> Result<(), StoreError> {
    for chunk in pairs.chunks(CHUNK_PAIRS) {
        let refs: Vec<(&[u8], &[u8])> = chunk.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        with_slot(inner, slot, |s| s.put_batch(&refs).into_iter().collect::<Result<(), _>>())??;
    }
    for chunk in gone.chunks(CHUNK_PAIRS) {
        with_slot(inner, slot, |s| chunk.iter().try_for_each(|k| s.delete(k).map(drop)))??;
    }
    Ok(())
}

/// One transfer from a source slot into target slots; see the module docs.
pub(crate) struct Transfer<'a, S: KvStore + Send + 'static> {
    inner: &'a Arc<Inner<S>>,
    source: usize,
    /// Each gets every pair and is verified.
    targets: Vec<usize>,
    filter: SlotFilter,
    cursor: Option<u64>,
    /// Key → digest of the value last sent, and whether the barrier
    /// export saw the key; after the delta, the barrier snapshot's keys.
    sent: HashMap<Vec<u8>, ([u8; 16], bool)>,
    root: Option<ContentRoot>,
    tamper: bool,
    /// Key and value bytes sent, deletes counted by key.
    pub(crate) bytes: u64,
}

impl<'a, S: KvStore + Send + 'static> Transfer<'a, S> {
    /// Nothing moves until the first step.
    pub(crate) fn new(inner: &'a Arc<Inner<S>>, source: usize, targets: Vec<usize>) -> Self {
        let (filter, cursor, sent) = ([true; NUM_ROUTING_SLOTS], Some(0), HashMap::new());
        Self { inner, source, targets, filter, cursor, sent, root: None, tamper: false, bytes: 0 }
    }

    /// Move only the keys on `filter`'s routing slots (default: all).
    pub(crate) fn only(mut self, filter: SlotFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Chaos: flip one byte of the next non-empty value sent, after its
    /// digest is taken, so that only [`Transfer::verify`] can see it.
    pub(crate) fn tamper(&mut self) {
        self.tamper = true;
    }

    /// Copy the next chunk; `Ok(false)` once the live copy is done.
    pub(crate) fn copy_chunk(&mut self) -> Result<bool, StoreError> {
        let Some(cursor) = self.cursor else { return Ok(false) };
        let (inner, filter) = (self.inner, &self.filter);
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(StoreError::ShardUnavailable { shard: self.source / inner.replicas });
        }
        let (chunk, next) = with_slot(inner, self.source, |s| digested(s, inner, filter, cursor))??;
        let mut pairs = Vec::with_capacity(chunk.len());
        for ((k, mut v), d) in chunk {
            self.sent.insert(k.clone(), (d, false));
            self.bytes += (k.len() + v.len()) as u64;
            if self.tamper && !v.is_empty() {
                v[0] ^= 0x01;
                self.tamper = false;
            }
            pairs.push((k, v));
        }
        for &slot in &self.targets {
            write_slot(inner, slot, &pairs, &[])?;
        }
        self.cursor = next;
        Ok(next.is_some())
    }

    /// Bring the targets to the source's barrier snapshot. Call it behind
    /// the caller's write fence: the snapshot is final only because no
    /// write the fence let through can reach the source after it.
    pub(crate) fn delta(&mut self) -> Result<(), StoreError> {
        let inner = self.inner;
        let (group, replica) = (self.source / inner.replicas, self.source % inner.replicas);
        let (filter, sent) = (&self.filter, &mut self.sent);
        let upserts = with_slot(inner, self.source, |s| {
            // The fence guards the store it was raised in front of, not
            // one re-installed in this slot since.
            if inner.ctls[group].machine.health(replica) != ShardHealth::Healthy {
                return Err(StoreError::ShardUnavailable { shard: group });
            }
            // An unchanged key is only marked seen: the common case costs
            // one lookup, and only changed pairs are kept.
            let mut upserts = Vec::new();
            each_digested(s, inner, filter, |(pair, d)| match sent.get_mut(&pair.0) {
                Some(entry) if entry.0 == d => entry.1 = true,
                _ => {
                    sent.insert(pair.0.clone(), (d, true));
                    upserts.push(pair);
                }
            })?;
            Ok(upserts)
        })??;
        let gone: Vec<Vec<u8>> =
            self.sent.extract_if(|_, (_, seen)| !*seen).map(|(k, _)| k).collect();
        self.root = Some(content_root_from_digests(self.sent.values().map(|(d, _)| *d).collect()));
        self.bytes += upserts.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>()
            + gone.iter().map(|k| k.len() as u64).sum::<u64>();
        for &slot in &self.targets {
            write_slot(inner, slot, &upserts, &gone)?;
        }
        Ok(())
    }

    /// Each target recomputes the root over the filter's slots in one
    /// hold; anything but the barrier root is
    /// [`StoreError::ReplicaDiverged`].
    pub(crate) fn verify(&self) -> Result<(), StoreError> {
        let (inner, filter) = (self.inner, &self.filter);
        for &slot in &self.targets {
            let mut digests = Vec::new();
            with_slot(inner, slot, |s| each_digested(s, inner, filter, |(_, d)| digests.push(d)))??;
            if self.root != Some(content_root_from_digests(digests)) {
                return Err(StoreError::ReplicaDiverged { shard: slot / inner.replicas });
            }
        }
        Ok(())
    }

    /// The barrier snapshot's keys.
    pub(crate) fn into_keys(self) -> Vec<Vec<u8>> {
        self.sent.into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{install_store, BatchOp, BatchReply, ShardedStore};
    use crate::tiered::{TieredOptions, TieredStore};
    use crate::{content_root_of, AriaHash, StoreConfig};
    use aria_sim::Enclave;
    use std::sync::mpsc;
    use std::time::Duration;

    const KEYS: u32 = 2_000;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    fn hash_store() -> Result<AriaHash, StoreError> {
        AriaHash::new(StoreConfig::for_keys(8_192), Arc::new(Enclave::with_default_epc()))
    }

    /// Group 0 serves `KEYS` keys of `vlen` bytes; group 1 is inactive
    /// and its slot (1) holds a fresh, empty store: the target.
    fn loaded<S, F>(factory: F, vlen: usize) -> Arc<ShardedStore<S>>
    where
        S: KvStore + Send + 'static,
        F: Fn(usize) -> Result<S, StoreError> + Send + Sync + 'static,
    {
        let store = ShardedStore::with_elastic(1, 2, 1, factory).unwrap();
        for i in 0..KEYS {
            store.put(&key(i), &vec![i as u8; vlen]).unwrap();
        }
        install_store(&store.inner, 1).unwrap();
        Arc::new(store)
    }

    fn source_len<S: KvStore + Send + 'static>(store: &ShardedStore<S>) -> u64 {
        with_slot(&store.inner, 0, |s| s.len()).unwrap()
    }

    /// Run `ops` through `run_batch` on another thread. It must complete
    /// while the transfer is paused between steps: no step keeps a hold.
    fn run_beside<S: KvStore + Send + 'static>(
        store: &Arc<ShardedStore<S>>,
        ops: Vec<BatchOp>,
    ) -> Vec<BatchReply> {
        let (tx, rx) = mpsc::channel();
        let store = Arc::clone(store);
        std::thread::spawn(move || tx.send(store.run_batch(ops)));
        rx.recv_timeout(Duration::from_secs(20)).expect("run_batch blocked by a paused transfer")
    }

    /// Overwrite every 7th key, delete every 11th and add `fresh` new
    /// ones, with a GET alongside; every reply must succeed.
    fn mutate<S: KvStore + Send + 'static>(store: &Arc<ShardedStore<S>>, round: u8, fresh: u32) {
        let mut ops = vec![BatchOp::Get(key(3))];
        ops.extend((0..KEYS).step_by(7).map(|i| BatchOp::Put(key(i), vec![round; 40])));
        ops.extend((1..KEYS).step_by(11).map(|i| BatchOp::Delete(key(i))));
        ops.extend(
            (0..fresh).map(|i| BatchOp::Put(key(KEYS + 100 * round as u32 + i), vec![round])),
        );
        for reply in run_beside(store, ops) {
            assert!(reply.error().is_none(), "op refused mid-transfer: {reply:?}");
        }
    }

    /// Source changes between two copy steps, and again after the copy,
    /// reach the target through the delta, and the roots match.
    fn delta_carries_every_change<S: KvStore + Send + 'static>(store: Arc<ShardedStore<S>>) {
        let mut t = Transfer::new(&store.inner, 0, vec![1]);
        assert!(t.copy_chunk().unwrap(), "the source must take more than one chunk");
        mutate(&store, 1, 50);
        while t.copy_chunk().unwrap() {}
        mutate(&store, 2, 20);
        t.delta().unwrap();
        t.verify().unwrap();
        let [source, target] = [0, 1].map(|slot| {
            let (mut pairs, _) =
                with_slot(&store.inner, slot, |s| content_root_of(s)).unwrap().unwrap();
            pairs.sort();
            pairs
        });
        assert_eq!(source.len() as u64, source_len(&store));
        assert!(source.iter().any(|(_, v)| v == &[2; 40]), "round 2 overwrites missing");
        assert_eq!(source, target);
    }

    #[test]
    fn delta_carries_every_change_from_a_hash_source() {
        delta_carries_every_change(loaded(|_| hash_store(), 32));
    }

    #[test]
    fn delta_carries_every_change_from_a_tiered_source() {
        let dir = std::env::temp_dir().join(format!("aria-transfer-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root = dir.clone();
        let store = loaded(
            move |slot| {
                let opts = TieredOptions::new(root.join(format!("slot-{slot}")))
                    .hot_budget_bytes(16 << 10)
                    .checkpoint_every(0);
                TieredStore::open(hash_store()?, &[0x42; 16], opts)
            },
            32,
        );
        let cold = with_slot(&store.inner, 0, |s| {
            for _ in 0..64 {
                s.maintain().unwrap();
            }
            s.tier_stats().cold_entries
        })
        .unwrap();
        assert!(cold > u64::from(KEYS) / 2, "only {cold} keys went cold");
        delta_carries_every_change(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a transfer of N keys holds at the delta step: each key and
    /// its digest. Values 128 times longer leave it unchanged.
    #[test]
    fn transfer_holds_keys_and_digests_not_values() {
        let held = |vlen: usize| {
            let store = loaded(|_| hash_store(), vlen);
            let mut t = Transfer::new(&store.inner, 0, vec![1]);
            while t.copy_chunk().unwrap() {}
            mutate(&store, 1, 0);
            t.delta().unwrap();
            t.verify().unwrap();
            let entry = std::mem::size_of::<([u8; 16], bool)>();
            let digests: usize = t.sent.keys().map(|k| k.capacity() + entry).sum();
            assert_eq!(t.sent.len() as u64, source_len(&store));
            digests + std::mem::size_of_val(&t)
        };
        let small = held(32);
        assert_eq!(small, held(32 * 128));
        let keys_and_digests = (KEYS as usize) * (key(0).len() + 17);
        assert!(small <= keys_and_digests + 1024, "{small} B held for {KEYS} keys");
    }
}
