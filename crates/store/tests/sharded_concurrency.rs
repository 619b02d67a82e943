//! `ShardedStore` under concurrent callers: a shard is a lock, and every
//! caller — batch, single op, `with_shard`, the maintenance ticker, a
//! detached stall, a kill, a recovery — runs its work on its own thread
//! under that lock. These tests mix all of them and check two things:
//! every read returns a version the per-key model allows, and the run
//! finishes (a lock-order deadlock would trip the watchdog).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aria_sim::Enclave;
use aria_store::sharded::{splitmix64, BatchOp, BatchReply, ShardHealth, ShardedStore};
use aria_store::{AriaHash, KvStore, StoreConfig, StoreError};

const SHARDS: usize = 4;
const CALLERS: usize = 4;
const KEYS_PER_CALLER: u64 = 96;
const STALL: Duration = Duration::from_millis(120);

/// The tests in this file run one at a time: the mixed runs want the two
/// cores.
static SERIAL: Mutex<()> = Mutex::new(());

/// Abort the process if a run wedges — the deadlock detector.
fn watchdog(name: &'static str, limit: Duration) -> Arc<AtomicBool> {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < limit {
            thread::sleep(Duration::from_millis(50));
            if flag.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("watchdog: {name} exceeded {limit:?} (lock-order deadlock?); aborting");
        std::process::abort();
    });
    done
}

fn new_store(replicas: usize) -> Arc<ShardedStore<AriaHash>> {
    Arc::new(
        ShardedStore::with_replicas(SHARDS, replicas, |_| {
            AriaHash::new(StoreConfig::for_keys(8_192), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap(),
    )
}

fn key(caller: usize, i: u64) -> Vec<u8> {
    format!("c{caller}-k{i}").into_bytes()
}

/// What one key may hold: the last acknowledged version, plus every
/// write since whose call returned an error — unacknowledged, so it may
/// or may not have been applied (and, replicated, may be on one replica
/// and not the other).
#[derive(Default)]
struct Versions {
    acked: Option<Vec<u8>>,
    maybe: Vec<Option<Vec<u8>>>,
}

impl Versions {
    fn allows(&self, got: &Option<Vec<u8>>) -> bool {
        *got == self.acked || self.maybe.contains(got)
    }

    fn wrote(&mut self, value: Option<Vec<u8>>, acked: bool) {
        if acked {
            self.acked = value;
            self.maybe.clear();
        } else {
            self.maybe.push(value);
        }
    }
}

/// One caller's model of the keys it alone writes.
#[derive(Default)]
struct Model {
    keys: HashMap<Vec<u8>, Versions>,
    reads_checked: u64,
}

impl Model {
    /// Fold one reply into the model, panicking on a wrong read.
    fn observe(&mut self, op: &BatchOp, reply: BatchReply) {
        let entry = self.keys.entry(op.key().to_vec()).or_default();
        match (op, reply) {
            (BatchOp::Get(k), BatchReply::Get(Ok(got))) => {
                assert!(
                    entry.allows(&got),
                    "wrong read of {}: got {:?}, acked {:?}, maybe {:?}",
                    String::from_utf8_lossy(k),
                    got,
                    entry.acked,
                    entry.maybe
                );
                self.reads_checked += 1;
            }
            // A refused or failed read returned no value to check.
            (BatchOp::Get(_), BatchReply::Get(Err(_))) => {}
            (BatchOp::Put(_, v), BatchReply::Put(r)) => entry.wrote(Some(v.clone()), r.is_ok()),
            (BatchOp::Delete(_), BatchReply::Delete(r)) => entry.wrote(None, r.is_ok()),
            (op, reply) => panic!("reply {reply:?} does not match op {op:?}"),
        }
    }
}

/// One caller: a seeded mix of every entry point over its own keys
/// (spread over all four shards, so callers contend on slots, never on
/// keys), until `stop`.
fn caller(
    store: &ShardedStore<AriaHash>,
    id: usize,
    stop: &AtomicBool,
    safe_group: usize,
) -> Model {
    let mut model = Model::default();
    let mut rng = splitmix64(0xC0FFEE ^ id as u64);
    let mut next = || {
        rng = splitmix64(rng);
        rng
    };
    let mut round = 0u64;
    while !stop.load(Ordering::SeqCst) {
        round += 1;
        let pick_op = |r: u64, i: u64| {
            let k = key(id, i);
            match r % 8 {
                0..=3 => BatchOp::Get(k),
                4..=6 => BatchOp::Put(k, format!("v{round}-{r:x}").into_bytes()),
                _ => BatchOp::Delete(k),
            }
        };
        match next() % 5 {
            // Single ops through the blocking front-end.
            0 => {
                let op = pick_op(next(), next() % KEYS_PER_CALLER);
                let reply = match &op {
                    BatchOp::Get(k) => BatchReply::Get(store.get(k)),
                    BatchOp::Put(k, v) => BatchReply::Put(store.put(k, v)),
                    BatchOp::Delete(k) => BatchReply::Delete(store.delete(k)),
                };
                model.observe(&op, reply);
            }
            // A partitioned batch over distinct keys.
            1 | 2 => {
                let base = next() % KEYS_PER_CALLER;
                let ops: Vec<BatchOp> =
                    (0..12).map(|j| pick_op(next(), (base + j) % KEYS_PER_CALLER)).collect();
                let replies = store.run_batch(ops.clone());
                assert_eq!(replies.len(), ops.len());
                for (op, reply) in ops.iter().zip(replies) {
                    model.observe(op, reply);
                }
            }
            // The reactor's pre-grouped path.
            3 => {
                let base = next() % KEYS_PER_CALLER;
                let mut per_group: Vec<Vec<BatchOp>> = (0..SHARDS).map(|_| Vec::new()).collect();
                for j in 0..12 {
                    let op = pick_op(next(), (base + j) % KEYS_PER_CALLER);
                    per_group[store.shard_of(op.key())].push(op);
                }
                let no_spans = (0..SHARDS).map(|_| Vec::new()).collect();
                let replies = store.run_sharded(per_group.clone(), no_spans);
                for (gops, greplies) in per_group.iter().zip(replies) {
                    assert_eq!(gops.len(), greplies.len());
                    for (op, reply) in gops.iter().zip(greplies) {
                        model.observe(op, reply);
                    }
                }
            }
            // The escape hatch, on a group the chaos thread leaves its
            // store in (`with_shard` has no way to report a lost one).
            _ => {
                let len = store.with_shard(safe_group, |s| s.len());
                assert!(len <= CALLERS as u64 * KEYS_PER_CALLER);
            }
        }
    }
    model
}

fn wait_for(what: &str, limit: Duration, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Run the callers against `store` while `chaos` injects faults, then
/// check every key against its owner's model.
fn drive(
    store: Arc<ShardedStore<AriaHash>>,
    safe_group: usize,
    chaos: impl FnOnce(&ShardedStore<AriaHash>),
) {
    store.start_maintenance(Duration::from_millis(2));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(CALLERS + 1);
    let models: Vec<Model> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|id| {
                let (store, stop, start) = (&store, &stop, &start);
                scope.spawn(move || {
                    start.wait();
                    caller(store, id, stop, safe_group)
                })
            })
            .collect();
        start.wait();
        thread::sleep(Duration::from_millis(40));
        chaos(&store);
        thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().expect("caller panicked")).collect()
    });
    // Quiesced: every key must read back as a version its owner allows.
    let mut reads = 0;
    for (id, mut model) in models.into_iter().enumerate() {
        assert!(model.reads_checked > 0, "caller {id} never got a read checked");
        for i in 0..KEYS_PER_CALLER {
            let op = BatchOp::Get(key(id, i));
            let reply = BatchReply::Get(store.get(op.key()));
            model.observe(&op, reply);
        }
        reads += model.reads_checked;
    }
    assert!(reads > (CALLERS as u64) * KEYS_PER_CALLER, "the mixed phase checked no reads");
}

/// Unreplicated: a stall on one shard, then a tampered entry on another
/// that quarantines it and recovers it in place — all while four
/// callers and the maintenance tickers keep taking the same slot locks.
/// (A *killed* unreplicated shard stays dead by design — there is no
/// sibling to verify a fresh store against — so the kill belongs to the
/// replicated run below.)
#[test]
fn mixed_callers_with_stall_and_recovery_unreplicated() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let done = watchdog("mixed_callers_unreplicated", Duration::from_secs(120));
    let store = new_store(1);
    // Seed a victim key outside every caller's key space.
    let victim = (0..64u32)
        .map(|i| format!("victim{i}").into_bytes())
        .find(|k| store.shard_of(k) == 1)
        .expect("some key routes to shard 1");
    store.put(&victim, b"sealed").unwrap();
    drive(Arc::clone(&store), 3, |store| {
        let stalled_at = Instant::now();
        assert!(store.exec_detached(0, |_| thread::sleep(STALL)));
        let k = victim.clone();
        assert!(store.with_shard(1, move |s| s.attack_tamper_value(&k)));
        let err = store.get(&victim).expect_err("the tampered read must be detected");
        assert!(err.is_quarantine_trigger(), "got {err:?}");
        wait_for("in-place recovery of shard 1", Duration::from_secs(20), || {
            let h = store.healths()[1];
            h.health == ShardHealth::Healthy && h.recoveries >= 1
        });
        // The stall was real, and it is over: shard 0 serves again.
        wait_for("the stall to clear", Duration::from_secs(5), || stalled_at.elapsed() >= STALL);
        assert_eq!(store.get(b"never-written").unwrap(), None);
    });
    assert!(store.healths().iter().all(|h| h.health == ShardHealth::Healthy));
    done.store(true, Ordering::SeqCst);
}

/// Two replicas per group: a stall on one group's primary, then a kill
/// of another group's primary mid-run — failover, re-sync from the
/// survivor and re-admission all happen under caller traffic, and no
/// acknowledged write is lost across them.
#[test]
fn mixed_callers_with_stall_and_kill_two_replicas() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let done = watchdog("mixed_callers_two_replicas", Duration::from_secs(120));
    let store = new_store(2);
    drive(Arc::clone(&store), 3, |store| {
        assert!(store.exec_detached(0, |_| thread::sleep(STALL)));
        let primary = store.group_stats()[1].primary;
        assert!(store.exec_detached_replica(1, primary, |_| panic!("injected primary kill")));
        wait_for("failover + re-sync of group 1", Duration::from_secs(30), || {
            let g = &store.group_stats()[1];
            g.failovers >= 1
                && g.resyncs >= 1
                && g.replicas.iter().all(|r| r.health == ShardHealth::Healthy)
        });
    });
    for snap in store.replica_healths() {
        assert_eq!(snap.health, ShardHealth::Healthy, "{snap:?}");
        assert_eq!(snap.lag, 0, "re-admitted replica lags: {snap:?}");
    }
    done.store(true, Ordering::SeqCst);
}

/// A refusal is never an acknowledgment, whoever is refused: with every
/// slot wedged behind a stall and a 1 ns admission budget, late callers
/// are refused without their writes ever landing.
#[test]
fn refused_writes_never_land() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let done = watchdog("refused_writes_never_land", Duration::from_secs(60));
    let store = new_store(1);
    for i in 0..64u32 {
        store.put(format!("warm{i}").as_bytes(), b"v").unwrap();
    }
    store.set_queue_delay_budget(Some(Duration::from_nanos(1)));
    let refused = AtomicU64::new(0);
    thread::scope(|scope| {
        for g in 0..SHARDS {
            assert!(store.exec_detached(g, |_| thread::sleep(STALL)));
        }
        // One waiter per shard charges the in-flight counter...
        for g in 0..SHARDS {
            let store = &store;
            scope.spawn(move || {
                let k = (0..64u32)
                    .map(|i| format!("waiter{i}").into_bytes())
                    .find(|k| store.shard_of(k) == g)
                    .expect("some key routes to the shard");
                store.put(&k, b"v")
            });
        }
        wait_for("waiters to queue on every slot", Duration::from_secs(5), || {
            store.queue_delay_estimates().iter().all(|&est| est > 0)
        });
        // ...so everyone after them is over budget.
        for i in 0..32u32 {
            match store.put(format!("late{i}").as_bytes(), b"v") {
                Err(StoreError::Overloaded { .. }) => {
                    refused.fetch_add(1, Ordering::SeqCst);
                }
                other => panic!("want Overloaded while wedged, got {other:?}"),
            }
        }
    });
    store.set_queue_delay_budget(None);
    assert_eq!(refused.load(Ordering::SeqCst), 32);
    for i in 0..32u32 {
        assert_eq!(store.get(format!("late{i}").as_bytes()).unwrap(), None, "refused ≠ applied");
    }
    done.store(true, Ordering::SeqCst);
}
