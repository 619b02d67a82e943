//! Thread accounting for `ShardedStore`, alone in its own test binary:
//! it counts every task of the process, and in a shared binary the test
//! harness starts threads for the other tests while it counts.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aria_sim::Enclave;
use aria_store::sharded::ShardedStore;
use aria_store::{AriaHash, StoreConfig};

fn wait_for(what: &str, limit: Duration, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// A shard is a lock, not a thread: building and using an 8-shard store
/// starts no thread at all; only `start_maintenance` does (one ticker
/// per group). Counted from `/proc/self/task` by the `aria-` name every
/// store thread carries.
#[cfg(target_os = "linux")]
#[test]
fn no_threads_until_maintenance_starts() {
    let store_threads = || -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .filter(|name| name.starts_with("aria-"))
            .count()
    };
    let tasks = || std::fs::read_dir("/proc/self/task").expect("procfs").count();
    let before = tasks();
    let store = ShardedStore::with_shards(8, |_| {
        AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
    })
    .unwrap();
    for i in 0..64u32 {
        store.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    assert_eq!(store.len(), 64);
    assert_eq!(store_threads(), 0, "a sharded store must not start threads of its own");
    assert!(tasks() <= before, "thread count grew from {before} to {}", tasks());
    store.start_maintenance(Duration::from_secs(3600));
    // A thread names itself as it starts, so give the tickers a moment.
    wait_for("one maintenance ticker per group", Duration::from_secs(5), || store_threads() == 8);
    drop(store);
    assert_eq!(store_threads(), 0, "drop joins every ticker");
}
