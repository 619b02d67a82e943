//! End-to-end telemetry: the `METRICS` opcode round-trips a full
//! snapshot over aria-net, the snapshot's cache accounting agrees with
//! the store's own `CacheStats` to within one op, the verify-depth
//! histogram is populated by real cache misses, tail spans for slow
//! store runs surface over the wire with their attribution, and the
//! snapshot's serving section keeps counting quarantined shards
//! (reporting `degraded`) instead of silently excluding them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use aria::prelude::*;
use aria::store::ShardHealth;
use aria::telemetry::{stage, SNAPSHOT_VERSION};
use aria::workload::encode_key;

/// Abort instead of hanging the test job if a connection wedges.
struct Watchdog(Arc<AtomicBool>);

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    thread::spawn(move || {
        let start = std::time::Instant::now();
        while start.elapsed() < limit {
            thread::sleep(Duration::from_millis(50));
            if !flag.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("watchdog: test {name} exceeded {limit:?}; aborting");
        std::process::abort();
    });
    Watchdog(armed)
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

fn sharded_server(shards: usize) -> (Arc<ShardedStore<AriaHash>>, AriaServer) {
    let store = Arc::new(
        ShardedStore::with_shards(shards, |_| {
            AriaHash::new(StoreConfig::for_keys(8_192), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap(),
    );
    let server = AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default())
        .expect("bind loopback server");
    (store, server)
}

#[test]
fn metrics_round_trip_matches_store_accounting() {
    const SHARDS: usize = 4;
    const KEYS: u64 = 2_000;
    const GETS: u64 = 6_000;

    let _wd = watchdog("metrics_round_trip_matches_store_accounting", Duration::from_secs(180));
    let (store, server) = sharded_server(SHARDS);
    // Every store run becomes a tail span, so the tail ring is
    // exercised without relying on wall-clock luck.
    store.traces().set_tail_threshold_nanos(0);
    let mut client = AriaClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    for id in 0..KEYS {
        client.put(&encode_key(id), format!("v{id}").as_bytes()).unwrap();
    }
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..GETS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let id = x % KEYS;
        assert!(client.get(&encode_key(id)).unwrap().is_some());
    }

    let snap = client.metrics().expect("METRICS round-trips");
    assert_eq!(snap.version, SNAPSHOT_VERSION);
    assert_eq!(snap.shards.len(), SHARDS);

    // The client's ops are all acked, the server is otherwise idle:
    // telemetry's cache accounting must agree with the counter cache's
    // own stats to within one op on every shard.
    let own: Vec<CacheStats> = store
        .cache_stats()
        .into_iter()
        .map(|s| s.expect("healthy shard has a counter cache"))
        .collect();
    for (i, (tele, own)) in snap.shards.iter().zip(&own).enumerate() {
        let (th, oh) = (tele.cache.hits, own.hits);
        let (tm, om) = (tele.cache.misses, own.misses);
        assert!(th.abs_diff(oh) <= 1, "shard {i}: telemetry hits {th} vs CacheStats {oh}");
        assert!(tm.abs_diff(om) <= 1, "shard {i}: telemetry misses {tm} vs CacheStats {om}");
    }
    let agg = snap.aggregate();
    assert!(agg.cache.hits + agg.cache.misses > 0, "cache accounting never moved");

    // Counter fetches that missed the cache verified real tree paths:
    // the verify-stop-depth histogram the paper's Figure 11 reasons
    // about must be reproducible from the wire snapshot.
    assert!(agg.cache.verify_depth.count() > 0, "verify-depth histogram empty");
    assert!(agg.cache.verify_depth.sum > 0, "verify-depth histogram sums to zero");

    // Store-layer instrumentation flowed through the same snapshot.
    assert!(agg.store.get_latency.count() >= GETS, "get latency undercounted");
    assert!(agg.store.put_latency.count() >= KEYS, "put latency undercounted");
    assert_eq!(agg.store.keys_live, KEYS, "keys_live gauge wrong");
    assert!(agg.store.index_probes > 0, "index probes never recorded");

    // With a zero threshold every run records a tail span. The client
    // samples nothing, so every span TRACE returns is a tail span.
    assert!(snap.traces.tail_spans > 0, "no tail span counted at threshold 0");
    assert_eq!(snap.traces.spans_recorded, 0, "tail spans counted as head samples");
    let (spans, cursors) = client.trace_spans(&[]).expect("TRACE round-trips");
    assert_eq!(cursors.len(), SHARDS + 1, "one cursor per shard ring, then the tail ring");
    assert!(!spans.is_empty(), "tail ring stayed empty at threshold 0");
    for s in &spans {
        assert_eq!(s.trace_id, 0, "not a tail span: {s:?}");
        assert!((s.shard as usize) < SHARDS, "{s:?}");
        assert!(s.ops >= 1, "{s:?}");
        for (st, &at) in s.stages.iter().enumerate() {
            let exec = st == stage::EXEC_START || st == stage::EXEC_END;
            assert_eq!(at != 0, exec, "stage {st} of a tail span: {s:?}");
        }
    }
    let probes: u64 = spans.iter().map(|s| s.attribution.index_probes).sum();
    assert!(probes > 0, "tail spans carry no index probes");

    // The per-opcode net histograms saw our traffic (get=1, put=2).
    assert!(snap.net.op_latency[1].count() >= GETS);
    assert!(snap.net.op_latency[2].count() >= KEYS);

    server.shutdown();
}

#[test]
fn stats_count_quarantined_shards_and_report_degraded() {
    const SHARDS: usize = 4;
    const KEYS: u64 = 1_000;

    let _wd = watchdog("stats_count_quarantined_shards", Duration::from_secs(180));
    let (store, server) = sharded_server(SHARDS);
    let mut client = AriaClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    for id in 0..KEYS {
        client.put(&encode_key(id), b"payload").unwrap();
    }
    let baseline = client.metrics().unwrap().serving;
    assert_eq!(baseline.len_estimate, KEYS, "len_estimate must count every shard");
    assert!(!baseline.degraded, "healthy store reported degraded");

    // Tamper with one key's sealed entry and read it: the violation
    // quarantines its shard.
    let key = encode_key(7);
    let victim = store.shard_of(&key);
    assert!(store.with_shard(victim, move |s: &mut AriaHash| s.attack_tamper_value(&encode_key(7))));
    let got = client.get(&key);
    assert!(got.is_err(), "tampered read must fail, got {got:?}");

    // While the shard quarantines/recovers, METRICS must keep reporting
    // the unhealthy shard's last-known key count — the pre-fix behavior
    // silently excluded the whole shard. Recovery destroys the one
    // unverifiable (tampered) entry, so len may drop by exactly one,
    // never by the shard's whole population. `degraded` must be
    // visible at least once before the shard heals.
    let mut saw_degraded = false;
    loop {
        let serving = client.metrics().unwrap().serving;
        assert!(
            serving.len_estimate >= KEYS - 1,
            "len {} excluded shard {victim} while it was unhealthy",
            serving.len_estimate
        );
        saw_degraded |= serving.degraded;
        let info = &serving.replicas[victim];
        if ShardHealth::from_u8(info.state) == ShardHealth::Healthy && info.recoveries >= 1 {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_degraded, "degraded flag never observed during quarantine");

    // Telemetry recorded the violation and the health transitions.
    let snap = client.metrics().unwrap();
    let st = &snap.shards[victim].store;
    assert!(st.violations.iter().sum::<u64>() >= 1, "violation class not recorded");
    assert!(
        st.health_events.len() >= 2,
        "expected quarantine + recovery transitions, got {:?}",
        st.health_events
    );

    server.shutdown();
}
