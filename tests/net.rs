//! End-to-end tests of the TCP service layer against the full stack:
//! ≥4 concurrent pipelined client connections over a 4-shard
//! `ShardedStore<AriaHash>` under zipfian key popularity, each checked
//! against a sequential model store, plus the mid-load server-kill path
//! (typed errors, never hangs).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use aria::net::proto;
use aria::prelude::*;
use aria::workload::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fail fast (abort with a message) instead of letting a hung
/// connection thread stall the whole test job.
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
        self.0.store(true, Ordering::SeqCst);
        self.0.store(false, Ordering::SeqCst);
    }
}

fn sharded_server(shards: usize) -> (Arc<ShardedStore<AriaHash>>, AriaServer) {
    let store = Arc::new(
        ShardedStore::with_shards(shards, |_| {
            AriaHash::new(StoreConfig::for_keys(32_768), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap(),
    );
    let server = AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default())
        .expect("bind loopback server");
    (store, server)
}

/// The acceptance scenario: 4 shards, 6 pipelined client connections,
/// zipfian keys, every response checked against a per-client sequential
/// model (clients own disjoint id ranges, so each model is exact).
#[test]
fn pipelined_clients_match_sequential_model_over_tcp_reactor() {
    const SHARDS: usize = 4;
    const CLIENTS: usize = 6;
    const WINDOWS_PER_CLIENT: usize = 120;
    const DEPTH: usize = 24;
    const IDS_PER_CLIENT: u64 = 2_000;

    let _wd = watchdog("pipelined_clients_match_sequential_model", Duration::from_secs(300));
    let (store, server) = sharded_server(SHARDS);
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            thread::spawn(move || {
                let mut client = AriaClient::connect(addr, ClientConfig::default()).unwrap();
                let base = client_id as u64 * IDS_PER_CLIENT;
                let zipf = ZipfianGenerator::new(IDS_PER_CLIENT, 0.99);
                let mut rng = StdRng::seed_from_u64(0xE2E + client_id as u64);
                let mut model: HashMap<u64, Vec<u8>> = HashMap::new();

                for window_no in 0..WINDOWS_PER_CLIENT {
                    // Build a pipelined window of mixed ops and the
                    // model's expected replies. The model is sequential:
                    // ops on the same key are ordered (same shard), and
                    // ops on distinct keys commute within a window
                    // because each id appears once per window at most —
                    // enforce that to keep the model exact.
                    let mut window = Vec::with_capacity(DEPTH);
                    let mut expected: Vec<proto::Response> = Vec::with_capacity(DEPTH);
                    let mut used = std::collections::HashSet::new();
                    while window.len() < DEPTH {
                        let id = base + zipf.next(&mut rng);
                        if !used.insert(id) {
                            continue;
                        }
                        let key = encode_key(id).to_vec();
                        match rng.gen_range(0..10u32) {
                            0..=5 => {
                                expected.push(proto::Response::Value(model.get(&id).cloned()));
                                window.push(proto::Request::Get { key });
                            }
                            6..=8 => {
                                let value = value_bytes(id ^ window_no as u64, 24);
                                model.insert(id, value.clone());
                                expected.push(proto::Response::PutOk);
                                window.push(proto::Request::Put { key, value });
                            }
                            _ => {
                                let existed = model.remove(&id).is_some();
                                expected.push(proto::Response::Deleted(existed));
                                window.push(proto::Request::Delete { key });
                            }
                        }
                    }
                    let responses = client
                        .pipeline(&window)
                        .unwrap_or_else(|e| panic!("client {client_id} window {window_no}: {e}"));
                    assert_eq!(
                        responses, expected,
                        "client {client_id} window {window_no} diverged from the model"
                    );
                }
                model.len() as u64
            })
        })
        .collect();

    let mut live = 0u64;
    for handle in handles {
        live += handle.join().expect("client thread");
    }
    // Every client's surviving keys — and nothing else — are in the store.
    assert_eq!(store.len(), live);
    let stats = store.stats();
    assert_eq!(stats.enclaves, SHARDS);
    server.shutdown();
    assert_eq!(store.len(), live, "shutdown must not disturb store state");
}

/// Killing the server mid-load: every client gets typed transport
/// errors quickly — no hang (watchdog-enforced) and no bogus success.
#[test]
fn killing_server_mid_load_yields_typed_errors_reactor() {
    const CLIENTS: usize = 4;

    let _wd = watchdog("killing_server_mid_load", Duration::from_secs(120));
    let (_store, server) = sharded_server(4);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = AriaClient::connect(
                    addr,
                    ClientConfig {
                        op_timeout: Duration::from_secs(2),
                        connect_timeout: Duration::from_millis(200),
                        reconnect_attempts: 2,
                        reconnect_backoff: Duration::from_millis(10),
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                let zipf = ZipfianGenerator::new(5_000, 0.99);
                let mut rng = StdRng::seed_from_u64(client_id as u64);
                let mut transport_errors = 0u64;
                let mut ok_before_kill = 0u64;
                while !stop.load(Ordering::SeqCst) || transport_errors == 0 {
                    let id = zipf.next(&mut rng);
                    let reqs: Vec<proto::Request> = (0..16)
                        .map(|i| proto::Request::Put {
                            key: encode_key(id + i).to_vec(),
                            value: value_bytes(id, 16),
                        })
                        .collect();
                    match client.pipeline(&reqs) {
                        Ok(_) => ok_before_kill += 1,
                        Err(e) => {
                            assert!(
                                e.is_transport(),
                                "client {client_id}: want typed transport error, got {e}"
                            );
                            transport_errors += 1;
                        }
                    }
                }
                (ok_before_kill, transport_errors)
            })
        })
        .collect();

    // Let the load build, then pull the plug underneath the clients.
    thread::sleep(Duration::from_millis(200));
    server.shutdown();
    stop.store(true, Ordering::SeqCst);

    for handle in handles {
        let (ok, errors) = handle.join().expect("client thread must exit, not hang");
        assert!(ok > 0, "no load reached the server before the kill");
        assert!(errors > 0, "the kill was never observed as a typed error");
    }
}
