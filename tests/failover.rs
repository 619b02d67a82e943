//! End-to-end replication/failover test over the real TCP stack:
//! 6 pipelined client connections write through an `AriaServer` backed
//! by a primary+backup `ShardedStore<AriaHash>` while primaries are
//! killed mid-load. The acknowledged-write durability contract is
//! checked at three points: after the kill schedule's re-sync cycles,
//! immediately after a final promotion (while the rejoiner may still be
//! re-syncing), and after its verified re-admission.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aria::prelude::*;
use aria::workload::encode_key;
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

const GROUPS: usize = 2;
const REPLICAS: usize = 2;
const CLIENTS: usize = 6;
const KEYS_PER_CLIENT: u64 = 256;
const WINDOWS_PER_CLIENT: usize = 120;
const PIPELINE_DEPTH: usize = 8;

fn replicated_server() -> (Arc<ShardedStore<AriaHash>>, AriaServer) {
    let store = Arc::new(
        ShardedStore::with_replicas(GROUPS, REPLICAS, |_| {
            AriaHash::new(StoreConfig::for_keys(16_384), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap(),
    );
    let server = AriaServer::bind(
        "127.0.0.1:0",
        Arc::clone(&store),
        ServerConfig::builder().max_connections(CLIENTS + 4).build().expect("valid server config"),
    )
    .expect("bind loopback server");
    (store, server)
}

fn value_for(key_id: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&key_id.to_le_bytes());
    v[8..].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode_value(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() != 16 {
        return None;
    }
    Some((
        u64::from_le_bytes(bytes[..8].try_into().ok()?),
        u64::from_le_bytes(bytes[8..].try_into().ok()?),
    ))
}

/// Versions a read of this key may legally return: the last acked write
/// plus any writes whose outcome is unknown (transport/refusal errors).
type Model = HashMap<u64, Vec<u64>>;

/// One pipelined client: windows of `PIPELINE_DEPTH` mixed get/put
/// requests over a disjoint key range, model-checked per response.
/// Returns (model, wrong_reads).
fn run_client(addr: std::net::SocketAddr, base: u64, seed: u64) -> (Model, u64) {
    let mut client = AriaClient::connect(
        addr,
        ClientConfig {
            retry_budget: 32,
            op_deadline: Duration::from_secs(15),
            ..ClientConfig::default()
        },
    )
    .expect("connect pipelined client");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: Model = HashMap::new();
    let mut next_version: HashMap<u64, u64> = HashMap::new();
    let mut wrong = 0u64;

    for _ in 0..WINDOWS_PER_CLIENT {
        // Build one pipeline window.
        let mut reqs = Vec::with_capacity(PIPELINE_DEPTH);
        let mut plan = Vec::with_capacity(PIPELINE_DEPTH);
        for _ in 0..PIPELINE_DEPTH {
            let key_id = base + rng.gen_range(0..KEYS_PER_CLIENT);
            let key = encode_key(key_id).to_vec();
            if rng.gen_bool(0.5) {
                reqs.push(aria::net::proto::Request::Get { key });
                plan.push((key_id, None));
            } else {
                let v = next_version.entry(key_id).or_insert(1);
                let version = *v;
                *v += 1;
                reqs.push(aria::net::proto::Request::Put {
                    key,
                    value: value_for(key_id, version),
                });
                plan.push((key_id, Some(version)));
            }
        }
        match client.pipeline(&reqs) {
            Ok(responses) => {
                for ((key_id, put_version), resp) in plan.into_iter().zip(responses) {
                    let acceptable = model.entry(key_id).or_insert_with(|| vec![0]);
                    match (put_version, resp) {
                        (Some(v), aria::net::proto::Response::PutOk) => *acceptable = vec![v],
                        (Some(v), _) => acceptable.push(v), // refused or unknown
                        (None, aria::net::proto::Response::Value(Some(bytes))) => {
                            match decode_value(&bytes) {
                                Some((k, v)) if k == key_id && acceptable.contains(&v) => {
                                    *acceptable = vec![v];
                                }
                                _ => wrong += 1,
                            }
                        }
                        (None, aria::net::proto::Response::Value(None)) => {
                            // Keys start unwritten: absent is only legal
                            // while version 0 (never written) is live.
                            if !acceptable.contains(&0) {
                                wrong += 1;
                            }
                        }
                        (None, aria::net::proto::Response::Error { .. }) => {}
                        (None, _) => wrong += 1,
                    }
                }
            }
            Err(_) => {
                // Whole-window failure: every put in it is ambiguous.
                for (key_id, put_version) in plan {
                    if let Some(v) = put_version {
                        model.entry(key_id).or_insert_with(|| vec![0]).push(v);
                    }
                }
            }
        }
    }
    (model, wrong)
}

/// Kill the acting primary of `group` and return the failover count it
/// must exceed.
fn kill_primary(store: &ShardedStore<AriaHash>, group: usize) -> u64 {
    let stats = &store.group_stats()[group];
    assert!(
        stats.replicas.iter().all(|r| r.health == ShardHealth::Healthy),
        "kill only fully healthy groups: {stats:?}"
    );
    let before = stats.failovers;
    assert!(store.exec_detached_replica(group, stats.primary, |_st: &mut AriaHash| {
        panic!("failover test: injected primary kill")
    }));
    before
}

/// Drive reads until `pred` holds (a quarantined primary is only
/// replaced when an op is routed to its group, so polling must
/// generate traffic).
fn drive_until(
    client: &mut AriaClient,
    store: &ShardedStore<AriaHash>,
    what: &str,
    pred: impl Fn(&[GroupStats]) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = store.group_stats();
        if pred(&stats) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {stats:?}");
        // Promotion happens when an op is routed to the group, and
        // key→group hashing is opaque: probe a spread of keys so every
        // group sees traffic even after the load clients have finished.
        for k in 0..8u64 {
            let _ = client.get(&encode_key(k));
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn all_healthy(stats: &[GroupStats]) -> bool {
    stats.iter().all(|g| g.replicas.iter().all(|r| r.health == ShardHealth::Healthy))
}

/// Sweep every modeled key and assert the read returns an acceptable
/// version. `label` names the durability checkpoint being verified.
fn assert_acked_writes_readable(client: &mut AriaClient, model: &Model, label: &str) {
    for (&key_id, acceptable) in model {
        let got = client
            .get(&encode_key(key_id))
            .unwrap_or_else(|e| panic!("{label}: get({key_id}) failed: {e}"));
        match got {
            Some(bytes) => {
                let (k, v) = decode_value(&bytes)
                    .unwrap_or_else(|| panic!("{label}: get({key_id}) returned junk"));
                assert_eq!(k, key_id, "{label}: value for wrong key");
                assert!(
                    acceptable.contains(&v),
                    "{label}: acked write lost — key {key_id} returned v{v}, \
                     acceptable {acceptable:?}"
                );
            }
            None => assert!(
                acceptable.contains(&0),
                "{label}: acked write lost — key {key_id} absent, acceptable {acceptable:?}"
            ),
        }
    }
}

#[test]
fn pipelined_clients_survive_primary_kills_with_no_acked_write_loss() {
    let _wd = watchdog("pipelined_clients_survive_primary_kills", Duration::from_secs(300));
    let (store, server) = replicated_server();
    let addr = server.local_addr();

    // --- phase 1: 6 pipelined clients under a mid-load kill schedule ----
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let base = c as u64 * KEYS_PER_CLIENT;
            let seed = 0x0fa1_10e5_u64 ^ ((c as u64) << 32);
            thread::spawn(move || run_client(addr, base, seed))
        })
        .collect();

    // Kill primaries while the load runs: each group once, gated on the
    // previous cycle having fully re-admitted.
    let mut admin =
        AriaClient::connect(addr, ClientConfig::default()).expect("connect admin client");
    let mut kills = 0u64;
    for round in 0..2 {
        for group in 0..GROUPS {
            drive_until(&mut admin, &store, "group to settle before a kill", |s| {
                s[group].replicas.iter().all(|r| r.health == ShardHealth::Healthy)
            });
            let before = kill_primary(&store, group);
            kills += 1;
            drive_until(&mut admin, &store, "promotion after a kill", |s| {
                s[group].failovers > before
            });
            let _ = round;
        }
    }

    let mut wrong_total = 0u64;
    let mut model: Model = HashMap::new();
    for c in clients {
        let (m, wrong) = c.join().expect("client thread panicked");
        wrong_total += wrong;
        model.extend(m); // disjoint key ranges
    }
    assert_eq!(wrong_total, 0, "a client read an unacceptable value mid-failover");

    // Every kill must complete a verified re-sync before the contract
    // checks: `resyncs` only advances when the content roots matched.
    drive_until(&mut admin, &store, "all kills to re-sync and re-admit", |s| {
        all_healthy(s) && s.iter().map(|g| g.resyncs).sum::<u64>() >= kills
    });
    let mut checker =
        AriaClient::connect(addr, ClientConfig { retry_budget: 16, ..ClientConfig::default() })
            .expect("connect checker client");
    assert_acked_writes_readable(&mut checker, &model, "after the kill schedule");

    // --- phase 2: one more kill; check right after promotion, then after
    // re-admission ------------------------------------------------------
    let stats = store.group_stats();
    let target = 0usize;
    let (before_failovers, before_resyncs) = (stats[target].failovers, stats[target].resyncs);
    kill_primary(&store, target);
    drive_until(&mut admin, &store, "final promotion", |s| s[target].failovers > before_failovers);
    // Promotion done; the rejoiner may still be down or re-syncing.
    assert_acked_writes_readable(&mut checker, &model, "immediately after promotion");

    drive_until(&mut admin, &store, "final re-admission", |s| {
        all_healthy(s) && s[target].resyncs > before_resyncs
    });
    assert_acked_writes_readable(&mut checker, &model, "after verified re-admission");

    // The sweep after re-admission proves both replicas converge: the
    // re-sync root check happened inside the store, and lag must return
    // to zero once the group is healthy again.
    let final_stats = store.group_stats();
    assert!(final_stats.iter().all(|g| g.replicas.iter().all(|r| r.lag == 0)), "{final_stats:?}");

    server.shutdown();
    drop(store);
}
