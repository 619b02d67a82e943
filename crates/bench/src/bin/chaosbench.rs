//! chaosbench — end-to-end robustness harness for the untrusted boundary.
//!
//! Runs a zipfian read/write load over the real TCP service layer while
//! a deterministic, seed-scheduled adversary (`aria-chaos`) corrupts
//! untrusted state underneath it: bit flips and torn writes on the
//! sealed-entry write path, stale Merkle-node replays, node flips,
//! index-connection pointer swaps and free-list metadata tampering.
//!
//! The harness asserts the stack's graceful-degradation contract:
//!
//! * **no panic, no hang** — a watchdog kills the run (exit 2) if it
//!   outlives its deadline;
//! * **no acknowledged-then-wrong read** — every client tracks the last
//!   acked value per key; a `GET` must return it (or a typed integrity
//!   error, or a typed quarantine refusal) — never a wrong or silently
//!   missing value;
//! * **containment** — a violation quarantines only its shard; siblings
//!   keep serving (probed live via the `HEALTH` opcode while a shard is
//!   down) and at least one full quarantine → recovery → re-admission
//!   cycle is observed;
//! * **accountability** — every injected fault is either detected
//!   (typed violation, shard quarantine, final-audit destruction) or
//!   provably masked (the post-run audit re-verifies every surviving
//!   entry and the model sweep finds no wrong answers).
//!
//! ```sh
//! cargo run --release -p aria-bench --bin chaosbench -- \
//!     [--shards 4] [--clients 4] [--keys 8192] [--ops 120000] \
//!     [--budget 12000] [--heap-rate 600] [--driver-rate 4000] \
//!     [--watchdog-secs 300] [--smoke] [--out results] \
//!     [--listen 127.0.0.1:0]
//! ```
//!
//! `--listen` pins the server address (default: an ephemeral loopback
//! port) so a live `ariatop --addr <listen>` can watch shard health,
//! hit ratios and the quarantine → recovery cycle during the run; the
//! bound address is printed either way.
//!
//! Results go to `<out>/chaos.json`; the committed `BENCH_chaos.json`
//! is a snapshot of a full default run.
//!
//! ## Failover mode (`--failover`)
//!
//! With `--failover`, the harness instead exercises the *replication*
//! contract: every shard group runs a primary plus a synchronous
//! backup, a seed-scheduled killer panics acting primaries mid-load
//! (≥ `--kills`, only when the whole group is healthy so each kill
//! exercises a complete cycle), and the run asserts
//!
//! * **zero acknowledged-write loss** — every write acked to a client
//!   is readable after promotion and after re-admission (in-run model
//!   checks plus a final sweep);
//! * **sibling service** — other groups keep answering (probed via
//!   `HEALTH` + live `GET`s) during every failover window;
//! * **verified re-admission** — each kill completes a
//!   kill → promote → re-sync → re-admit cycle whose content roots
//!   matched (the `resyncs` counter only advances on a root match);
//! * **divergence refusal** — a scripted post-run divergence injection
//!   (`FaultSite::ReplicaDivergence` via the store's re-sync fault
//!   hook) is detected as `ReplicaDiverged` and the replica is never
//!   re-admitted.
//!
//! Results go to `<out>/failover.json`; the committed
//! `BENCH_failover.json` is a snapshot of a full default run.
//!
//! ## Reshard mode (`--reshard`)
//!
//! With `--reshard`, the harness exercises the *elastic resharding*
//! contract: an elastic store starts with `--shards` active groups
//! (twice that many sized), zipfian clients with routing caches churn
//! it, and a conductor splits every group (4 → 8 by default), then
//! merges them back — while the chaos engine tampers with migration
//! copy streams ([`FaultSite::MigrationStreamTamper`]), kills targets
//! mid-copy ([`FaultSite::TargetKill`]) and replays data ops stamped
//! with pre-migration routing epochs
//! ([`FaultSite::StaleEpochReplay`]). The run asserts
//!
//! * **zero acked-write loss across every flip** — the per-key model
//!   plus a final sweep: no acknowledged-then-wrong, no
//!   acknowledged-then-lost;
//! * **aborts are clean** — a scripted tampered-stream migration and a
//!   scripted target-kill migration both abort with the old epoch
//!   still serving, the target scrubbed, and an anomaly flight dump
//!   recorded;
//! * **stale claims are refused** — every replayed stale-epoch frame
//!   draws a typed `WRONG_SHARD` refusal, never data from the old
//!   owner, while a refreshed claim on the same key still succeeds;
//! * **convergence** — every planned migration commits (retrying
//!   through the chaos schedule), the epoch advances once per commit,
//!   and the group count returns to where it started.
//!
//! Results go to `<out>/reshard.json`; the committed
//! `BENCH_reshard.json` is a snapshot of a full default run.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aria_bench::{git_rev, json_str, newest_flight_dump, print_table, Args, SCHEMA_VERSION};
use aria_chaos::{ChaosEngine, FaultPlan, FaultSite, HeapInjector, SITE_COUNT};
use aria_merkle::NodeId;
use aria_net::{AriaClient, ClientConfig, ErrorCode, NetError};
use aria_net::{AriaServer, ServerConfig};
use aria_sim::Enclave;
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{AriaHash, KvStore, RecoveryReport, ShardHealth, StoreConfig};
use aria_workload::{encode_key, ScrambledZipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VALUE_LEN: usize = 16;
const READ_RATIO_PCT: u64 = 50;

/// Pool of stale-node snapshots awaiting replay: (shard, tree, node, bytes).
type SnapshotPool = Mutex<Vec<(usize, usize, NodeId, Vec<u8>)>>;

/// Encode the value we expect to read back: key id ‖ version.
fn value_for(key_id: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    v[..8].copy_from_slice(&key_id.to_le_bytes());
    v[8..].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode_value(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() != VALUE_LEN {
        return None;
    }
    let key_id = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let version = u64::from_le_bytes(bytes[8..].try_into().ok()?);
    Some((key_id, version))
}

/// Per-key client-side model: the set of versions a read may legally
/// return. Usually one (the last acked write); a put that failed or
/// timed out may or may not have applied, so its version joins the set
/// until a successful read re-synchronizes.
struct KeyModel {
    acceptable: Vec<u64>,
    next_version: u64,
}

#[derive(Default)]
struct ClientReport {
    ops: u64,
    wrong_reads: u64,
    integrity_errs: u64,
    destroyed_errs: u64,
    quarantined_errs: u64,
    unavailable_errs: u64,
    transport_errs: u64,
    other_errs: u64,
    latencies_us: Vec<f64>,
}

fn classify(report: &mut ClientReport, err: &NetError) {
    match err.code() {
        Some(c) if (c as u16) >= 1 && (c as u16) <= 6 => report.integrity_errs += 1,
        Some(ErrorCode::DataDestroyed) => report.destroyed_errs += 1,
        Some(ErrorCode::ShardQuarantined) => report.quarantined_errs += 1,
        Some(ErrorCode::ShardUnavailable) => report.unavailable_errs += 1,
        Some(_) => report.other_errs += 1,
        None => report.transport_errs += 1,
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One client: zipfian 50/50 read/write loop over its own key range,
/// checking every read against the acked-value model.
#[allow(clippy::too_many_arguments)]
fn run_client(
    addr: std::net::SocketAddr,
    base: u64,
    range: u64,
    ops: u64,
    seed: u64,
    trace_sample: u32,
    done: Arc<AtomicBool>,
) -> ClientReport {
    let mut client =
        AriaClient::connect(addr, ClientConfig { trace_sample, ..ClientConfig::default() })
            .expect("connect chaos client");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(range, 0.99);
    let mut model: HashMap<u64, KeyModel> = HashMap::new();
    let mut report = ClientReport::default();
    report.latencies_us.reserve(ops as usize);

    for _ in 0..ops {
        if done.load(Ordering::Relaxed) {
            break;
        }
        let key_id = base + zipf.next(&mut rng);
        let key = encode_key(key_id);
        let entry =
            model.entry(key_id).or_insert(KeyModel { acceptable: vec![0], next_version: 1 });
        let is_get = rng.gen_range(0..100u64) < READ_RATIO_PCT;
        let start = Instant::now();
        if is_get {
            match client.get(&key) {
                Ok(Some(bytes)) => match decode_value(&bytes) {
                    Some((k, v)) if k == key_id && entry.acceptable.contains(&v) => {
                        entry.acceptable = vec![v];
                    }
                    _ => report.wrong_reads += 1,
                },
                // Every key is preloaded and never deleted: "absent" is
                // a silent loss, which the chain verification + trusted
                // per-bucket counts are supposed to make impossible.
                Ok(None) => report.wrong_reads += 1,
                Err(e) => classify(&mut report, &e),
            }
        } else {
            let v = entry.next_version;
            entry.next_version += 1;
            match client.put(&key, &value_for(key_id, v)) {
                Ok(()) => entry.acceptable = vec![v],
                Err(e) => {
                    // The put may or may not have applied before the
                    // error: both versions are now plausible.
                    entry.acceptable.push(v);
                    classify(&mut report, &e);
                }
            }
        }
        report.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.ops += 1;
    }
    report
}

/// Driver-side adversary: consults the engine's schedule and delivers
/// stale-node replays, node flips, pointer swaps and free-list
/// tampering to *healthy* shards via detached shard closures.
#[allow(clippy::too_many_arguments)]
fn run_driver(
    store: Arc<ShardedStore<AriaHash>>,
    engine: Arc<ChaosEngine>,
    shard_keys: Arc<Vec<Vec<Vec<u8>>>>,
    snapshots: Arc<SnapshotPool>,
    delivered: Arc<[AtomicU64; SITE_COUNT]>,
    done: Arc<AtomicBool>,
) {
    let shards = store.shards();
    let mut tick = 0usize;
    while !done.load(Ordering::Relaxed) && !engine.budget_spent() {
        let shard = tick % shards;
        tick += 1;
        if store.health_of(shard) != ShardHealth::Healthy {
            thread::sleep(Duration::from_micros(50));
            continue;
        }
        for site in [
            FaultSite::StaleNodeReplay,
            FaultSite::NodeFlip,
            FaultSite::IndexPointerSwap,
            FaultSite::FreeListTamper,
        ] {
            let Some(entropy) = engine.try_inject(site) else { continue };
            let delivered = Arc::clone(&delivered);
            let keys = Arc::clone(&shard_keys);
            let snapshots = Arc::clone(&snapshots);
            store.exec_detached(shard, move |st: &mut AriaHash| {
                let hit = deliver(st, site, shard, entropy, &keys[shard], &snapshots);
                if hit {
                    delivered[site as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        thread::sleep(Duration::from_micros(200));
    }
}

/// Execute one driver-side fault against a shard's store. Returns
/// whether anything was actually mutated.
fn deliver(
    st: &mut AriaHash,
    site: FaultSite,
    shard: usize,
    entropy: u64,
    keys: &[Vec<u8>],
    snapshots: &SnapshotPool,
) -> bool {
    match site {
        FaultSite::StaleNodeReplay => {
            let Some(area) = st.core_mut().counters.as_cached_mut() else { return false };
            let mut pool = snapshots.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(pos) = pool.iter().position(|(s, ..)| *s == shard) {
                // Replay: write the stale bytes back over the live node.
                let (_, tree, id, bytes) = pool.swap_remove(pos);
                drop(pool);
                if tree >= area.trees() {
                    return false;
                }
                area.cache_mut(tree).tree_mut_raw().write_node(id, &bytes);
                true
            } else {
                // First strike on this shard: capture a snapshot for a
                // later rollback. Harmless by itself (provably masked).
                let tree = (entropy % area.trees() as u64) as usize;
                let mt = area.cache(tree).tree();
                let (id, _) = mt.locate_counter(entropy.rotate_right(17) % mt.num_counters());
                let bytes = mt.node(id).to_vec();
                pool.push((shard, tree, id, bytes));
                false
            }
        }
        FaultSite::NodeFlip => {
            let Some(area) = st.core_mut().counters.as_cached_mut() else { return false };
            let tree = (entropy % area.trees() as u64) as usize;
            let mt = area.cache_mut(tree).tree_mut_raw();
            let (id, _) = mt.locate_counter(entropy.rotate_right(13) % mt.num_counters());
            let node = mt.node_mut_raw(id);
            let bit = (entropy.rotate_right(29) % (node.len() as u64 * 8)) as usize;
            node[bit / 8] ^= 1 << (bit % 8);
            true
        }
        FaultSite::IndexPointerSwap => {
            if keys.len() < 2 {
                return false;
            }
            let a = &keys[(entropy % keys.len() as u64) as usize];
            let b = &keys[(entropy.rotate_right(23) % keys.len() as u64) as usize];
            if a == b {
                return false;
            }
            st.attack_swap_bucket_pointers(a, b);
            true
        }
        FaultSite::FreeListTamper => {
            if keys.is_empty() {
                return false;
            }
            let key = &keys[(entropy % keys.len() as u64) as usize];
            match st.attack_locate(key) {
                Some(ptr) => st.core_mut().heap.attack_requeue_block(ptr),
                None => false,
            }
        }
        // Write-path sites are the HeapInjector's job, not ours; the
        // replication sites belong to the failover mode's killer and
        // re-sync hook; the durability-log sites belong to durabench,
        // which owns a tiered store with an on-disk log to strike;
        // shard stalls belong to the overload tests, which own the
        // watchdog that must catch them; the migration sites belong to
        // the reshard mode's fault hook and raw replay probes.
        FaultSite::EntryFlip
        | FaultSite::TornWrite
        | FaultSite::PrimaryKill
        | FaultSite::ReplicaDivergence
        | FaultSite::LogBitFlip
        | FaultSite::TornAppend
        | FaultSite::StaleCheckpointRollback
        | FaultSite::ShardStall
        | FaultSite::MigrationStreamTamper
        | FaultSite::TargetKill
        | FaultSite::StaleEpochReplay => false,
    }
}

fn main() {
    let args = Args::parse();
    if args.flag("failover") {
        return run_failover(&args);
    }
    if args.flag("reshard") {
        return run_reshard(&args);
    }
    let smoke = args.flag("smoke");
    let shards = args.get("shards", 4usize);
    let clients = args.get("clients", 4usize);
    let keys = args.get("keys", 8_192u64);
    let ops = args.get("ops", if smoke { 16_000u64 } else { 120_000 });
    let budget = args.get("budget", if smoke { 1_000u64 } else { 12_000 });
    let heap_rate = args.get("heap-rate", 600u32);
    let driver_rate = args.get("driver-rate", 4_000u32);
    let watchdog_secs = args.get("watchdog-secs", if smoke { 180u64 } else { 600 });
    let seed = args.seed();
    let out_dir = args.out_dir();
    let injected_floor = args.get("min-injected", if smoke { 200u64 } else { 10_000 });
    let listen = args.get_str("listen", "127.0.0.1:0");
    let trace_sample = args.get("trace-sample", 0u32);
    let flight_dir = {
        let d = args.get_str("flight-dir", "");
        (!d.is_empty()).then(|| std::path::PathBuf::from(d))
    };

    println!(
        "chaosbench: shards={shards} clients={clients} keys={keys} ops={ops} \
         budget={budget} heap-rate={heap_rate} driver-rate={driver_rate} seed={seed}"
    );

    // --- watchdog: no hang, ever -----------------------------------------
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(watchdog_secs);
            while !done.load(Ordering::Relaxed) {
                if Instant::now() > deadline {
                    eprintln!("chaosbench: WATCHDOG — run exceeded {watchdog_secs}s, aborting");
                    std::process::exit(2);
                }
                thread::sleep(Duration::from_millis(100));
            }
        });
    }

    // --- store + chaos engine ---------------------------------------------
    let per_shard_keys = (keys / shards as u64) * 2 + 1_024;
    let store = Arc::new(
        ShardedStore::with_shards(shards, move |_| {
            let suite = Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
                as Arc<dyn aria_crypto::CipherSuite>;
            AriaHash::with_suite(
                StoreConfig::for_keys(per_shard_keys),
                Arc::new(Enclave::with_default_epc()),
                Some(suite),
            )
        })
        .expect("construct sharded store"),
    );

    let plan = FaultPlan::new(seed)
        .with_rate(FaultSite::EntryFlip, heap_rate)
        .with_rate(FaultSite::TornWrite, heap_rate)
        .with_rate(FaultSite::StaleNodeReplay, driver_rate)
        .with_rate(FaultSite::NodeFlip, driver_rate)
        .with_rate(FaultSite::IndexPointerSwap, driver_rate)
        .with_rate(FaultSite::FreeListTamper, driver_rate)
        .with_budget(budget);
    let engine = ChaosEngine::new(plan);
    engine.arm(false); // quiet during preload
    for s in 0..shards {
        let eng = Arc::clone(&engine);
        store.with_shard(s, move |st: &mut AriaHash| {
            HeapInjector::install(&mut st.core_mut().heap, eng);
        });
    }

    // --- preload: client keys + per-shard probe keys ----------------------
    let probe_per_shard = 8u64;
    let total_keys = keys + shards as u64 * probe_per_shard * 4;
    let mut batch = Vec::with_capacity(512);
    let mut probe_keys: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); shards];
    for id in 0..total_keys {
        let key = encode_key(id);
        if id >= keys {
            let shard = store.shard_of(&key);
            if (probe_keys[shard].len() as u64) < probe_per_shard {
                probe_keys[shard].push((id, key.to_vec()));
            }
        }
        batch.push(BatchOp::Put(key.to_vec(), value_for(id, 0)));
        if batch.len() == 512 {
            store.run_batch(std::mem::take(&mut batch));
        }
    }
    store.run_batch(batch);

    // Partition the client keyspace by owning shard for targeted faults.
    let mut shard_keys: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
    for id in 0..keys {
        let key = encode_key(id);
        shard_keys[store.shard_of(&key)].push(key.to_vec());
    }
    let shard_keys = Arc::new(shard_keys);

    // --- server ------------------------------------------------------------
    let server = AriaServer::bind(
        listen.as_str(),
        Arc::clone(&store),
        ServerConfig::builder()
            .max_connections(clients + 8)
            .flight_dir(flight_dir.clone())
            .build()
            .expect("valid chaos server config"),
    )
    .expect("bind chaos server");
    let addr = server.local_addr();
    println!("chaosbench: serving on {addr}");
    // Injections recorded per fault site in the same snapshot the
    // METRICS opcode serves.
    engine.set_telemetry(Arc::clone(&server.telemetry().chaos));

    // --- health poller: HEALTH opcode, cycle + containment evidence -------
    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let poll_done = Arc::clone(&poll_done);
        let store = Arc::clone(&store);
        let probe_keys = probe_keys.clone();
        thread::spawn(move || {
            let mut client =
                AriaClient::connect(addr, ClientConfig::default()).expect("connect health poller");
            let mut saw_quarantine = 0u64;
            let mut sibling_serves = 0u64;
            let mut max_recoveries = vec![0u64; store.shards()];
            let mut probe_rng: u64 = 0x1234_5678;
            while !poll_done.load(Ordering::Relaxed) {
                if let Ok(reply) = client.health() {
                    let degraded: Vec<usize> = reply
                        .shards
                        .iter()
                        .enumerate()
                        .filter(|(_, i)| {
                            matches!(i.health(), ShardHealth::Quarantined | ShardHealth::Recovering)
                        })
                        .map(|(s, _)| s)
                        .collect();
                    for (s, info) in reply.shards.iter().enumerate() {
                        max_recoveries[s] = max_recoveries[s].max(info.recoveries);
                    }
                    if !degraded.is_empty() {
                        saw_quarantine += 1;
                        // Containment probe: a *different*, healthy shard
                        // must keep answering while this one is down.
                        let healthy: Vec<usize> = reply
                            .shards
                            .iter()
                            .enumerate()
                            .filter(|(s, i)| {
                                i.health() == ShardHealth::Healthy && !degraded.contains(s)
                            })
                            .map(|(s, _)| s)
                            .collect();
                        if let Some(&s) = healthy.first() {
                            probe_rng = probe_rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let picks = &probe_keys[s];
                            if !picks.is_empty() {
                                let (id, key) = &picks[(probe_rng % picks.len() as u64) as usize];
                                if let Ok(Some(bytes)) = client.get(key) {
                                    if decode_value(&bytes) == Some((*id, 0)) {
                                        sibling_serves += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
            (saw_quarantine, sibling_serves, max_recoveries)
        })
    };

    // --- run: clients + driver-side adversary ------------------------------
    engine.arm(true);
    let delivered: Arc<[AtomicU64; SITE_COUNT]> = Arc::new(Default::default());
    let snapshots = Arc::new(Mutex::new(Vec::new()));
    let driver = {
        let store = Arc::clone(&store);
        let engine = Arc::clone(&engine);
        let shard_keys = Arc::clone(&shard_keys);
        let snapshots = Arc::clone(&snapshots);
        let delivered = Arc::clone(&delivered);
        let done = Arc::clone(&done);
        thread::spawn(move || run_driver(store, engine, shard_keys, snapshots, delivered, done))
    };

    let start = Instant::now();
    let ops_per_client = ops / clients as u64;
    let keys_per_client = keys / clients as u64;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let done = Arc::clone(&done);
            let base = c as u64 * keys_per_client;
            let cseed = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1);
            thread::spawn(move || {
                run_client(addr, base, keys_per_client, ops_per_client, cseed, trace_sample, done)
            })
        })
        .collect();
    let mut report = ClientReport::default();
    for w in workers {
        let r = w.join().expect("client thread panicked");
        report.ops += r.ops;
        report.wrong_reads += r.wrong_reads;
        report.integrity_errs += r.integrity_errs;
        report.destroyed_errs += r.destroyed_errs;
        report.quarantined_errs += r.quarantined_errs;
        report.unavailable_errs += r.unavailable_errs;
        report.transport_errs += r.transport_errs;
        report.other_errs += r.other_errs;
        report.latencies_us.extend(r.latencies_us);
    }
    let elapsed = start.elapsed();
    done.store(true, Ordering::Relaxed);
    driver.join().expect("driver thread panicked");

    // --- settle + disarm + final audit -------------------------------------
    engine.arm(false);
    let settle_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let busy = store
            .healths()
            .iter()
            .any(|h| matches!(h.health, ShardHealth::Quarantined | ShardHealth::Recovering));
        if !busy || Instant::now() > settle_deadline {
            assert!(!busy, "quarantined shards failed to settle within 60s");
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    poll_done.store(true, Ordering::Relaxed);
    let (saw_quarantine, sibling_serves, poll_recoveries) =
        poller.join().expect("health poller panicked");

    let healths = store.healths();
    let mut audits: Vec<Option<RecoveryReport>> = Vec::with_capacity(shards);
    for (s, info) in healths.iter().enumerate() {
        if info.health == ShardHealth::Dead {
            audits.push(None);
            continue;
        }
        audits.push(Some(
            store.with_shard(s, |st: &mut AriaHash| st.recover().expect("final audit")),
        ));
    }

    // --- model sweep: every acked value must still read correctly (or
    // fail with a typed, accounted error) -----------------------------------
    let mut sweep_client =
        AriaClient::connect(addr, ClientConfig::default()).expect("connect sweep client");
    let mut sweep_ok = 0u64;
    let mut sweep_typed = 0u64;
    let mut sweep_wrong = 0u64;
    for id in 0..keys {
        match sweep_client.get(&encode_key(id)) {
            Ok(Some(bytes)) => match decode_value(&bytes) {
                Some((k, _)) if k == id => sweep_ok += 1,
                _ => sweep_wrong += 1,
            },
            Ok(None) => sweep_wrong += 1,
            Err(e) if e.code().is_some() => sweep_typed += 1,
            Err(_) => sweep_typed += 1,
        }
    }
    let telemetry = server.telemetry().snapshot();
    server.shutdown();

    // --- verdict ------------------------------------------------------------
    let stats = engine.stats();
    let injected = stats.injected_total;
    let total_recoveries: u64 = healths.iter().map(|h| h.recoveries).sum();
    let total_violations: u64 = healths.iter().map(|h| h.violations).sum();
    let audit_destroyed: u64 = audits.iter().flatten().map(|r| r.entries_destroyed).sum();
    let audit_condemned: u64 = audits.iter().flatten().map(|r| r.merkle_nodes_condemned).sum();
    let detected_events = report.integrity_errs
        + report.destroyed_errs
        + total_violations
        + audit_destroyed
        + audit_condemned;

    report.latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&report.latencies_us, 0.50);
    let p99 = percentile(&report.latencies_us, 0.99);

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        if !ok {
            failures.push(msg.to_string());
        }
    };
    check(report.wrong_reads == 0, "acknowledged-then-wrong reads observed");
    check(sweep_wrong == 0, "final model sweep returned wrong/missing values");
    check(injected >= injected_floor, "injected fault count below floor");
    check(total_recoveries >= 1, "no quarantine → recovery → re-admission cycle completed");
    check(saw_quarantine >= 1, "HEALTH opcode never observed a quarantined shard");
    check(sibling_serves >= 1, "no healthy sibling served while a shard was quarantined");
    check(detected_events >= 1, "no injected fault was ever detected");
    check(p99 < 500_000.0, "p99 latency above 500ms (hang-adjacent)");
    if let Some(dir) = &flight_dir {
        // Quarantines are flight-recorder anomalies: with the recorder
        // armed, the cycle this run provokes must leave a post-mortem.
        match newest_flight_dump(dir) {
            Some((count, path, dump)) => {
                println!(
                    "flight recorder: {count} dump(s), newest {} ({} span(s) aboard)",
                    path.display(),
                    dump.matches("\"trace_id\"").count(),
                );
                check(
                    dump.contains("\"reason\":\"anomaly\"") && dump.contains("\"events\""),
                    "flight dump is not an anomaly post-mortem",
                );
            }
            None => check(false, "quarantine cycle left no flight dump"),
        }
    }

    // --- report -------------------------------------------------------------
    let site_rows: Vec<Vec<String>> = FaultSite::ALL
        .iter()
        .map(|&s| {
            vec![
                s.name().to_string(),
                stats.site(s).draws.to_string(),
                stats.site(s).injected.to_string(),
                delivered[s as usize].load(Ordering::Relaxed).to_string(),
            ]
        })
        .collect();
    print_table("chaos sites", &["site", "draws", "injected", "delivered"], &site_rows);
    let health_rows: Vec<Vec<String>> = healths
        .iter()
        .enumerate()
        .map(|(s, h)| {
            vec![
                s.to_string(),
                h.health.to_string(),
                h.violations.to_string(),
                h.recoveries.to_string(),
                poll_recoveries[s].to_string(),
            ]
        })
        .collect();
    print_table(
        "shard health",
        &["shard", "state", "violations", "recoveries", "seen-via-HEALTH"],
        &health_rows,
    );
    println!(
        "ops={} elapsed={:.2}s p50={:.0}us p99={:.0}us wrong_reads={} injected={} \
         detected_events={} recoveries={} sweep ok/typed/wrong={}/{}/{}",
        report.ops,
        elapsed.as_secs_f64(),
        p50,
        p99,
        report.wrong_reads,
        injected,
        detected_events,
        total_recoveries,
        sweep_ok,
        sweep_typed,
        sweep_wrong,
    );

    write_json(
        &out_dir,
        seed,
        &report,
        &stats,
        &delivered,
        &healths,
        &audits,
        (saw_quarantine, sibling_serves),
        (sweep_ok, sweep_typed, sweep_wrong),
        (p50, p99),
        elapsed,
        &failures,
        &telemetry,
    );

    if failures.is_empty() {
        println!("chaosbench: PASS");
    } else {
        for f in &failures {
            eprintln!("chaosbench: FAIL — {f}");
        }
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    out_dir: &str,
    seed: u64,
    report: &ClientReport,
    stats: &aria_chaos::ChaosStats,
    delivered: &[AtomicU64; SITE_COUNT],
    healths: &[aria_store::ShardHealthSnapshot],
    audits: &[Option<RecoveryReport>],
    (saw_quarantine, sibling_serves): (u64, u64),
    (sweep_ok, sweep_typed, sweep_wrong): (u64, u64, u64),
    (p50, p99): (f64, f64),
    elapsed: Duration,
    failures: &[String],
    telemetry: &aria_telemetry::TelemetrySnapshot,
) {
    let sites = FaultSite::ALL
        .iter()
        .map(|&s| {
            format!(
                "{{\"site\":{},\"draws\":{},\"injected\":{},\"delivered\":{}}}",
                json_str(s.name()),
                stats.site(s).draws,
                stats.site(s).injected,
                delivered[s as usize].load(Ordering::Relaxed)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let shard_json = healths
        .iter()
        .enumerate()
        .map(|(s, h)| {
            let audit = match &audits[s] {
                Some(r) => format!(
                    "{{\"entries_verified\":{},\"entries_destroyed\":{},\
                     \"buckets_poisoned\":{},\"merkle_nodes_condemned\":{},\
                     \"counters_reinitialized\":{}}}",
                    r.entries_verified,
                    r.entries_destroyed,
                    r.buckets_poisoned,
                    r.merkle_nodes_condemned,
                    r.counters_reinitialized
                ),
                None => "null".to_string(),
            };
            format!(
                "{{\"shard\":{s},\"state\":{},\"violations\":{},\"recoveries\":{},\
                 \"final_audit\":{audit}}}",
                json_str(&h.health.to_string()),
                h.violations,
                h.recoveries
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let failures_json = failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",");
    let doc = format!(
        "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"experiment\":\"chaos\",\n\
         \"git_rev\":{},\n\"seed\":{seed},\n\"elapsed_s\":{:.3},\n\"ops\":{},\n\
         \"wrong_reads\":{},\n\"integrity_errors\":{},\n\"destroyed_errors\":{},\n\
         \"quarantined_errors\":{},\n\"unavailable_errors\":{},\n\
         \"transport_errors\":{},\n\"other_errors\":{},\n\
         \"injected_total\":{},\n\"sites\":[{sites}],\n\"shards\":[{shard_json}],\n\
         \"health_polls_with_quarantine\":{saw_quarantine},\n\
         \"sibling_serves_during_quarantine\":{sibling_serves},\n\
         \"sweep\":{{\"ok\":{sweep_ok},\"typed_errors\":{sweep_typed},\"wrong\":{sweep_wrong}}},\n\
         \"latency_us\":{{\"p50\":{:.1},\"p99\":{:.1}}},\n\
         \"telemetry\":{},\n\
         \"verdict\":{},\n\"failures\":[{failures_json}]\n}}\n",
        json_str(git_rev()),
        elapsed.as_secs_f64(),
        report.ops,
        report.wrong_reads,
        report.integrity_errs,
        report.destroyed_errs,
        report.quarantined_errs,
        report.unavailable_errs,
        report.transport_errs,
        report.other_errs,
        stats.injected_total,
        p50,
        p99,
        telemetry.to_json(),
        json_str(if failures.is_empty() { "pass" } else { "fail" }),
    );
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let path = format!("{out_dir}/chaos.json");
    let mut f = std::fs::File::create(&path).expect("create chaos.json");
    f.write_all(doc.as_bytes()).expect("write chaos.json");
    println!("wrote {path}");
}

// ---------------------------------------------------------------------------
// Failover mode
// ---------------------------------------------------------------------------

/// One failover-mode client: zipfian 50/50 read/write loop with the
/// retry budget enabled (so failover windows are ridden out instead of
/// surfaced), returning both its report and its final acked-value
/// model for the post-run sweep.
fn run_failover_client(
    addr: std::net::SocketAddr,
    base: u64,
    range: u64,
    ops: u64,
    seed: u64,
    done: Arc<AtomicBool>,
) -> (ClientReport, HashMap<u64, Vec<u64>>) {
    let config = ClientConfig {
        retry_budget: 64,
        op_deadline: Duration::from_secs(20),
        retry_backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    let mut client = AriaClient::connect(addr, config).expect("connect failover client");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(range, 0.99);
    let mut model: HashMap<u64, KeyModel> = HashMap::new();
    let mut report = ClientReport::default();
    report.latencies_us.reserve(ops as usize);

    for _ in 0..ops {
        if done.load(Ordering::Relaxed) {
            break;
        }
        let key_id = base + zipf.next(&mut rng);
        let key = encode_key(key_id);
        let entry =
            model.entry(key_id).or_insert(KeyModel { acceptable: vec![0], next_version: 1 });
        let is_get = rng.gen_range(0..100u64) < READ_RATIO_PCT;
        let start = Instant::now();
        if is_get {
            match client.get(&key) {
                Ok(Some(bytes)) => match decode_value(&bytes) {
                    Some((k, v)) if k == key_id && entry.acceptable.contains(&v) => {
                        entry.acceptable = vec![v];
                    }
                    _ => report.wrong_reads += 1,
                },
                Ok(None) => report.wrong_reads += 1,
                Err(e) => classify(&mut report, &e),
            }
        } else {
            let v = entry.next_version;
            entry.next_version += 1;
            match client.put(&key, &value_for(key_id, v)) {
                Ok(()) => entry.acceptable = vec![v],
                Err(e) => {
                    // The put may or may not have applied before the
                    // error: both versions stay plausible.
                    entry.acceptable.push(v);
                    classify(&mut report, &e);
                }
            }
        }
        report.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.ops += 1;
    }
    let acked = model.into_iter().map(|(k, m)| (k, m.acceptable)).collect();
    (report, acked)
}

fn all_replicas_healthy(stats: &[aria_store::sharded::GroupStats]) -> bool {
    stats.iter().all(|g| g.replicas.iter().all(|r| r.health == ShardHealth::Healthy))
}

fn run_failover(args: &Args) {
    let smoke = args.flag("smoke");
    let groups = args.get("shards", 4usize);
    let replicas = 2usize;
    let clients = args.get("clients", 4usize);
    let keys = args.get("keys", 8_192u64);
    let ops = args.get("ops", if smoke { 24_000u64 } else { 160_000 });
    let kill_floor = args.get("kills", if smoke { 4u64 } else { 20 });
    let watchdog_secs = args.get("watchdog-secs", if smoke { 240u64 } else { 600 });
    let seed = args.seed();
    let out_dir = args.out_dir();
    let listen = args.get_str("listen", "127.0.0.1:0");

    println!(
        "chaosbench[failover]: groups={groups} replicas={replicas} clients={clients} \
         keys={keys} ops={ops} kills>={kill_floor} seed={seed}"
    );

    // Injected primary kills panic under a slot lock on purpose; keep the
    // expected backtraces out of the output while letting any *other*
    // panic (a real bug) print as usual.
    const KILL_MSG: &str = "chaosbench: injected primary kill";
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains(KILL_MSG))
            .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.contains(KILL_MSG)))
            .unwrap_or(false);
        if !expected {
            default_hook(info);
        }
    }));

    // --- watchdog: no hang, ever -------------------------------------------
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(watchdog_secs);
            while !done.load(Ordering::Relaxed) {
                if Instant::now() > deadline {
                    eprintln!(
                        "chaosbench[failover]: WATCHDOG — run exceeded {watchdog_secs}s, aborting"
                    );
                    std::process::exit(2);
                }
                thread::sleep(Duration::from_millis(100));
            }
        });
    }

    // --- replicated store + kill schedule ----------------------------------
    let per_shard_keys = (keys / groups as u64) * 2 + 1_024;
    let store = Arc::new(
        ShardedStore::with_replicas(groups, replicas, move |_| {
            let suite = Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
                as Arc<dyn aria_crypto::CipherSuite>;
            AriaHash::with_suite(
                StoreConfig::for_keys(per_shard_keys),
                Arc::new(Enclave::with_default_epc()),
                Some(suite),
            )
        })
        .expect("construct replicated store"),
    );

    // The kill schedule and the divergence injection both come from the
    // deterministic chaos engine: PrimaryKill fires on every consult
    // (the killer's own health gating paces it), ReplicaDivergence only
    // when the post-run phase arms the re-sync fault hook.
    let plan = FaultPlan::new(seed)
        .with_rate(FaultSite::PrimaryKill, 10_000)
        .with_rate(FaultSite::ReplicaDivergence, 10_000)
        .with_budget(kill_floor * 8 + 64);
    let engine = ChaosEngine::new(plan);
    engine.arm(true);
    let hook_armed = Arc::new(AtomicBool::new(false));
    {
        let armed = Arc::clone(&hook_armed);
        let engine = Arc::clone(&engine);
        store.set_resync_fault_hook(move |_group| {
            armed.load(Ordering::SeqCst)
                && engine.try_inject(FaultSite::ReplicaDivergence).is_some()
        });
    }

    // --- preload: client keys + per-group probe keys ------------------------
    let probe_per_group = 8usize;
    let total_keys = keys + (groups * probe_per_group) as u64 * 4;
    let mut probe_keys: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); groups];
    let mut batch = Vec::with_capacity(512);
    for id in 0..total_keys {
        let key = encode_key(id);
        if id >= keys {
            let group = store.shard_of(&key);
            if probe_keys[group].len() < probe_per_group {
                probe_keys[group].push((id, key.to_vec()));
            }
        }
        batch.push(BatchOp::Put(key.to_vec(), value_for(id, 0)));
        if batch.len() == 512 {
            store.run_batch(std::mem::take(&mut batch));
        }
    }
    store.run_batch(batch);

    // --- server --------------------------------------------------------------
    let server = AriaServer::bind(
        listen.as_str(),
        Arc::clone(&store),
        ServerConfig::builder()
            .max_connections(clients + 8)
            .build()
            .expect("valid chaos server config"),
    )
    .expect("bind failover server");
    let addr = server.local_addr();
    println!("chaosbench[failover]: serving on {addr}");
    engine.set_telemetry(Arc::clone(&server.telemetry().chaos));

    // --- health poller + traffic pulse ---------------------------------------
    // The pulse GET is load-bearing beyond evidence gathering: it keeps
    // ops flowing (and so promotions happening) even after the clients
    // finish their budgets, so failover and re-sync keep making
    // progress.
    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let poll_done = Arc::clone(&poll_done);
        let probe_keys = probe_keys.clone();
        thread::spawn(move || {
            let mut client =
                AriaClient::connect(addr, ClientConfig::default()).expect("connect health poller");
            let mut sibling_serves = 0u64;
            let mut degraded_polls = 0u64;
            let mut promotions_seen = 0u64;
            let mut max_lag_seen = 0u64;
            let mut last_primary: Vec<Option<usize>> = vec![None; groups];
            let mut pulse_rng: u64 = 0x5151_7171;
            while !poll_done.load(Ordering::Relaxed) {
                if let Ok(reply) = client.health() {
                    // Entries are group-major: group * replicas + replica.
                    let degraded: Vec<usize> = (0..groups)
                        .filter(|g| {
                            reply.shards[g * replicas..(g + 1) * replicas]
                                .iter()
                                .any(|i| i.health() != ShardHealth::Healthy)
                        })
                        .collect();
                    for (g, last) in last_primary.iter_mut().enumerate() {
                        let entries = &reply.shards[g * replicas..(g + 1) * replicas];
                        max_lag_seen =
                            max_lag_seen.max(entries.iter().map(|i| i.lag).max().unwrap_or(0));
                        let primary = entries
                            .iter()
                            .position(|i| i.replica_role() == aria_store::ReplicaRole::Primary);
                        if let (Some(p), Some(prev)) = (primary, *last) {
                            if p != prev {
                                promotions_seen += 1;
                            }
                        }
                        if primary.is_some() {
                            *last = primary;
                        }
                    }
                    if !degraded.is_empty() {
                        degraded_polls += 1;
                        // Containment probe: a fully healthy *other* group
                        // must keep answering during this failover.
                        if let Some(&g) = (0..groups).find(|g| !degraded.contains(g)).as_ref() {
                            pulse_rng = pulse_rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let picks = &probe_keys[g];
                            if !picks.is_empty() {
                                let (id, key) = &picks[(pulse_rng % picks.len() as u64) as usize];
                                if let Ok(Some(bytes)) = client.get(key) {
                                    if decode_value(&bytes) == Some((*id, 0)) {
                                        sibling_serves += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                // Traffic pulse: one GET on the full keyspace.
                pulse_rng = pulse_rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let _ = client.get(&encode_key(pulse_rng % total_keys));
                thread::sleep(Duration::from_millis(2));
            }
            (sibling_serves, degraded_polls, promotions_seen, max_lag_seen)
        })
    };

    // --- killer: seed-scheduled primary kills, gated on group health --------
    let kills = Arc::new(AtomicU64::new(0));
    let killer_done = Arc::new(AtomicBool::new(false));
    let killer = {
        let store = Arc::clone(&store);
        let engine = Arc::clone(&engine);
        let kills = Arc::clone(&kills);
        let killer_done = Arc::clone(&killer_done);
        thread::spawn(move || {
            while !killer_done.load(Ordering::Relaxed) && kills.load(Ordering::Relaxed) < kill_floor
            {
                if let Some(entropy) = engine.try_inject(FaultSite::PrimaryKill) {
                    let g = (entropy % groups as u64) as usize;
                    let stats = store.group_stats();
                    // Only strike a fully healthy group: each kill then
                    // exercises one complete kill → promote → re-sync →
                    // re-admit cycle, and an acked write can never be
                    // stranded on a lone survivor.
                    if stats[g].replicas.iter().all(|r| r.health == ShardHealth::Healthy) {
                        let p = stats[g].primary;
                        if store.exec_detached_replica(g, p, |_st: &mut AriaHash| {
                            panic!("chaosbench: injected primary kill")
                        }) {
                            kills.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // --- run: zipfian clients across the kill schedule ----------------------
    let start = Instant::now();
    let ops_per_client = ops / clients as u64;
    let keys_per_client = keys / clients as u64;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let done = Arc::clone(&done);
            let base = c as u64 * keys_per_client;
            let cseed = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1);
            thread::spawn(move || {
                run_failover_client(addr, base, keys_per_client, ops_per_client, cseed, done)
            })
        })
        .collect();

    let mut report = ClientReport::default();
    let mut acked: HashMap<u64, Vec<u64>> = HashMap::new();
    for w in workers {
        let (r, model) = w.join().expect("failover client panicked");
        report.ops += r.ops;
        report.wrong_reads += r.wrong_reads;
        report.integrity_errs += r.integrity_errs;
        report.destroyed_errs += r.destroyed_errs;
        report.quarantined_errs += r.quarantined_errs;
        report.unavailable_errs += r.unavailable_errs;
        report.transport_errs += r.transport_errs;
        report.other_errs += r.other_errs;
        report.latencies_us.extend(r.latencies_us);
        acked.extend(model); // client key ranges are disjoint
    }
    let elapsed = start.elapsed();

    // Clients are done; the poller's pulse keeps recovery moving until
    // the kill floor is reached and every group settles.
    let kill_deadline = Instant::now() + Duration::from_secs(watchdog_secs / 2);
    while kills.load(Ordering::SeqCst) < kill_floor && Instant::now() < kill_deadline {
        thread::sleep(Duration::from_millis(5));
    }
    killer_done.store(true, Ordering::SeqCst);
    killer.join().expect("killer thread panicked");
    let kills = kills.load(Ordering::SeqCst);

    let settle_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = store.group_stats();
        let resyncs: u64 = stats.iter().map(|g| g.resyncs).sum();
        if (all_replicas_healthy(&stats) && resyncs >= kills) || Instant::now() > settle_deadline {
            assert!(
                all_replicas_healthy(&stats),
                "groups failed to settle after the kill schedule: {stats:?}"
            );
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    done.store(true, Ordering::SeqCst);

    // --- sweep: every acknowledged write must be readable --------------------
    let mut sweep_client =
        AriaClient::connect(addr, ClientConfig { retry_budget: 16, ..ClientConfig::default() })
            .expect("connect sweep client");
    let mut sweep_ok = 0u64;
    let mut sweep_wrong = 0u64;
    let preloaded = vec![0u64];
    for id in 0..keys {
        let acceptable = acked.get(&id).unwrap_or(&preloaded);
        match sweep_client.get(&encode_key(id)) {
            Ok(Some(bytes)) => match decode_value(&bytes) {
                Some((k, v)) if k == id && acceptable.contains(&v) => sweep_ok += 1,
                _ => sweep_wrong += 1,
            },
            _ => sweep_wrong += 1,
        }
    }

    // --- divergence phase: a corrupted rejoiner must never re-admit ----------
    let stats_before = store.group_stats();
    let div_group = 0usize;
    let div_primary = stats_before[div_group].primary;
    hook_armed.store(true, Ordering::SeqCst);
    store.exec_detached_replica(div_group, div_primary, |_st: &mut AriaHash| {
        panic!("chaosbench: injected primary kill")
    });
    let div_deadline = Instant::now() + Duration::from_secs(60);
    let mut diverged_detected = false;
    while Instant::now() < div_deadline {
        // Drive traffic so the kill is noticed and the re-sync runs.
        let _ = sweep_client.get(&encode_key(0));
        let g = &store.group_stats()[div_group];
        if matches!(g.last_resync_error, Some(aria_store::StoreError::ReplicaDiverged { .. })) {
            diverged_detected = true;
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    hook_armed.store(false, Ordering::SeqCst);
    // The diverged replica must stay out of service, and the survivor
    // must keep the group serving.
    thread::sleep(Duration::from_millis(100));
    let div_stats = &store.group_stats()[div_group];
    let diverged_readmitted = div_stats.resyncs > stats_before[div_group].resyncs;
    let dead_replicas = div_stats.replicas.iter().filter(|r| r.health == ShardHealth::Dead).count();
    let survivor_serves = probe_keys[div_group]
        .first()
        .map(|(id, key)| {
            matches!(sweep_client.get(key), Ok(Some(bytes))
                if decode_value(&bytes) == Some((*id, 0)))
        })
        .unwrap_or(false);

    poll_done.store(true, Ordering::SeqCst);
    let (sibling_serves, degraded_polls, promotions_seen, max_lag_seen) =
        poller.join().expect("health poller panicked");
    let telemetry = server.telemetry().snapshot();
    let group_stats = store.group_stats();
    server.shutdown();

    // --- verdict --------------------------------------------------------------
    let failovers: u64 = group_stats.iter().map(|g| g.failovers).sum();
    let resyncs: u64 = group_stats.iter().map(|g| g.resyncs).sum();
    report.latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&report.latencies_us, 0.50);
    let p99 = percentile(&report.latencies_us, 0.99);

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        if !ok {
            failures.push(msg.to_string());
        }
    };
    check(kills >= kill_floor, "primary-kill count below floor");
    check(report.wrong_reads == 0, "acknowledged-then-wrong reads observed");
    check(sweep_wrong == 0, "final sweep lost or corrupted an acknowledged write");
    check(failovers >= kills, "fewer promotions than kills");
    check(resyncs >= kills, "fewer verified re-sync cycles than kills");
    check(sibling_serves >= 1, "no sibling group served during a failover window");
    check(promotions_seen >= 1, "HEALTH opcode never observed a promotion");
    check(diverged_detected, "injected divergence was not detected as ReplicaDiverged");
    check(!diverged_readmitted, "a diverged replica was re-admitted");
    check(dead_replicas == 1, "diverged replica is not parked as Dead");
    check(survivor_serves, "survivor stopped serving after the divergence refusal");
    check(p99 < 500_000.0, "p99 latency above 500ms (hang-adjacent)");

    // --- report ---------------------------------------------------------------
    let group_rows: Vec<Vec<String>> = group_stats
        .iter()
        .map(|g| {
            vec![
                g.group.to_string(),
                g.primary.to_string(),
                g.failovers.to_string(),
                g.resyncs.to_string(),
                g.replicas
                    .iter()
                    .map(|r| format!("{}:{}", r.role, r.health))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]
        })
        .collect();
    print_table(
        "shard groups",
        &["group", "primary", "failovers", "resyncs", "replicas"],
        &group_rows,
    );
    println!(
        "ops={} elapsed={:.2}s p50={:.0}us p99={:.0}us kills={} failovers={} resyncs={} \
         wrong_reads={} sweep ok/wrong={}/{} sibling_serves={} degraded_polls={} \
         promotions_seen={} max_lag_seen={} diverged detected/readmitted={}/{}",
        report.ops,
        elapsed.as_secs_f64(),
        p50,
        p99,
        kills,
        failovers,
        resyncs,
        report.wrong_reads,
        sweep_ok,
        sweep_wrong,
        sibling_serves,
        degraded_polls,
        promotions_seen,
        max_lag_seen,
        diverged_detected,
        diverged_readmitted,
    );

    let group_json = group_stats
        .iter()
        .map(|g| {
            let replicas = g
                .replicas
                .iter()
                .map(|r| {
                    format!(
                        "{{\"replica\":{},\"role\":{},\"state\":{},\"lag\":{},\
                         \"violations\":{},\"recoveries\":{}}}",
                        r.replica,
                        json_str(&r.role.to_string()),
                        json_str(&r.health.to_string()),
                        r.lag,
                        r.violations,
                        r.recoveries
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"group\":{},\"primary\":{},\"failovers\":{},\"resyncs\":{},\
                 \"last_resync_error\":{},\"replicas\":[{replicas}]}}",
                g.group,
                g.primary,
                g.failovers,
                g.resyncs,
                match &g.last_resync_error {
                    Some(e) => json_str(&e.to_string()),
                    None => "null".to_string(),
                }
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let failures_json = failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",");
    let doc = format!(
        "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"experiment\":\"failover\",\n\
         \"git_rev\":{},\n\"seed\":{seed},\n\"elapsed_s\":{:.3},\n\
         \"groups\":{groups},\n\"replicas\":{replicas},\n\"ops\":{},\n\
         \"kills\":{kills},\n\"failovers\":{failovers},\n\"resyncs\":{resyncs},\n\
         \"wrong_reads\":{},\n\"quarantined_errors\":{},\n\"unavailable_errors\":{},\n\
         \"transport_errors\":{},\n\"other_errors\":{},\n\
         \"sweep\":{{\"ok\":{sweep_ok},\"wrong\":{sweep_wrong}}},\n\
         \"sibling_serves_during_failover\":{sibling_serves},\n\
         \"degraded_health_polls\":{degraded_polls},\n\
         \"promotions_seen_via_health\":{promotions_seen},\n\
         \"max_replica_lag_seen\":{max_lag_seen},\n\
         \"divergence\":{{\"detected\":{diverged_detected},\
         \"readmitted\":{diverged_readmitted},\"survivor_serves\":{survivor_serves}}},\n\
         \"latency_us\":{{\"p50\":{:.1},\"p99\":{:.1}}},\n\
         \"group_stats\":[{group_json}],\n\
         \"telemetry\":{},\n\
         \"verdict\":{},\n\"failures\":[{failures_json}]\n}}\n",
        json_str(git_rev()),
        elapsed.as_secs_f64(),
        report.ops,
        report.wrong_reads,
        report.quarantined_errs,
        report.unavailable_errs,
        report.transport_errs,
        report.other_errs,
        p50,
        p99,
        telemetry.to_json(),
        json_str(if failures.is_empty() { "pass" } else { "fail" }),
    );
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let path = format!("{out_dir}/failover.json");
    std::fs::write(&path, doc).expect("write failover.json");
    println!("wrote {path}");

    if failures.is_empty() {
        println!("chaosbench[failover]: PASS");
    } else {
        for f in &failures {
            eprintln!("chaosbench[failover]: FAIL — {f}");
        }
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Reshard mode
// ---------------------------------------------------------------------------

/// One reshard-mode client: the failover loop plus routing-cache
/// evidence — runs until the conductor finishes (and its op floor is
/// met) so migrations always overlap live traffic, and reports the
/// routing epoch it ended on (> 1 proves a `WRONG_SHARD` refusal
/// refreshed the cache mid-run).
fn run_reshard_client(
    addr: std::net::SocketAddr,
    base: u64,
    range: u64,
    min_ops: u64,
    seed: u64,
    done: Arc<AtomicBool>,
) -> (ClientReport, HashMap<u64, Vec<u64>>, u64) {
    let config = ClientConfig {
        retry_budget: 64,
        op_deadline: Duration::from_secs(20),
        retry_backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    let mut client = AriaClient::connect(addr, config).expect("connect reshard client");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(range, 0.99);
    let mut model: HashMap<u64, KeyModel> = HashMap::new();
    let mut report = ClientReport::default();
    report.latencies_us.reserve(min_ops as usize);

    while !done.load(Ordering::Relaxed) || report.ops < min_ops {
        let key_id = base + zipf.next(&mut rng);
        let key = encode_key(key_id);
        let entry =
            model.entry(key_id).or_insert(KeyModel { acceptable: vec![0], next_version: 1 });
        let is_get = rng.gen_range(0..100u64) < READ_RATIO_PCT;
        let start = Instant::now();
        if is_get {
            match client.get(&key) {
                Ok(Some(bytes)) => match decode_value(&bytes) {
                    Some((k, v)) if k == key_id && entry.acceptable.contains(&v) => {
                        entry.acceptable = vec![v];
                    }
                    _ => report.wrong_reads += 1,
                },
                Ok(None) => report.wrong_reads += 1,
                Err(e) => classify(&mut report, &e),
            }
        } else {
            let v = entry.next_version;
            entry.next_version += 1;
            match client.put(&key, &value_for(key_id, v)) {
                Ok(()) => entry.acceptable = vec![v],
                Err(e) => {
                    // The put may or may not have applied before the
                    // error: both versions stay plausible.
                    entry.acceptable.push(v);
                    classify(&mut report, &e);
                }
            }
        }
        report.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.ops += 1;
    }
    let epoch = client.routing_epoch();
    let acked = model.into_iter().map(|(k, m)| (k, m.acceptable)).collect();
    (report, acked, epoch)
}

/// Replay one GET for `key` over a raw connection, claiming
/// `claim_epoch` as the routing epoch — a captured-frame replay from
/// before a migration. Returns the server's answer.
fn replay_with_claim(
    addr: std::net::SocketAddr,
    key: &[u8],
    claim_epoch: u64,
) -> Option<aria_net::proto::Response> {
    use aria_net::proto::{self, Decoded, Request, RequestMeta, Response};
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    let read_one = |stream: &mut std::net::TcpStream| -> Option<Response> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Decoded::Frame(_, _, resp) = proto::decode_response(&buf).ok()? {
                return Some(resp);
            }
            let n = stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    };
    let mut out = Vec::new();
    proto::encode_request(
        &mut out,
        1,
        &Request::Hello { version: proto::PROTOCOL_VERSION, features: proto::features::SUPPORTED },
    )
    .ok()?;
    stream.write_all(&out).ok()?;
    let Response::HelloAck { .. } = read_one(&mut stream)? else {
        return None;
    };
    out.clear();
    let claim = RequestMeta { routing_epoch: claim_epoch, ..RequestMeta::default() };
    proto::encode_request_meta(&mut out, 2, &Request::Get { key: key.to_vec() }, &claim).ok()?;
    stream.write_all(&out).ok()?;
    read_one(&mut stream)
}

/// Drive one migration to commit through the chaos schedule: start it,
/// wait for the driver to settle, retry on abort. Returns the number
/// of aborts ridden through, or `None` if `deadline` passed first.
fn drive_to_commit(
    client: &mut AriaClient,
    mode: aria_store::ReshardMode,
    source: u32,
    target: u32,
    deadline: Instant,
) -> Option<u64> {
    let mut aborts = 0u64;
    loop {
        let before = client.reshard_status().expect("reshard status").committed;
        let started = match mode {
            aria_store::ReshardMode::Split => client.start_split(source, target),
            aria_store::ReshardMode::Merge => client.start_merge(source, target),
        };
        if started.is_err() {
            // Most likely "a migration is already running" (e.g. the
            // previous attempt's driver has not settled yet).
            if Instant::now() > deadline {
                return None;
            }
            thread::sleep(Duration::from_millis(5));
            continue;
        }
        let settled = loop {
            let st = client.reshard_status().expect("reshard status");
            if st.state != aria_store::ReshardState::Running.as_u8() {
                break st;
            }
            if Instant::now() > deadline {
                return None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        if settled.committed > before {
            return Some(aborts);
        }
        aborts += 1;
        if Instant::now() > deadline {
            return None;
        }
    }
}

/// Await the single-flight migration driver settling out of `Running`.
fn await_reshard_settled(client: &mut AriaClient, deadline: Instant) -> aria_net::ReshardReply {
    loop {
        let st = client.reshard_status().expect("reshard status");
        if st.state != aria_store::ReshardState::Running.as_u8() {
            return st;
        }
        assert!(Instant::now() < deadline, "migration never settled");
        thread::sleep(Duration::from_millis(2));
    }
}

fn run_reshard(args: &Args) {
    use aria_store::{ReshardFault, ReshardMode, ReshardState};

    let smoke = args.flag("smoke");
    let start_groups = args.get("shards", 4usize);
    let max_groups = start_groups * 2;
    let clients = args.get("clients", 4usize);
    let keys = args.get("keys", 8_192u64);
    let ops = args.get("ops", if smoke { 24_000u64 } else { 160_000 });
    let splits = args.get("splits", if smoke { 1u64 } else { start_groups as u64 }) as usize;
    assert!(splits >= 1 && splits <= start_groups, "--splits must be in 1..=--shards");
    let watchdog_secs = args.get("watchdog-secs", if smoke { 300u64 } else { 1_800 });
    let tamper_rate = args.get("tamper-rate", 2_500u32);
    let kill_rate = args.get("kill-rate", 800u32);
    let budget = args.get("budget", 32u64);
    let seed = args.seed();
    let out_dir = args.out_dir();
    let listen = args.get_str("listen", "127.0.0.1:0");

    println!(
        "chaosbench[reshard]: groups={start_groups}->{} clients={clients} keys={keys} \
         ops>={ops} splits={splits} tamper-rate={tamper_rate} kill-rate={kill_rate} seed={seed}",
        start_groups + splits,
    );

    // Injected target kills panic under a slot lock on purpose; keep the
    // expected backtraces quiet while any other panic prints as usual.
    const KILL_MSG: &str = "injected reshard target kill";
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains(KILL_MSG))
            .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.contains(KILL_MSG)))
            .unwrap_or(false);
        if !expected {
            default_hook(info);
        }
    }));

    // --- watchdog: no hang, ever -------------------------------------------
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(watchdog_secs);
            while !done.load(Ordering::Relaxed) {
                if Instant::now() > deadline {
                    eprintln!(
                        "chaosbench[reshard]: WATCHDOG — run exceeded {watchdog_secs}s, aborting"
                    );
                    std::process::exit(2);
                }
                thread::sleep(Duration::from_millis(100));
            }
        });
    }

    // --- elastic store + chaos-consulting fault hook ------------------------
    let per_shard_keys = (keys / start_groups as u64) * 2 + 1_024;
    let store = Arc::new(
        ShardedStore::with_elastic(start_groups, max_groups, 1, move |_| {
            let suite = Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
                as Arc<dyn aria_crypto::CipherSuite>;
            AriaHash::with_suite(
                StoreConfig::for_keys(per_shard_keys),
                Arc::new(Enclave::with_default_epc()),
                Some(suite),
            )
        })
        .expect("construct elastic store"),
    );

    let plan = FaultPlan::new(seed)
        .with_rate(FaultSite::MigrationStreamTamper, tamper_rate)
        .with_rate(FaultSite::TargetKill, kill_rate)
        .with_rate(FaultSite::StaleEpochReplay, FaultPlan::RATE_SCALE)
        .with_budget(budget);
    let engine = ChaosEngine::new(plan);
    engine.arm(true);
    // The migration driver consults this hook at its two injection
    // points. Scripted one-shot faults take precedence (they prove the
    // abort contract deterministically); otherwise the seed-scheduled
    // engine decides, but only while ride-along chaos is armed, so the
    // scripted phases observe exactly the fault they injected.
    let force_tamper = Arc::new(AtomicBool::new(false));
    let force_kill = Arc::new(AtomicBool::new(false));
    let ride_along = Arc::new(AtomicBool::new(false));
    let tamper_fires = Arc::new(AtomicU64::new(0));
    let kill_fires = Arc::new(AtomicU64::new(0));
    {
        let engine = Arc::clone(&engine);
        let (force_tamper, force_kill) = (Arc::clone(&force_tamper), Arc::clone(&force_kill));
        let ride_along = Arc::clone(&ride_along);
        let (tamper_fires, kill_fires) = (Arc::clone(&tamper_fires), Arc::clone(&kill_fires));
        store.set_reshard_fault_hook(move |f| {
            let (forced, site, fires) = match f {
                ReshardFault::TamperStream => {
                    (&force_tamper, FaultSite::MigrationStreamTamper, &tamper_fires)
                }
                ReshardFault::KillTarget => (&force_kill, FaultSite::TargetKill, &kill_fires),
            };
            let fire = forced.swap(false, Ordering::SeqCst)
                || (ride_along.load(Ordering::SeqCst) && engine.try_inject(site).is_some());
            if fire {
                fires.fetch_add(1, Ordering::SeqCst);
            }
            fire
        });
    }

    // --- preload: client keys + probe keys the clients never write ----------
    let probe_count = 64u64;
    let total_keys = keys + probe_count;
    let mut batch = Vec::with_capacity(512);
    for id in 0..total_keys {
        batch.push(BatchOp::Put(encode_key(id).to_vec(), value_for(id, 0)));
        if batch.len() == 512 {
            store.run_batch(std::mem::take(&mut batch));
        }
    }
    store.run_batch(batch);
    let probe_ids: Vec<u64> = (keys..total_keys).collect();

    // --- server (flight recorder armed: aborts must leave a post-mortem) ----
    let flight_dir = std::path::PathBuf::from(format!("{out_dir}/flight-reshard"));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let server = AriaServer::bind(
        listen.as_str(),
        Arc::clone(&store),
        ServerConfig::builder()
            .max_connections(clients + 8)
            .flight_dir(Some(flight_dir.clone()))
            .build()
            .expect("valid reshard server config"),
    )
    .expect("bind reshard server");
    let addr = server.local_addr();
    println!("chaosbench[reshard]: serving on {addr}");
    engine.set_telemetry(Arc::clone(&server.telemetry().chaos));

    // --- epoch observer: watches the control plane from outside -------------
    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let poll_done = Arc::clone(&poll_done);
        thread::spawn(move || {
            let mut client =
                AriaClient::connect(addr, ClientConfig::default()).expect("connect epoch poller");
            let mut max_epoch = 0u64;
            let mut running_polls = 0u64;
            let mut serves_during_migration = 0u64;
            let mut pulse_rng: u64 = 0x6b6b_2121;
            while !poll_done.load(Ordering::Relaxed) {
                if let Ok(st) = client.reshard_status() {
                    max_epoch = max_epoch.max(st.epoch);
                    if st.state == aria_store::ReshardState::Running.as_u8() {
                        running_polls += 1;
                        // The store must keep serving mid-migration:
                        // probe a key the clients never touch.
                        pulse_rng = pulse_rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let id = keys + pulse_rng % probe_count;
                        if let Ok(Some(bytes)) = client.get(&encode_key(id)) {
                            if decode_value(&bytes) == Some((id, 0)) {
                                serves_during_migration += 1;
                            }
                        }
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
            (max_epoch, running_polls, serves_during_migration)
        })
    };

    // --- clients: zipfian churn across every flip ----------------------------
    let start = Instant::now();
    let ops_per_client = ops / clients as u64;
    let keys_per_client = keys / clients as u64;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let done = Arc::clone(&done);
            let base = c as u64 * keys_per_client;
            let cseed = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1);
            thread::spawn(move || {
                run_reshard_client(addr, base, keys_per_client, ops_per_client, cseed, done)
            })
        })
        .collect();

    // --- conductor: scripted aborts, then the split/merge schedule ----------
    let mut ctl = AriaClient::connect(addr, ClientConfig::default()).expect("connect conductor");
    let deadline = Instant::now() + Duration::from_secs(watchdog_secs.saturating_sub(60).max(60));
    let probe_key = encode_key(probe_ids[0]);
    let probe_serves = |ctl: &mut AriaClient| -> bool {
        matches!(ctl.get(&probe_key), Ok(Some(bytes))
            if decode_value(&bytes) == Some((probe_ids[0], 0)))
    };

    // Scripted abort #1: a tampered copy stream. The content-root
    // handoff check must catch it, the old epoch must keep serving, and
    // the half-built target must leave no trace.
    let before = ctl.reshard_status().expect("reshard status");
    force_tamper.store(true, Ordering::SeqCst);
    ctl.start_split(0, start_groups as u32).expect("start tampered split");
    let st = await_reshard_settled(&mut ctl, deadline);
    let tamper_abort_clean = st.state == ReshardState::Aborted.as_u8()
        && st.aborted == before.aborted + 1
        && st.committed == before.committed
        && st.epoch == before.epoch
        && store.active_shards() == start_groups
        && store.routing().owned_slots(start_groups).is_empty()
        && matches!(
            store.reshard_status().last_error,
            Some(aria_store::StoreError::ReplicaDiverged { .. })
        )
        && probe_serves(&mut ctl);
    println!(
        "chaosbench[reshard]: scripted tamper abort {} (epoch {} unchanged)",
        if tamper_abort_clean { "clean" } else { "DIRTY" },
        st.epoch,
    );

    // Scripted abort #2: the target's primary dies mid-copy. Same
    // contract: abort, no epoch movement, no target residue.
    let before = ctl.reshard_status().expect("reshard status");
    force_kill.store(true, Ordering::SeqCst);
    ctl.start_split(0, start_groups as u32).expect("start killed split");
    let st = await_reshard_settled(&mut ctl, deadline);
    let kill_abort_clean = st.state == ReshardState::Aborted.as_u8()
        && st.aborted == before.aborted + 1
        && st.committed == before.committed
        && st.epoch == before.epoch
        && store.active_shards() == start_groups
        && store.routing().owned_slots(start_groups).is_empty()
        && probe_serves(&mut ctl);
    println!(
        "chaosbench[reshard]: scripted target-kill abort {} (epoch {} unchanged)",
        if kill_abort_clean { "clean" } else { "DIRTY" },
        st.epoch,
    );

    // The split/merge schedule, with seed-scheduled tampering and kills
    // riding along (each abort is retried until the migration commits).
    ride_along.store(true, Ordering::SeqCst);
    let mut ride_along_aborts = 0u64;
    let mut commits = 0u64;
    for i in 0..splits {
        let (s, t) = (i as u32, (start_groups + i) as u32);
        let aborts = drive_to_commit(&mut ctl, ReshardMode::Split, s, t, deadline)
            .unwrap_or_else(|| panic!("split {s}->{t} never committed"));
        ride_along_aborts += aborts;
        commits += 1;
        println!("chaosbench[reshard]: split {s}->{t} committed after {aborts} abort(s)");
    }

    // Stale-epoch replays: frames captured before the splits, played
    // back against the post-split table. Every one must draw a typed
    // WRONG_SHARD refusal; a refreshed claim on the same key must work.
    let moved_key = (0..total_keys)
        .map(encode_key)
        .find(|k| store.stale_claim(k, 1).is_some())
        .expect("splits moved at least one key");
    let mut replays_attempted = 0u64;
    let mut replays_refused = 0u64;
    for _ in 0..8 {
        if engine.try_inject(FaultSite::StaleEpochReplay).is_none() {
            continue;
        }
        replays_attempted += 1;
        match replay_with_claim(addr, &moved_key, 1) {
            Some(aria_net::proto::Response::WrongShard { .. }) => replays_refused += 1,
            other => eprintln!("chaosbench[reshard]: stale replay was not refused: {other:?}"),
        }
    }
    let fresh_claim_serves = matches!(
        replay_with_claim(addr, &moved_key, store.routing_epoch()),
        Some(aria_net::proto::Response::Value(Some(_)))
    );
    println!(
        "chaosbench[reshard]: {replays_refused}/{replays_attempted} stale replays refused, \
         fresh claim serves={fresh_claim_serves}"
    );

    for i in (0..splits).rev() {
        let (s, t) = ((start_groups + i) as u32, i as u32);
        let aborts = drive_to_commit(&mut ctl, ReshardMode::Merge, s, t, deadline)
            .unwrap_or_else(|| panic!("merge {s}->{t} never committed"));
        ride_along_aborts += aborts;
        commits += 1;
        println!("chaosbench[reshard]: merge {s}->{t} committed after {aborts} abort(s)");
    }
    done.store(true, Ordering::SeqCst);

    // --- join clients, merge models ------------------------------------------
    let mut report = ClientReport::default();
    let mut acked: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut max_client_epoch = 0u64;
    for w in workers {
        let (r, model, epoch) = w.join().expect("reshard client panicked");
        report.ops += r.ops;
        report.wrong_reads += r.wrong_reads;
        report.integrity_errs += r.integrity_errs;
        report.destroyed_errs += r.destroyed_errs;
        report.quarantined_errs += r.quarantined_errs;
        report.unavailable_errs += r.unavailable_errs;
        report.transport_errs += r.transport_errs;
        report.other_errs += r.other_errs;
        report.latencies_us.extend(r.latencies_us);
        acked.extend(model); // client key ranges are disjoint
        max_client_epoch = max_client_epoch.max(epoch);
    }
    let elapsed = start.elapsed();

    // --- sweep: every acknowledged write must still be readable --------------
    let mut sweep_client =
        AriaClient::connect(addr, ClientConfig { retry_budget: 16, ..ClientConfig::default() })
            .expect("connect sweep client");
    let mut sweep_ok = 0u64;
    let mut sweep_wrong = 0u64;
    let preloaded = vec![0u64];
    for id in 0..total_keys {
        let acceptable = acked.get(&id).unwrap_or(&preloaded);
        match sweep_client.get(&encode_key(id)) {
            Ok(Some(bytes)) => match decode_value(&bytes) {
                Some((k, v)) if k == id && acceptable.contains(&v) => sweep_ok += 1,
                _ => sweep_wrong += 1,
            },
            _ => sweep_wrong += 1,
        }
    }

    // --- flight dump: the scripted aborts must leave a post-mortem ----------
    let dump_deadline = Instant::now() + Duration::from_secs(30);
    let abort_dump = loop {
        match newest_flight_dump(&flight_dir) {
            Some((count, path, dump)) if dump.contains("\"reshard_abort\"") => {
                println!(
                    "flight recorder: {count} dump(s), newest {} records the abort",
                    path.display()
                );
                break Some(dump);
            }
            _ if Instant::now() > dump_deadline => break None,
            _ => thread::sleep(Duration::from_millis(100)),
        }
    };

    poll_done.store(true, Ordering::SeqCst);
    let (max_epoch_polled, running_polls, serves_during_migration) =
        poller.join().expect("epoch poller panicked");
    let status = store.reshard_status();
    let telemetry = server.telemetry().snapshot();
    server.shutdown();

    // --- verdict --------------------------------------------------------------
    let final_epoch = status.epoch;
    report.latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&report.latencies_us, 0.50);
    let p99 = percentile(&report.latencies_us, 0.99);

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        if !ok {
            failures.push(msg.to_string());
        }
    };
    check(report.wrong_reads == 0, "acknowledged-then-wrong reads observed");
    check(sweep_wrong == 0, "final sweep lost or corrupted an acknowledged write");
    check(tamper_abort_clean, "tampered-stream migration did not abort cleanly");
    check(kill_abort_clean, "target-kill migration did not abort cleanly");
    check(status.committed == commits && commits == 2 * splits as u64, "commit count mismatch");
    check(final_epoch == 1 + commits, "epoch did not advance exactly once per commit");
    check(store.active_shards() == start_groups, "group count did not return to the start");
    check(status.aborted >= 2, "fewer than the two scripted aborts were recorded");
    check(replays_attempted >= 1, "no stale-epoch replay was attempted");
    check(replays_refused == replays_attempted, "a stale-epoch replay was not refused");
    check(fresh_claim_serves, "a fresh-epoch claim on a moved key was refused");
    check(max_client_epoch > 1, "no client routing cache was refreshed by a WRONG_SHARD refusal");
    check(max_epoch_polled == final_epoch, "RESHARD status never exposed the final epoch");
    check(running_polls >= 1, "RESHARD status never observed a running migration");
    check(serves_during_migration >= 1, "no probe was served mid-migration");
    check(abort_dump.is_some(), "scripted aborts left no flight-recorder post-mortem");
    check(p99 < 500_000.0, "p99 latency above 500ms (hang-adjacent)");

    // --- report ---------------------------------------------------------------
    println!(
        "ops={} elapsed={:.2}s p50={:.0}us p99={:.0}us commits={} aborts={} \
         (scripted=2 ride-along={}) tamper_fires={} kill_fires={} epoch={} \
         wrong_reads={} sweep ok/wrong={}/{} max_client_epoch={} replays {}/{}",
        report.ops,
        elapsed.as_secs_f64(),
        p50,
        p99,
        status.committed,
        status.aborted,
        ride_along_aborts,
        tamper_fires.load(Ordering::SeqCst),
        kill_fires.load(Ordering::SeqCst),
        final_epoch,
        report.wrong_reads,
        sweep_ok,
        sweep_wrong,
        max_client_epoch,
        replays_refused,
        replays_attempted,
    );

    let failures_json = failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",");
    let doc = format!(
        "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"experiment\":\"reshard\",\n\
         \"git_rev\":{},\n\"seed\":{seed},\n\"elapsed_s\":{:.3},\n\
         \"groups_start\":{start_groups},\n\"groups_max\":{max_groups},\n\
         \"splits\":{splits},\n\"merges\":{splits},\n\"ops\":{},\n\
         \"migrations\":{{\"started\":{},\"committed\":{},\"aborted\":{},\
         \"ride_along_aborts\":{ride_along_aborts},\
         \"tamper_fires\":{},\"kill_fires\":{}}},\n\
         \"scripted_aborts\":{{\"tamper_clean\":{tamper_abort_clean},\
         \"target_kill_clean\":{kill_abort_clean}}},\n\
         \"routing\":{{\"final_epoch\":{final_epoch},\
         \"max_epoch_polled\":{max_epoch_polled},\
         \"max_client_epoch\":{max_client_epoch},\
         \"running_polls\":{running_polls},\
         \"serves_during_migration\":{serves_during_migration}}},\n\
         \"stale_replays\":{{\"attempted\":{replays_attempted},\
         \"refused\":{replays_refused},\"fresh_claim_serves\":{fresh_claim_serves}}},\n\
         \"wrong_reads\":{},\n\"quarantined_errors\":{},\n\"unavailable_errors\":{},\n\
         \"transport_errors\":{},\n\"other_errors\":{},\n\
         \"sweep\":{{\"ok\":{sweep_ok},\"wrong\":{sweep_wrong}}},\n\
         \"abort_flight_dump\":{},\n\
         \"latency_us\":{{\"p50\":{:.1},\"p99\":{:.1}}},\n\
         \"telemetry\":{},\n\
         \"verdict\":{},\n\"failures\":[{failures_json}]\n}}\n",
        json_str(git_rev()),
        elapsed.as_secs_f64(),
        report.ops,
        status.started,
        status.committed,
        status.aborted,
        tamper_fires.load(Ordering::SeqCst),
        kill_fires.load(Ordering::SeqCst),
        report.wrong_reads,
        report.quarantined_errs,
        report.unavailable_errs,
        report.transport_errs,
        report.other_errs,
        abort_dump.is_some(),
        p50,
        p99,
        telemetry.to_json(),
        json_str(if failures.is_empty() { "pass" } else { "fail" }),
    );
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let path = format!("{out_dir}/reshard.json");
    std::fs::write(&path, doc).expect("write reshard.json");
    println!("wrote {path}");

    if failures.is_empty() {
        println!("chaosbench[reshard]: PASS");
    } else {
        for f in &failures {
            eprintln!("chaosbench[reshard]: FAIL — {f}");
        }
        std::process::exit(1);
    }
}
