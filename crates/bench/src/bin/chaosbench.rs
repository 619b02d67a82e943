//! chaosbench — end-to-end robustness harness for the untrusted boundary.
//!
//! One driver runs three scenarios. Each scenario brings its own store,
//! its own adversary and its own checks; the driver gives all three the
//! same zipfian 50/50 model clients over the real TCP service layer, the
//! same watchdog, the same final sweep and the same verdict:
//!
//! * **no panic, no hang** — a watchdog kills the run (exit 2) if it
//!   outlives its deadline;
//! * **no acknowledged-then-wrong read** — every client keeps the set of
//!   versions each of its keys may legally hold (the last acked write,
//!   plus any write whose outcome an error left in doubt); a `GET` must
//!   return one of them, never a wrong, stale or silently missing value;
//! * **the sweep** — after the run, every key is read once more and
//!   checked against the merged model the same way (a never-written key
//!   must still hold its preloaded version 0). An error without a wire
//!   code (a transport failure) counts as wrong; only the plain scenario,
//!   whose adversary legitimately destroys entries, accepts a typed error;
//! * **p99 below 500 ms**, and a document at `<out>/<experiment>.json`
//!   whose `verdict` is `pass`; any failed check exits 1.
//!
//! ```sh
//! cargo run --release -p aria-bench --bin chaosbench -- \
//!     [--failover | --reshard] [--shards 4] [--clients 4] [--keys 8192] \
//!     [--ops N] [--watchdog-secs N] [--smoke] [--seed N] [--out results] \
//!     [--listen 127.0.0.1:0]
//! ```
//!
//! `--listen` pins the server address (default: an ephemeral loopback
//! port) so a live `ariatop --addr <listen>` can watch shard health,
//! hit ratios and the quarantine → recovery cycle during the run; the
//! bound address is printed either way. The committed `BENCH_chaos.json`,
//! `BENCH_failover.json` and `BENCH_reshard.json` are snapshots of full
//! default runs.
//!
//! ## Plain scenario (default; `chaos.json`)
//!
//! Sharded `AriaHash` under a deterministic, seed-scheduled adversary
//! (`aria-chaos`): bit flips and torn writes on the sealed-entry write
//! path (`HeapInjector`, `--heap-rate`), and a driver thread delivering
//! stale Merkle-node replays, node flips, index-connection pointer swaps
//! and free-list metadata tampering (`--driver-rate`, `--budget`). It
//! asserts
//!
//! * **containment** — a violation quarantines only its shard; siblings
//!   keep serving (probed live via the `METRICS` opcode while a shard is
//!   down) and at least one full quarantine → recovery → re-admission
//!   cycle is observed;
//! * **accountability** — every injected fault is either detected
//!   (typed violation, shard quarantine, final-audit destruction) or
//!   provably masked (the post-run audit re-verifies every surviving
//!   entry and the sweep finds no wrong answers).
//!
//! `--trace-sample N` samples client requests; `--flight-dir` arms the
//! flight recorder, and the quarantine cycle must then leave an anomaly
//! post-mortem there.
//!
//! ## Failover scenario (`--failover`; `failover.json`)
//!
//! Every shard group runs a primary plus a synchronous backup, and a
//! seed-scheduled killer panics acting primaries mid-load (≥ `--kills`,
//! only when the whole group is healthy so each kill exercises a
//! complete cycle). It asserts
//!
//! * **zero acknowledged-write loss** across promotion and re-admission;
//! * **sibling service** — other groups keep answering (probed via
//!   `METRICS` + live `GET`s) during every failover window;
//! * **verified re-admission** — each kill completes a
//!   kill → promote → re-sync → re-admit cycle whose content roots
//!   matched (the `resyncs` counter only advances on a root match);
//! * **divergence refusal** — a scripted post-run divergence injection
//!   (`FaultSite::ReplicaDivergence` via the store's re-sync fault
//!   hook) is detected as `ReplicaDiverged` and the replica is never
//!   re-admitted.
//!
//! ## Reshard scenario (`--reshard`; `reshard.json`)
//!
//! An elastic store starts with `--shards` active groups (twice that
//! many sized), clients with routing caches churn it, and a conductor
//! splits `--splits` groups, then merges them back — while the chaos
//! engine tampers with migration copy streams
//! ([`FaultSite::MigrationStreamTamper`]), kills targets mid-copy
//! ([`FaultSite::TargetKill`]) and replays data ops stamped with
//! pre-migration routing epochs ([`FaultSite::StaleEpochReplay`]). It
//! asserts
//!
//! * **zero acked-write loss across every flip**;
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

use std::collections::HashMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aria_bench::{newest_flight_dump, percentile, print_table, write_doc, Args, Obj};
use aria_chaos::{ChaosEngine, FaultPlan, FaultSite, HeapInjector, SITE_COUNT};
use aria_merkle::NodeId;
use aria_net::{AriaClient, ClientConfig, ErrorCode, NetError};
use aria_net::{AriaServer, ServerConfig};
use aria_sim::Enclave;
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{
    AriaHash, KvStore, RecoveryReport, ReplicaRole, ShardHealth, StoreConfig, StoreError,
};
use aria_telemetry::{ReplicaServing, TelemetrySnapshot};
use aria_workload::{encode_key, ScrambledZipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VALUE_LEN: usize = 16;
const READ_RATIO_PCT: u64 = 50;

fn main() {
    let args = Args::parse();
    if args.flag("failover") {
        failover(&args);
    } else if args.flag("reshard") {
        reshard(&args);
    } else {
        plain(&args);
    }
}

// ---------------------------------------------------------------------------
// The driver: what every scenario shares
// ---------------------------------------------------------------------------

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

/// The settings every scenario reads the same way, and the flag the
/// watchdog, the clients and the adversaries watch.
struct Driver {
    /// Prefix of every console line (`chaosbench[failover]`, ...).
    tag: &'static str,
    clients: usize,
    keys: u64,
    seed: u64,
    out_dir: String,
    listen: String,
    watchdog_secs: u64,
    done: Arc<AtomicBool>,
}

impl Driver {
    /// Read the shared settings and start the watchdog: a run that
    /// outlives `--watchdog-secs` exits 2, whatever it is stuck on.
    fn start(args: &Args, tag: &'static str, watchdog_secs: u64) -> Driver {
        let secs = args.get("watchdog-secs", watchdog_secs);
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(secs);
                while !done.load(Ordering::Relaxed) {
                    if Instant::now() > deadline {
                        eprintln!("{tag}: WATCHDOG — run exceeded {secs}s, aborting");
                        std::process::exit(2);
                    }
                    thread::sleep(Duration::from_millis(100));
                }
            });
        }
        Driver {
            tag,
            clients: args.get("clients", 4usize),
            keys: args.get("keys", 8_192u64),
            seed: args.seed(),
            out_dir: args.out_dir(),
            listen: args.get_str("listen", "127.0.0.1:0"),
            watchdog_secs: secs,
            done,
        }
    }

    /// Keep the backtraces of a scenario's own injected panics (payload
    /// containing `msg`) out of the output; any other panic is a real
    /// bug and prints as usual.
    fn expect_panics(msg: &'static str) {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !text.is_some_and(|s| s.contains(msg)) {
                default_hook(info);
            }
        }));
    }

    /// Write `value_for(id, 0)` for every id in `ids`.
    fn preload(store: &ShardedStore<AriaHash>, ids: Range<u64>) {
        let mut batch = Vec::with_capacity(512);
        for id in ids {
            batch.push(BatchOp::Put(encode_key(id).to_vec(), value_for(id, 0)));
            if batch.len() == 512 {
                store.run_batch(std::mem::take(&mut batch));
            }
        }
        store.run_batch(batch);
    }

    /// Serve `store` on `--listen` with room for the clients and the
    /// scenario's own probes, and route the chaos engine's injection
    /// counts into the server's METRICS.
    fn serve(
        &self,
        store: &Arc<ShardedStore<AriaHash>>,
        engine: &ChaosEngine,
        flight_dir: Option<std::path::PathBuf>,
    ) -> AriaServer {
        let server = AriaServer::bind(
            self.listen.as_str(),
            Arc::clone(store),
            ServerConfig::builder()
                .max_connections(self.clients + 8)
                .flight_dir(flight_dir)
                .build()
                .expect("valid chaos server config"),
        )
        .expect("bind chaos server");
        println!("{}: serving on {}", self.tag, server.local_addr());
        engine.set_telemetry(Arc::clone(&server.telemetry().chaos));
        server
    }

    /// Start `--clients` model clients, each on its own slice of the
    /// first `--keys` ids, splitting `stop`'s op count between them.
    fn spawn_clients(&self, addr: SocketAddr, config: ClientConfig, stop: Stop) -> Clients {
        let n = self.clients as u64;
        let range = self.keys / n;
        let start = Instant::now();
        let workers = (0..n)
            .map(|c| {
                let done = Arc::clone(&self.done);
                let seed = self.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c + 1);
                let (config, stop) = (config.clone(), stop.per_client(n));
                thread::spawn(move || run_client(addr, config, c * range, range, seed, stop, &done))
            })
            .collect();
        Clients { start, workers }
    }

    /// Finish a scenario: add the checks every scenario shares to its
    /// own, write `<out>/<experiment>.json` (the shared fields, then
    /// `fields`), print the verdict, and exit 1 on any failed check.
    fn conclude(&self, experiment: &str, run: &Run, mut checks: Checks, fields: Obj) {
        let r = &run.report;
        let (p50, p99) = run.latency();
        checks.check(r.wrong_reads == 0, "acknowledged-then-wrong reads observed");
        checks.check(run.sweep.wrong == 0, "final sweep lost or corrupted an acknowledged write");
        checks.check(p99.is_nan() || p99 < 500_000.0, "p99 latency above 500ms (hang-adjacent)");
        let failures = checks.0;
        let doc = Obj::new()
            .field("seed", self.seed)
            .field("elapsed_s", run.elapsed.as_secs_f64())
            .field("ops", r.ops)
            .field("wrong_reads", r.wrong_reads)
            .field("quarantined_errors", r.quarantined_errs)
            .field("unavailable_errors", r.unavailable_errs)
            .field("transport_errors", r.transport_errs)
            .field("other_errors", r.other_errs)
            .field("sweep", run.sweep.to_json())
            .field("latency_us", Obj::new().field("p50", p50).field("p99", p99))
            .extend(fields)
            .field("telemetry", &run.telemetry)
            .field("verdict", if failures.is_empty() { "pass" } else { "fail" })
            .field("failures", &failures);
        write_doc(&self.out_dir, experiment, doc);
        if failures.is_empty() {
            println!("{}: PASS", self.tag);
        } else {
            for f in &failures {
                eprintln!("{}: FAIL — {f}", self.tag);
            }
            std::process::exit(1);
        }
    }
}

/// One shard replica: `AriaHash` sized for twice its share of the keys,
/// under the harness-only fast cipher suite.
fn shard_store(
    keys: u64,
    groups: usize,
) -> impl Fn(usize) -> Result<AriaHash, StoreError> + Send + Sync + 'static {
    let per_shard_keys = (keys / groups as u64) * 2 + 1_024;
    move |_| {
        let suite = Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
            as Arc<dyn aria_crypto::CipherSuite>;
        AriaHash::with_suite(
            StoreConfig::for_keys(per_shard_keys),
            Arc::new(Enclave::with_default_epc()),
            Some(suite),
        )
    }
}

/// When a model client stops issuing ops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many ops, or as soon as the run is done.
    Cap(u64),
    /// Not before the run is done, and not before this many ops (so a
    /// scenario's adversary always overlaps live traffic).
    Floor(u64),
}

impl Stop {
    /// One of `clients` clients' share.
    fn per_client(self, clients: u64) -> Stop {
        match self {
            Stop::Cap(n) => Stop::Cap(n / clients),
            Stop::Floor(n) => Stop::Floor(n / clients),
        }
    }

    fn go(self, ops: u64, done: bool) -> bool {
        match self {
            Stop::Cap(n) => !done && ops < n,
            Stop::Floor(n) => !done || ops < n,
        }
    }
}

/// The client config of the scenarios whose refusals are transient:
/// ride failover and migration windows out with retries.
fn retrying() -> ClientConfig {
    ClientConfig {
        retry_budget: 64,
        op_deadline: Duration::from_secs(20),
        retry_backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    }
}

/// Per-key client-side model: the set of versions a read may legally
/// return. Usually one (the last acked write); a put that failed or
/// timed out may or may not have applied, so its version joins the set
/// until a successful read re-synchronizes.
struct KeyModel {
    acceptable: Vec<u64>,
    next_version: u64,
}

/// What the model clients saw, merged.
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
    /// Per key id: the versions a read may still legally return.
    acked: HashMap<u64, Vec<u64>>,
    /// The highest routing epoch a client's cache ended on.
    routing_epoch: u64,
}

impl ClientReport {
    fn classify(&mut self, err: &NetError) {
        match err.code() {
            Some(c) if (c as u16) >= 1 && (c as u16) <= 6 => self.integrity_errs += 1,
            Some(ErrorCode::DataDestroyed) => self.destroyed_errs += 1,
            Some(ErrorCode::ShardQuarantined) => self.quarantined_errs += 1,
            Some(ErrorCode::ShardUnavailable) => self.unavailable_errs += 1,
            Some(_) => self.other_errs += 1,
            None => self.transport_errs += 1,
        }
    }

    fn absorb(&mut self, other: ClientReport) {
        self.ops += other.ops;
        self.wrong_reads += other.wrong_reads;
        self.integrity_errs += other.integrity_errs;
        self.destroyed_errs += other.destroyed_errs;
        self.quarantined_errs += other.quarantined_errs;
        self.unavailable_errs += other.unavailable_errs;
        self.transport_errs += other.transport_errs;
        self.other_errs += other.other_errs;
        self.latencies_us.extend(other.latencies_us);
        self.acked.extend(other.acked); // client key ranges are disjoint
        self.routing_epoch = self.routing_epoch.max(other.routing_epoch);
    }
}

/// One model client: zipfian 50/50 read/write loop over its own key
/// range, checking every read against its acked-version model.
fn run_client(
    addr: SocketAddr,
    config: ClientConfig,
    base: u64,
    range: u64,
    seed: u64,
    stop: Stop,
    done: &AtomicBool,
) -> ClientReport {
    let mut client = AriaClient::connect(addr, config).expect("connect chaos client");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(range, 0.99);
    let mut model: HashMap<u64, KeyModel> = HashMap::new();
    let mut report = ClientReport::default();

    while stop.go(report.ops, done.load(Ordering::Relaxed)) {
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
                Err(e) => report.classify(&e),
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
                    report.classify(&e);
                }
            }
        }
        report.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.ops += 1;
    }
    report.routing_epoch = client.routing_epoch();
    report.acked = model.into_iter().map(|(k, m)| (k, m.acceptable)).collect();
    report
}

/// Running model clients.
struct Clients {
    start: Instant,
    workers: Vec<JoinHandle<ClientReport>>,
}

impl Clients {
    /// Join every client; the merged report (latencies sorted) and the
    /// wall time since the clients started.
    fn join(self) -> (ClientReport, Duration) {
        let mut report = ClientReport::default();
        for w in self.workers {
            report.absorb(w.join().expect("model client panicked"));
        }
        report.latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        (report, self.start.elapsed())
    }
}

/// The final sweep's tally.
struct Sweep {
    ok: u64,
    /// Typed errors, counted only where the scenario accepts them.
    typed: Option<u64>,
    wrong: u64,
}

impl Sweep {
    /// Read every key in `ids` once more and check it against the
    /// merged model: the value must carry the key's id and a version in
    /// its acceptable set (version 0 for a key no client wrote). A
    /// missing value, or an error without a wire code, is wrong; a
    /// typed error is wrong too unless `typed_ok`.
    fn run(
        client: &mut AriaClient,
        ids: Range<u64>,
        acked: &HashMap<u64, Vec<u64>>,
        typed_ok: bool,
    ) -> Sweep {
        let (mut ok, mut typed, mut wrong) = (0, 0, 0);
        for id in ids {
            let acceptable = acked.get(&id).map_or(&[0][..], Vec::as_slice);
            match client.get(&encode_key(id)) {
                Ok(Some(bytes)) => match decode_value(&bytes) {
                    Some((k, v)) if k == id && acceptable.contains(&v) => ok += 1,
                    _ => wrong += 1,
                },
                Err(e) if typed_ok && e.code().is_some() => typed += 1,
                _ => wrong += 1,
            }
        }
        Sweep { ok, typed: typed_ok.then_some(typed), wrong }
    }

    fn to_json(&self) -> Obj {
        let obj = Obj::new().field("ok", self.ok).field("wrong", self.wrong);
        match self.typed {
            Some(typed) => obj.field("typed_errors", typed),
            None => obj,
        }
    }

    fn summary(&self) -> String {
        match self.typed {
            Some(typed) => format!("sweep ok/typed/wrong={}/{typed}/{}", self.ok, self.wrong),
            None => format!("sweep ok/wrong={}/{}", self.ok, self.wrong),
        }
    }
}

/// The client side of a finished scenario.
struct Run {
    report: ClientReport,
    elapsed: Duration,
    sweep: Sweep,
    telemetry: TelemetrySnapshot,
}

impl Run {
    /// Client latency p50 and p99, microseconds.
    fn latency(&self) -> (f64, f64) {
        (percentile(&self.report.latencies_us, 0.50), percentile(&self.report.latencies_us, 0.99))
    }

    /// The start of every scenario's summary line.
    fn summary(&self) -> String {
        let (p50, p99) = self.latency();
        format!(
            "ops={} elapsed={:.2}s p50={p50:.0}us p99={p99:.0}us wrong_reads={} {}",
            self.report.ops,
            self.elapsed.as_secs_f64(),
            self.report.wrong_reads,
            self.sweep.summary(),
        )
    }
}

/// A scenario's failed checks, in the order they were made.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn check(&mut self, ok: bool, msg: &str) {
        if !ok {
            self.0.push(msg.to_string());
        }
    }
}

/// A 64-bit LCG step, for the probes' key picks.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
    *state
}

/// Whether `client` reads probe key `id` back at its preloaded version.
fn serves_preloaded(client: &mut AriaClient, id: u64) -> bool {
    matches!(client.get(&encode_key(id)), Ok(Some(bytes)) if decode_value(&bytes) == Some((id, 0)))
}

/// Up to `per_group` ids from `ids` that each group owns: preloaded
/// keys no client writes, for probing a group that should be serving.
fn probe_ids(store: &ShardedStore<AriaHash>, ids: Range<u64>, per_group: usize) -> Vec<Vec<u64>> {
    let mut probes = vec![Vec::new(); store.shards()];
    for id in ids {
        let g = store.shard_of(&encode_key(id));
        if probes[g].len() < per_group {
            probes[g].push(id);
        }
    }
    probes
}

// ---------------------------------------------------------------------------
// Plain scenario: integrity faults on untrusted memory
// ---------------------------------------------------------------------------

/// Pool of stale-node snapshots awaiting replay: (shard, tree, node, bytes).
type SnapshotPool = Mutex<Vec<(usize, usize, NodeId, Vec<u8>)>>;

/// Driver-side adversary: consults the engine's schedule and delivers
/// stale-node replays, node flips, pointer swaps and free-list
/// tampering to *healthy* shards via detached shard closures.
fn run_driver(
    store: Arc<ShardedStore<AriaHash>>,
    engine: Arc<ChaosEngine>,
    shard_keys: Arc<Vec<Vec<Vec<u8>>>>,
    delivered: Arc<[AtomicU64; SITE_COUNT]>,
    done: Arc<AtomicBool>,
) {
    let snapshots: Arc<SnapshotPool> = Arc::default();
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
        // replication sites belong to the failover scenario's killer and
        // re-sync hook; the durability-log sites belong to durabench,
        // which owns a tiered store with an on-disk log to strike;
        // shard stalls belong to the overload tests, which own the
        // watchdog that must catch them; the migration sites belong to
        // the reshard scenario's fault hook and raw replay probes.
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

fn plain(args: &Args) {
    let smoke = args.flag("smoke");
    let d = Driver::start(args, "chaosbench", if smoke { 180 } else { 600 });
    let shards = args.get("shards", 4usize);
    let ops = args.get("ops", if smoke { 16_000u64 } else { 120_000 });
    let budget = args.get("budget", if smoke { 1_000u64 } else { 12_000 });
    let heap_rate = args.get("heap-rate", 600u32);
    let driver_rate = args.get("driver-rate", 4_000u32);
    let injected_floor = args.get("min-injected", if smoke { 200u64 } else { 10_000 });
    let trace_sample = args.get("trace-sample", 0u32);
    let flight_dir = {
        let dir = args.get_str("flight-dir", "");
        (!dir.is_empty()).then(|| std::path::PathBuf::from(dir))
    };
    println!(
        "chaosbench: shards={shards} clients={} keys={} ops={ops} budget={budget} \
         heap-rate={heap_rate} driver-rate={driver_rate} seed={}",
        d.clients, d.keys, d.seed
    );

    // --- store + chaos engine ---------------------------------------------
    let store = Arc::new(
        ShardedStore::with_shards(shards, shard_store(d.keys, shards))
            .expect("construct sharded store"),
    );
    let plan = FaultPlan::new(d.seed)
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
    let total_keys = d.keys + shards as u64 * 8 * 4;
    Driver::preload(&store, 0..total_keys);
    let probes = probe_ids(&store, d.keys..total_keys, 8);
    // Partition the client keyspace by owning shard for targeted faults.
    let mut shard_keys: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
    for id in 0..d.keys {
        let key = encode_key(id);
        shard_keys[store.shard_of(&key)].push(key.to_vec());
    }
    let shard_keys = Arc::new(shard_keys);

    let server = d.serve(&store, &engine, flight_dir.clone());
    let addr = server.local_addr();

    // --- health poller: METRICS opcode, cycle + containment evidence ------
    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let poll_done = Arc::clone(&poll_done);
        thread::spawn(move || {
            let mut client =
                AriaClient::connect(addr, ClientConfig::default()).expect("connect health poller");
            let mut saw_quarantine = 0u64;
            let mut sibling_serves = 0u64;
            let mut max_recoveries = vec![0u64; shards];
            let mut probe_rng: u64 = 0x1234_5678;
            while !poll_done.load(Ordering::Relaxed) {
                if let Ok(snap) = client.metrics() {
                    let replicas = &snap.serving.replicas;
                    let health: Vec<ShardHealth> =
                        replicas.iter().map(|r| ShardHealth::from_u8(r.state)).collect();
                    for (s, info) in replicas.iter().enumerate() {
                        max_recoveries[s] = max_recoveries[s].max(info.recoveries);
                    }
                    let degraded = |h: &ShardHealth| {
                        matches!(h, ShardHealth::Quarantined | ShardHealth::Recovering)
                    };
                    if health.iter().any(degraded) {
                        saw_quarantine += 1;
                        // Containment probe: a *different*, healthy shard
                        // must keep answering while this one is down.
                        if let Some(s) = health.iter().position(|h| *h == ShardHealth::Healthy) {
                            let picks = &probes[s];
                            if !picks.is_empty() {
                                let id = picks[(lcg(&mut probe_rng) % picks.len() as u64) as usize];
                                if serves_preloaded(&mut client, id) {
                                    sibling_serves += 1;
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
    let driver = {
        let (store, engine) = (Arc::clone(&store), Arc::clone(&engine));
        let (shard_keys, delivered) = (Arc::clone(&shard_keys), Arc::clone(&delivered));
        let done = Arc::clone(&d.done);
        thread::spawn(move || run_driver(store, engine, shard_keys, delivered, done))
    };
    let config = ClientConfig { trace_sample, ..ClientConfig::default() };
    let (report, elapsed) = d.spawn_clients(addr, config, Stop::Cap(ops)).join();
    d.done.store(true, Ordering::Relaxed);
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
    let audits: Vec<Option<RecoveryReport>> = healths
        .iter()
        .enumerate()
        .map(|(s, info)| {
            (info.health != ShardHealth::Dead).then(|| {
                store.with_shard(s, |st: &mut AriaHash| st.recover().expect("final audit"))
            })
        })
        .collect();

    // The adversary legitimately destroys entries here, so a typed
    // refusal is an accounted answer; a stale or missing value is not.
    let mut sweep_client =
        AriaClient::connect(addr, ClientConfig::default()).expect("connect sweep client");
    let sweep = Sweep::run(&mut sweep_client, 0..d.keys, &report.acked, true);
    let run = Run { report, elapsed, sweep, telemetry: server.telemetry().snapshot() };
    server.shutdown();

    // --- verdict ------------------------------------------------------------
    let stats = engine.stats();
    let r = &run.report;
    let total_recoveries: u64 = healths.iter().map(|h| h.recoveries).sum();
    let total_violations: u64 = healths.iter().map(|h| h.violations).sum();
    let audit_destroyed: u64 = audits.iter().flatten().map(|a| a.entries_destroyed).sum();
    let audit_condemned: u64 = audits.iter().flatten().map(|a| a.merkle_nodes_condemned).sum();
    let detected_events =
        r.integrity_errs + r.destroyed_errs + total_violations + audit_destroyed + audit_condemned;

    let mut checks = Checks::default();
    checks.check(stats.injected_total >= injected_floor, "injected fault count below floor");
    checks.check(total_recoveries >= 1, "no quarantine → recovery → re-admission cycle completed");
    checks.check(saw_quarantine >= 1, "METRICS opcode never observed a quarantined shard");
    checks.check(sibling_serves >= 1, "no healthy sibling served while a shard was quarantined");
    checks.check(detected_events >= 1, "no injected fault was ever detected");
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
                checks.check(
                    dump.contains("\"reason\":\"anomaly\"") && dump.contains("\"events\""),
                    "flight dump is not an anomaly post-mortem",
                );
            }
            None => checks.check(false, "quarantine cycle left no flight dump"),
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
        &["shard", "state", "violations", "recoveries", "seen-via-METRICS"],
        &health_rows,
    );
    println!(
        "{} injected={} detected_events={detected_events} recoveries={total_recoveries}",
        run.summary(),
        stats.injected_total,
    );

    let sites: Vec<Obj> = FaultSite::ALL
        .iter()
        .map(|&s| {
            Obj::new()
                .field("site", s.name())
                .field("draws", stats.site(s).draws)
                .field("injected", stats.site(s).injected)
                .field("delivered", delivered[s as usize].load(Ordering::Relaxed))
        })
        .collect();
    let shard_docs: Vec<Obj> = healths
        .iter()
        .zip(&audits)
        .enumerate()
        .map(|(s, (h, audit))| {
            let audit = audit.as_ref().map(|a| {
                Obj::new()
                    .field("entries_verified", a.entries_verified)
                    .field("entries_destroyed", a.entries_destroyed)
                    .field("buckets_poisoned", a.buckets_poisoned)
                    .field("merkle_nodes_condemned", a.merkle_nodes_condemned)
                    .field("counters_reinitialized", a.counters_reinitialized)
            });
            Obj::new()
                .field("shard", s)
                .field("state", h.health.to_string())
                .field("violations", h.violations)
                .field("recoveries", h.recoveries)
                .field("final_audit", audit)
        })
        .collect();
    let fields = Obj::new()
        .field("integrity_errors", r.integrity_errs)
        .field("destroyed_errors", r.destroyed_errs)
        .field("injected_total", stats.injected_total)
        .field("sites", sites)
        .field("shards", shard_docs)
        .field("health_polls_with_quarantine", saw_quarantine)
        .field("sibling_serves_during_quarantine", sibling_serves);
    d.conclude("chaos", &run, checks, fields);
}

// ---------------------------------------------------------------------------
// Failover scenario: primary kills under a replicated store
// ---------------------------------------------------------------------------

/// Panic payload of an injected primary kill.
const PRIMARY_KILL: &str = "chaosbench: injected primary kill";

fn all_replicas_healthy(stats: &[aria_store::sharded::GroupStats]) -> bool {
    stats.iter().all(|g| g.replicas.iter().all(|r| r.health == ShardHealth::Healthy))
}

fn failover(args: &Args) {
    let smoke = args.flag("smoke");
    Driver::expect_panics(PRIMARY_KILL);
    let d = Driver::start(args, "chaosbench[failover]", if smoke { 240 } else { 600 });
    let groups = args.get("shards", 4usize);
    let replicas = 2usize;
    let ops = args.get("ops", if smoke { 24_000u64 } else { 160_000 });
    let kill_floor = args.get("kills", if smoke { 4u64 } else { 20 });
    println!(
        "chaosbench[failover]: groups={groups} replicas={replicas} clients={} keys={} \
         ops={ops} kills>={kill_floor} seed={}",
        d.clients, d.keys, d.seed
    );

    // --- replicated store + kill schedule ----------------------------------
    let store = Arc::new(
        ShardedStore::with_replicas(groups, replicas, shard_store(d.keys, groups))
            .expect("construct replicated store"),
    );
    // The kill schedule and the divergence injection both come from the
    // deterministic chaos engine: PrimaryKill fires on every consult
    // (the killer's own health gating paces it), ReplicaDivergence only
    // when the post-run phase arms the re-sync fault hook.
    let plan = FaultPlan::new(d.seed)
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
    let total_keys = d.keys + (groups * 8) as u64 * 4;
    Driver::preload(&store, 0..total_keys);
    let probes = probe_ids(&store, d.keys..total_keys, 8);

    let server = d.serve(&store, &engine, None);
    let addr = server.local_addr();

    // --- health poller + traffic pulse ---------------------------------------
    // The pulse GET is load-bearing beyond evidence gathering: it keeps
    // ops flowing (and so promotions happening) even after the clients
    // finish their budgets, so failover and re-sync keep making
    // progress.
    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let poll_done = Arc::clone(&poll_done);
        let probes = probes.clone();
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
                if let Ok(snap) = client.metrics() {
                    // Entries are group-major: group * replicas + replica.
                    let entries =
                        |g: usize| &snap.serving.replicas[g * replicas..(g + 1) * replicas];
                    let healthy =
                        |i: &ReplicaServing| ShardHealth::from_u8(i.state) == ShardHealth::Healthy;
                    let degraded: Vec<usize> =
                        (0..groups).filter(|&g| !entries(g).iter().all(healthy)).collect();
                    for (g, last) in last_primary.iter_mut().enumerate() {
                        let entries = entries(g);
                        max_lag_seen =
                            max_lag_seen.max(entries.iter().map(|i| i.lag).max().unwrap_or(0));
                        let primary = entries
                            .iter()
                            .position(|i| ReplicaRole::from_u8(i.role) == ReplicaRole::Primary);
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
                        if let Some(g) = (0..groups).find(|g| !degraded.contains(g)) {
                            let picks = &probes[g];
                            if !picks.is_empty() {
                                let id = picks[(lcg(&mut pulse_rng) % picks.len() as u64) as usize];
                                if serves_preloaded(&mut client, id) {
                                    sibling_serves += 1;
                                }
                            }
                        }
                    }
                }
                // Traffic pulse: one GET on the full keyspace.
                let _ = client.get(&encode_key(lcg(&mut pulse_rng) % total_keys));
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
                            panic!("{PRIMARY_KILL}")
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
    let (report, elapsed) = d.spawn_clients(addr, retrying(), Stop::Cap(ops)).join();

    // Clients are done; the poller's pulse keeps recovery moving until
    // the kill floor is reached and every group settles.
    let kill_deadline = Instant::now() + Duration::from_secs(d.watchdog_secs / 2);
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
    d.done.store(true, Ordering::SeqCst);

    let mut client =
        AriaClient::connect(addr, ClientConfig { retry_budget: 16, ..ClientConfig::default() })
            .expect("connect sweep client");
    let sweep = Sweep::run(&mut client, 0..d.keys, &report.acked, false);

    // --- divergence phase: a corrupted rejoiner must never re-admit ----------
    let stats_before = store.group_stats();
    let div_group = 0usize;
    let div_primary = stats_before[div_group].primary;
    hook_armed.store(true, Ordering::SeqCst);
    store.exec_detached_replica(div_group, div_primary, |_st: &mut AriaHash| {
        panic!("{PRIMARY_KILL}")
    });
    let div_deadline = Instant::now() + Duration::from_secs(60);
    let mut diverged_detected = false;
    while Instant::now() < div_deadline {
        // Drive traffic so the kill is noticed and the re-sync runs.
        let _ = client.get(&encode_key(0));
        let g = &store.group_stats()[div_group];
        if matches!(g.last_resync_error, Some(StoreError::ReplicaDiverged { .. })) {
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
    let survivor_serves =
        probes[div_group].first().is_some_and(|&id| serves_preloaded(&mut client, id));

    poll_done.store(true, Ordering::SeqCst);
    let (sibling_serves, degraded_polls, promotions_seen, max_lag_seen) =
        poller.join().expect("health poller panicked");
    let run = Run { report, elapsed, sweep, telemetry: server.telemetry().snapshot() };
    let group_stats = store.group_stats();
    server.shutdown();

    // --- verdict --------------------------------------------------------------
    let failovers: u64 = group_stats.iter().map(|g| g.failovers).sum();
    let resyncs: u64 = group_stats.iter().map(|g| g.resyncs).sum();
    let mut checks = Checks::default();
    checks.check(kills >= kill_floor, "primary-kill count below floor");
    checks.check(failovers >= kills, "fewer promotions than kills");
    checks.check(resyncs >= kills, "fewer verified re-sync cycles than kills");
    checks.check(sibling_serves >= 1, "no sibling group served during a failover window");
    checks.check(promotions_seen >= 1, "METRICS opcode never observed a promotion");
    checks.check(diverged_detected, "injected divergence was not detected as ReplicaDiverged");
    checks.check(!diverged_readmitted, "a diverged replica was re-admitted");
    checks.check(dead_replicas == 1, "diverged replica is not parked as Dead");
    checks.check(survivor_serves, "survivor stopped serving after the divergence refusal");

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
        "{} kills={kills} failovers={failovers} resyncs={resyncs} \
         sibling_serves={sibling_serves} degraded_polls={degraded_polls} \
         promotions_seen={promotions_seen} max_lag_seen={max_lag_seen} \
         diverged detected/readmitted={diverged_detected}/{diverged_readmitted}",
        run.summary(),
    );

    let group_docs: Vec<Obj> = group_stats
        .iter()
        .map(|g| {
            let replicas: Vec<Obj> = g
                .replicas
                .iter()
                .map(|r| {
                    Obj::new()
                        .field("replica", r.replica)
                        .field("role", r.role.to_string())
                        .field("state", r.health.to_string())
                        .field("lag", r.lag)
                        .field("violations", r.violations)
                        .field("recoveries", r.recoveries)
                })
                .collect();
            Obj::new()
                .field("group", g.group)
                .field("primary", g.primary)
                .field("failovers", g.failovers)
                .field("resyncs", g.resyncs)
                .field("last_resync_error", g.last_resync_error.as_ref().map(|e| e.to_string()))
                .field("replicas", replicas)
        })
        .collect();
    let fields = Obj::new()
        .field("groups", groups)
        .field("replicas", replicas)
        .field("kills", kills)
        .field("failovers", failovers)
        .field("resyncs", resyncs)
        .field("sibling_serves_during_failover", sibling_serves)
        .field("degraded_health_polls", degraded_polls)
        .field("promotions_seen_via_health", promotions_seen)
        .field("max_replica_lag_seen", max_lag_seen)
        .field(
            "divergence",
            Obj::new()
                .field("detected", diverged_detected)
                .field("readmitted", diverged_readmitted)
                .field("survivor_serves", survivor_serves),
        )
        .field("group_stats", group_docs);
    d.conclude("failover", &run, checks, fields);
}

// ---------------------------------------------------------------------------
// Reshard scenario: split and merge under migration faults
// ---------------------------------------------------------------------------

/// Replay one GET for `key` over a raw connection, claiming
/// `claim_epoch` as the routing epoch — a captured-frame replay from
/// before a migration. Returns the server's answer.
fn replay_with_claim(
    addr: SocketAddr,
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
        if settled(client, deadline)?.committed > before {
            return Some(aborts);
        }
        aborts += 1;
        if Instant::now() > deadline {
            return None;
        }
    }
}

/// Await the single-flight migration driver settling out of `Running`;
/// `None` if `deadline` passes first.
fn settled(client: &mut AriaClient, deadline: Instant) -> Option<aria_net::ReshardReply> {
    loop {
        let st = client.reshard_status().expect("reshard status");
        if st.state != aria_store::ReshardState::Running.as_u8() {
            return Some(st);
        }
        if Instant::now() > deadline {
            return None;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn reshard(args: &Args) {
    use aria_store::{ReshardFault, ReshardMode, ReshardState};

    let smoke = args.flag("smoke");
    // Injected target kills panic under a slot lock on purpose.
    Driver::expect_panics("injected reshard target kill");
    let d = Driver::start(args, "chaosbench[reshard]", if smoke { 300 } else { 1_800 });
    let start_groups = args.get("shards", 4usize);
    let max_groups = start_groups * 2;
    let ops = args.get("ops", if smoke { 24_000u64 } else { 160_000 });
    let splits = args.get("splits", if smoke { 1u64 } else { start_groups as u64 }) as usize;
    assert!(splits >= 1 && splits <= start_groups, "--splits must be in 1..=--shards");
    let tamper_rate = args.get("tamper-rate", 2_500u32);
    let kill_rate = args.get("kill-rate", 800u32);
    let budget = args.get("budget", 32u64);
    println!(
        "chaosbench[reshard]: groups={start_groups}->{} clients={} keys={} ops>={ops} \
         splits={splits} tamper-rate={tamper_rate} kill-rate={kill_rate} seed={}",
        start_groups + splits,
        d.clients,
        d.keys,
        d.seed,
    );

    // --- elastic store + chaos-consulting fault hook ------------------------
    let store = Arc::new(
        ShardedStore::with_elastic(start_groups, max_groups, 1, shard_store(d.keys, start_groups))
            .expect("construct elastic store"),
    );
    let plan = FaultPlan::new(d.seed)
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
    let total_keys = d.keys + probe_count;
    Driver::preload(&store, 0..total_keys);

    // Flight recorder armed: aborts must leave a post-mortem.
    let flight_dir = std::path::PathBuf::from(format!("{}/flight-reshard", d.out_dir));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let server = d.serve(&store, &engine, Some(flight_dir.clone()));
    let addr = server.local_addr();

    // --- epoch observer: watches the control plane from outside -------------
    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let poll_done = Arc::clone(&poll_done);
        let keys = d.keys;
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
                    if st.state == ReshardState::Running.as_u8() {
                        running_polls += 1;
                        // The store must keep serving mid-migration:
                        // probe a key the clients never touch.
                        let id = keys + lcg(&mut pulse_rng) % probe_count;
                        if serves_preloaded(&mut client, id) {
                            serves_during_migration += 1;
                        }
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
            (max_epoch, running_polls, serves_during_migration)
        })
    };

    // --- clients: zipfian churn across every flip ----------------------------
    let clients = d.spawn_clients(addr, retrying(), Stop::Floor(ops));

    // --- conductor: scripted aborts, then the split/merge schedule ----------
    let mut ctl = AriaClient::connect(addr, ClientConfig::default()).expect("connect conductor");
    let deadline = Instant::now() + Duration::from_secs(d.watchdog_secs.saturating_sub(60).max(60));
    let probe_id = d.keys;
    // A scripted abort is clean when the driver settled as Aborted with
    // the counters and epoch unmoved, no group was added, the target
    // owns no slot, and the old owner still serves.
    let abort_clean = |ctl: &mut AriaClient, before: &aria_net::ReshardReply, what: &str| {
        let st = settled(ctl, deadline).expect("migration never settled");
        let clean = st.state == ReshardState::Aborted.as_u8()
            && st.aborted == before.aborted + 1
            && st.committed == before.committed
            && st.epoch == before.epoch
            && store.active_shards() == start_groups
            && store.routing().owned_slots(start_groups).is_empty()
            && serves_preloaded(ctl, probe_id);
        println!(
            "chaosbench[reshard]: scripted {what} abort {} (epoch {} unchanged)",
            if clean { "clean" } else { "DIRTY" },
            st.epoch,
        );
        clean
    };

    // Scripted abort #1: a tampered copy stream. The content-root
    // handoff check must catch it, the old epoch must keep serving, and
    // the half-built target must leave no trace.
    let before = ctl.reshard_status().expect("reshard status");
    force_tamper.store(true, Ordering::SeqCst);
    ctl.start_split(0, start_groups as u32).expect("start tampered split");
    let tamper_abort_clean = abort_clean(&mut ctl, &before, "tamper")
        && matches!(store.reshard_status().last_error, Some(StoreError::ReplicaDiverged { .. }));

    // Scripted abort #2: the target's primary dies mid-copy. Same
    // contract: abort, no epoch movement, no target residue.
    let before = ctl.reshard_status().expect("reshard status");
    force_kill.store(true, Ordering::SeqCst);
    ctl.start_split(0, start_groups as u32).expect("start killed split");
    let kill_abort_clean = abort_clean(&mut ctl, &before, "target-kill");

    // The split/merge schedule, with seed-scheduled tampering and kills
    // riding along (each abort is retried until the migration commits).
    ride_along.store(true, Ordering::SeqCst);
    let mut ride_along_aborts = 0u64;
    let mut commits = 0u64;
    let mut migrate = |ctl: &mut AriaClient, mode: ReshardMode, s: usize, t: usize| {
        let (s, t) = (s as u32, t as u32);
        let aborts = drive_to_commit(ctl, mode, s, t, deadline)
            .unwrap_or_else(|| panic!("{mode:?} {s}->{t} never committed"));
        ride_along_aborts += aborts;
        commits += 1;
        println!("chaosbench[reshard]: {mode:?} {s}->{t} committed after {aborts} abort(s)");
    };
    for i in 0..splits {
        migrate(&mut ctl, ReshardMode::Split, i, start_groups + i);
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
        migrate(&mut ctl, ReshardMode::Merge, start_groups + i, i);
    }
    d.done.store(true, Ordering::SeqCst);
    let (report, elapsed) = clients.join();

    let mut client =
        AriaClient::connect(addr, ClientConfig { retry_budget: 16, ..ClientConfig::default() })
            .expect("connect sweep client");
    let sweep = Sweep::run(&mut client, 0..total_keys, &report.acked, false);

    // --- flight dump: the scripted aborts must leave a post-mortem ----------
    let dump_deadline = Instant::now() + Duration::from_secs(30);
    let abort_dump = loop {
        match newest_flight_dump(&flight_dir) {
            Some((count, path, dump)) if dump.contains("\"reshard_abort\"") => {
                println!(
                    "flight recorder: {count} dump(s), newest {} records the abort",
                    path.display()
                );
                break true;
            }
            _ if Instant::now() > dump_deadline => break false,
            _ => thread::sleep(Duration::from_millis(100)),
        }
    };

    poll_done.store(true, Ordering::SeqCst);
    let (max_epoch_polled, running_polls, serves_during_migration) =
        poller.join().expect("epoch poller panicked");
    let status = store.reshard_status();
    let run = Run { report, elapsed, sweep, telemetry: server.telemetry().snapshot() };
    server.shutdown();

    // --- verdict --------------------------------------------------------------
    let final_epoch = status.epoch;
    let max_client_epoch = run.report.routing_epoch;
    let mut checks = Checks::default();
    checks.check(tamper_abort_clean, "tampered-stream migration did not abort cleanly");
    checks.check(kill_abort_clean, "target-kill migration did not abort cleanly");
    checks.check(
        status.committed == commits && commits == 2 * splits as u64,
        "commit count mismatch",
    );
    checks.check(final_epoch == 1 + commits, "epoch did not advance exactly once per commit");
    checks.check(store.active_shards() == start_groups, "group count did not return to the start");
    checks.check(status.aborted >= 2, "fewer than the two scripted aborts were recorded");
    checks.check(replays_attempted >= 1, "no stale-epoch replay was attempted");
    checks.check(replays_refused == replays_attempted, "a stale-epoch replay was not refused");
    checks.check(fresh_claim_serves, "a fresh-epoch claim on a moved key was refused");
    checks.check(
        max_client_epoch > 1,
        "no client routing cache was refreshed by a WRONG_SHARD refusal",
    );
    checks.check(max_epoch_polled == final_epoch, "RESHARD status never exposed the final epoch");
    checks.check(running_polls >= 1, "RESHARD status never observed a running migration");
    checks.check(serves_during_migration >= 1, "no probe was served mid-migration");
    checks.check(abort_dump, "scripted aborts left no flight-recorder post-mortem");

    // --- report ---------------------------------------------------------------
    let (tamper_fires, kill_fires) =
        (tamper_fires.load(Ordering::SeqCst), kill_fires.load(Ordering::SeqCst));
    println!(
        "{} commits={} aborts={} (scripted=2 ride-along={ride_along_aborts}) \
         tamper_fires={tamper_fires} kill_fires={kill_fires} epoch={final_epoch} \
         max_client_epoch={max_client_epoch} replays {replays_refused}/{replays_attempted}",
        run.summary(),
        status.committed,
        status.aborted,
    );

    let fields = Obj::new()
        .field("groups_start", start_groups)
        .field("groups_max", max_groups)
        .field("splits", splits)
        .field("merges", splits)
        .field(
            "migrations",
            Obj::new()
                .field("started", status.started)
                .field("committed", status.committed)
                .field("aborted", status.aborted)
                .field("ride_along_aborts", ride_along_aborts)
                .field("tamper_fires", tamper_fires)
                .field("kill_fires", kill_fires),
        )
        .field(
            "scripted_aborts",
            Obj::new()
                .field("tamper_clean", tamper_abort_clean)
                .field("target_kill_clean", kill_abort_clean),
        )
        .field(
            "routing",
            Obj::new()
                .field("final_epoch", final_epoch)
                .field("max_epoch_polled", max_epoch_polled)
                .field("max_client_epoch", max_client_epoch)
                .field("running_polls", running_polls)
                .field("serves_during_migration", serves_during_migration),
        )
        .field(
            "stale_replays",
            Obj::new()
                .field("attempted", replays_attempted)
                .field("refused", replays_refused)
                .field("fresh_claim_serves", fresh_claim_serves),
        )
        .field("abort_flight_dump", abort_dump);
    d.conclude("reshard", &run, checks, fields);
}
