//! Overload sweep for the admission control plane: offers load from
//! 0.5x to 8x of measured capacity under zipf-0.99 skew and checks the
//! four contracts of the overload design:
//!
//! 1. **Goodput holds** — acknowledged throughput at the highest
//!    multiplier stays within 70% of the 1x plateau (refusing fast
//!    instead of queueing means overload does not collapse service).
//! 2. **Admitted latency is bounded** — the p99 round trip of fully
//!    admitted windows stays near the configured queue-delay budget
//!    instead of growing with offered load.
//! 3. **Refused is not acknowledged** — every write the server acked is
//!    readable afterwards with the acked value; no refused write is
//!    ever observed (zero acked-then-lost, zero acked-then-wrong).
//! 4. **The control plane stays up** — a prober issues PING and
//!    METRICS throughout every load point; any probe failure is fatal.
//!
//! Violations of (3) and (4) always exit non-zero; (1) and (2) are
//! additionally enforced in full (non-`--smoke`) runs, where the
//! sweep is long enough for the plateau to be meaningful.
//!
//! ```sh
//! cargo run --release -p aria-bench --bin overloadbench -- \
//!     [--conns 8] [--depth 8] [--mults 0.5,1,2,4,8] [--secs 3.0] \
//!     [--budget-ms 5] \
//!     [--deadline-ms 50] [--smoke] [--out results] \
//!     [--trace-sample 0] [--flight-dir path]
//! ```
//!
//! With `--flight-dir`, the server's flight recorder is armed: the
//! shed spike the sweep provokes must trigger an anomaly dump, and the
//! run fails if none appears (pair with `--trace-sample` so the dump
//! carries request spans).
//!
//! Results go to `<out>/overload.json`; the committed
//! `BENCH_overload.json` is a snapshot of a full default sweep.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aria_bench::{fmt_tput, newest_flight_dump, percentile, print_table, write_doc, Args, Obj};
use aria_net::{proto, AriaClient, AriaServer, ClientConfig, ServerConfig};
use aria_sim::Enclave;
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{AriaHash, StoreConfig};
use aria_workload::{encode_key, value_bytes, KeyDistribution, Request, YcsbConfig, YcsbWorkload};

const VALUE_LEN: usize = 16;
const READ_RATIO: f64 = 0.8;

/// Versioned write payload: key id + per-key version, both LE. A
/// read-back that decodes a version the client never got an ack for is
/// an acked-then-wrong violation (a refusal that was secretly applied).
fn versioned_value(key_id: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&key_id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v
}

fn decode_version(key_id: u64, value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_LEN || value[..8] != key_id.to_le_bytes() {
        return None;
    }
    Some(u64::from_le_bytes(value[8..16].try_into().unwrap()))
}

/// Per-key write ledger a load client keeps for the integrity check.
#[derive(Default, Clone, Copy)]
struct KeyLedger {
    /// Highest version the server acknowledged with PutOk.
    acked: u64,
    /// A transport error left a newer version in doubt: the key is
    /// excluded from strict verification (the write may or may not have
    /// been applied before the connection died).
    in_doubt: bool,
}

struct ClientOutcome {
    issued: u64,
    acked: u64,
    shed_overload: u64,
    shed_deadline: u64,
    other_errors: u64,
    transport_errors: u64,
    /// Round trips of windows in which every op was admitted.
    admitted_lats_ms: Vec<f64>,
    ledger: HashMap<u64, KeyLedger>,
}

struct ProbeOutcome {
    probes: u64,
    failures: u64,
    max_ms: f64,
    degraded_seen: bool,
    max_queue_delay_ms: u64,
}

struct Point {
    mult: f64,
    offered_target: f64,
    offered_actual: f64,
    goodput: f64,
    shed_overload: u64,
    shed_deadline: u64,
    other_errors: u64,
    transport_errors: u64,
    admitted_p50_ms: f64,
    admitted_p99_ms: f64,
    probe: ProbeOutcome,
    lost_writes: u64,
    wrong_writes: u64,
    verified_keys: u64,
    in_doubt_keys: u64,
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let shards = args.get("shards", 4usize);
    let read_keys = args.get("keys", if smoke { 4_000u64 } else { 20_000 });
    let conns = args.get("conns", if smoke { 4usize } else { 8 });
    let depth = args.get("depth", 16usize);
    let secs = args
        .get_str("secs", if smoke { "0.8" } else { "3.0" })
        .parse::<f64>()
        .expect("--secs must be a float");
    let calib_secs = if smoke { 0.5 } else { 2.0 };
    let budget_ms = args.get("budget-ms", 2u64);
    let deadline_ms = args.get("deadline-ms", 50u64);
    let mults: Vec<f64> = args
        .get_str("mults", "0.5,1,2,4,8")
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect();
    assert!(!mults.is_empty(), "empty --mults sweep");
    let seed = args.seed();
    let trace_sample = args.get("trace-sample", 0u32);
    let flight_dir = {
        let d = args.get_str("flight-dir", "");
        (!d.is_empty()).then(|| std::path::PathBuf::from(d))
    };
    // Disjoint per-client write ranges above the read keyspace, so two
    // clients never race on one key and "last acked version" is exact.
    let write_span = if smoke { 500u64 } else { 2_000 };

    // A blocking client cannot offer more than the server serves, so
    // overload is generated by scaling the client pool with the
    // multiplier: at 8x there are 8x as many connections, each paced at
    // the same per-connection rate as the 1x point.
    let max_mult = mults.iter().cloned().fold(1.0f64, f64::max);
    let max_conns = ((conns as f64 * max_mult).ceil() as usize).max(conns);

    let total_keys = read_keys + max_conns as u64 * write_span;
    let per_shard_keys = (total_keys / shards as u64) * 2 + 1024;
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

    // Preload the read keyspace in-process.
    let mut batch = Vec::with_capacity(512);
    for id in 0..read_keys {
        batch.push(BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, VALUE_LEN)));
        if batch.len() == 512 {
            store.run_batch(std::mem::take(&mut batch));
        }
    }
    store.run_batch(batch);

    let server = AriaServer::bind(
        "127.0.0.1:0",
        Arc::clone(&store),
        ServerConfig::builder()
            .max_connections(max_conns + 8)
            // A tight per-tick decode window keeps ticks short and
            // fair; frames past it wait in the read buffer, which is
            // exactly what sojourn-based shedding measures.
            .pipeline_window(64)
            .queue_delay_budget(Some(Duration::from_millis(budget_ms)))
            .shed_sojourn(Some(Duration::from_millis(budget_ms)))
            .watchdog_window(Some(Duration::from_millis(500)))
            .flight_dir(flight_dir.clone())
            .build()
            .expect("valid overloadbench server config"),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    // --- Calibrate capacity: closed-loop, admission off, no pacing ---
    store.set_queue_delay_budget(None);
    let capacity = calibrate(addr, conns, depth, read_keys, calib_secs, seed);
    store.set_queue_delay_budget(Some(Duration::from_millis(budget_ms)));
    eprintln!("calibrated capacity: {} ({conns} conns, depth {depth})", fmt_tput(capacity));

    let mut points = Vec::new();
    for &mult in &mults {
        let point = run_point(RunPointCfg {
            addr,
            conns,
            depth,
            read_keys,
            write_span,
            secs,
            deadline_ms,
            seed,
            mult,
            offered: capacity * mult,
            trace_sample,
        });
        eprintln!(
            "  [{:.1}x] offered {} goodput {} shed {}+{} admitted p99 {:.2}ms probes {}/{} ok",
            mult,
            fmt_tput(point.offered_actual),
            fmt_tput(point.goodput),
            point.shed_overload,
            point.shed_deadline,
            point.admitted_p99_ms,
            point.probe.probes - point.probe.failures,
            point.probe.probes,
        );
        points.push(point);
    }

    let telemetry = server.telemetry().snapshot();
    server.shutdown();

    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}x", p.mult),
                fmt_tput(p.offered_actual),
                fmt_tput(p.goodput),
                p.shed_overload.to_string(),
                p.shed_deadline.to_string(),
                format!("{:.2}", p.admitted_p99_ms),
                format!("{}/{}", p.probe.probes - p.probe.failures, p.probe.probes),
                format!("{}/{}", p.lost_writes, p.wrong_writes),
            ]
        })
        .collect();
    print_table(
        &format!("overloadbench (zipf-0.99, budget {budget_ms}ms)"),
        &[
            "load",
            "offered/s",
            "goodput/s",
            "shed(ovl)",
            "shed(ddl)",
            "adm p99 ms",
            "probes ok",
            "lost/wrong",
        ],
        &table,
    );

    // --- Acceptance ---
    let goodput_1x = points
        .iter()
        .filter(|p| p.mult >= 1.0)
        .map(|p| p.goodput)
        .fold(f64::NAN, |a, b| if a.is_nan() { b } else { a });
    let last = points.last().expect("at least one point");
    let floor_ratio = last.goodput / goodput_1x.max(1e-9);
    let goodput_floor_ok = floor_ratio >= 0.70;
    // An admitted window's p99 should track the queue-delay budget, not
    // the offered load. The bound leaves room for wire + scheduling on
    // a shared CI box.
    let p99_bound_ms = budget_ms as f64 * 5.0 + 10.0;
    let p99_bounded =
        points.iter().all(|p| p.admitted_p99_ms.is_nan() || p.admitted_p99_ms <= p99_bound_ms);
    let lost: u64 = points.iter().map(|p| p.lost_writes).sum();
    let wrong: u64 = points.iter().map(|p| p.wrong_writes).sum();
    let probe_failures: u64 = points.iter().map(|p| p.probe.failures).sum();

    let point_docs: Vec<Obj> = points
        .iter()
        .map(|p| {
            Obj::new()
                .field("mult", p.mult)
                .field("offered_target", p.offered_target)
                .field("offered_actual", p.offered_actual)
                .field("goodput", p.goodput)
                .field("shed_overload", p.shed_overload)
                .field("shed_deadline", p.shed_deadline)
                .field("other_errors", p.other_errors)
                .field("transport_errors", p.transport_errors)
                .field("admitted_p50_ms", p.admitted_p50_ms)
                .field("admitted_p99_ms", p.admitted_p99_ms)
                .field("health_probes", p.probe.probes)
                .field("health_failures", p.probe.failures)
                .field("health_max_ms", p.probe.max_ms)
                .field("degraded_seen", p.probe.degraded_seen)
                .field("max_queue_delay_ms", p.probe.max_queue_delay_ms)
                .field("verified_keys", p.verified_keys)
                .field("in_doubt_keys", p.in_doubt_keys)
                .field("lost_writes", p.lost_writes)
                .field("wrong_writes", p.wrong_writes)
        })
        .collect();
    let summary = Obj::new()
        .field("goodput_floor_ratio", floor_ratio)
        .field("goodput_floor_ok", goodput_floor_ok)
        .field("admitted_p99_bound_ms", p99_bound_ms)
        .field("admitted_p99_bounded", p99_bounded)
        .field("lost_writes", lost)
        .field("wrong_writes", wrong)
        .field("health_failures", probe_failures);
    let doc = Obj::new()
        .field("shards", shards)
        .field("distribution", "zipf-0.99")
        .field("queue_delay_budget_ms", budget_ms)
        .field("op_deadline_ms", deadline_ms)
        .field("capacity_ops_s", capacity)
        .field("points", point_docs)
        .field("summary", summary)
        .field("telemetry", &telemetry);
    write_doc(&args.out_dir(), "overload", doc);

    let mut fatal = false;
    if lost > 0 || wrong > 0 {
        eprintln!("FAIL: write integrity violated (lost {lost}, wrong {wrong})");
        fatal = true;
    }
    if probe_failures > 0 {
        eprintln!("FAIL: control plane unresponsive ({probe_failures} probe failures)");
        fatal = true;
    }
    if !smoke && !goodput_floor_ok {
        eprintln!(
            "FAIL: goodput collapsed under overload ({:.0}% of 1x plateau, need >= 70%)",
            floor_ratio * 100.0
        );
        fatal = true;
    }
    if !smoke && !p99_bounded {
        eprintln!("FAIL: admitted p99 exceeded {p99_bound_ms:.0}ms bound at some load point");
        fatal = true;
    }
    if let Some(dir) = &flight_dir {
        let sheds: u64 = points.iter().map(|p| p.shed_overload + p.shed_deadline).sum();
        match newest_flight_dump(dir) {
            Some((count, path, dump)) => {
                let spans = dump.matches("\"trace_id\"").count();
                println!(
                    "flight recorder: {count} dump(s), newest {} ({spans} span(s) aboard)",
                    path.display(),
                );
                if !dump.contains("\"reason\":\"anomaly\"") || !dump.contains("\"events\"") {
                    eprintln!(
                        "FAIL: flight dump at {} is not an anomaly post-mortem",
                        path.display()
                    );
                    fatal = true;
                }
            }
            None if sheds > 0 => {
                eprintln!(
                    "FAIL: {sheds} ops shed but no flight dump in {} (shed-spike trigger dead?)",
                    dir.display()
                );
                fatal = true;
            }
            None => println!("flight recorder: armed, no sheds, no dump — nothing to verify"),
        }
    }
    if fatal {
        std::process::exit(1);
    }
    println!(
        "overload contract held: goodput floor {:.0}%, {} probes, 0 lost, 0 wrong",
        floor_ratio * 100.0,
        points.iter().map(|p| p.probe.probes).sum::<u64>(),
    );
}

/// Closed-loop burst to find the acknowledged-ops/s plateau that the
/// sweep's offered-load multipliers are anchored to.
fn calibrate(
    addr: std::net::SocketAddr,
    conns: usize,
    depth: usize,
    read_keys: u64,
    secs: f64,
    seed: u64,
) -> f64 {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            thread::spawn(move || {
                let mut client = AriaClient::connect(addr, ClientConfig::default())
                    .expect("connect calibration client");
                let mut wl = YcsbWorkload::new(YcsbConfig {
                    keyspace: read_keys,
                    read_ratio: READ_RATIO,
                    value_len: VALUE_LEN,
                    distribution: KeyDistribution::Zipfian { theta: 0.99 },
                    seed: seed ^ (0xa076_1d64_78bd_642fu64.wrapping_mul(c as u64 + 1)),
                });
                let mut acked = 0u64;
                let mut window = Vec::with_capacity(depth);
                while Instant::now() < end {
                    window.clear();
                    for _ in 0..depth {
                        window.push(match wl.next_request() {
                            Request::Get { id } => {
                                proto::Request::Get { key: encode_key(id).to_vec() }
                            }
                            Request::Put { id, value_len } => proto::Request::Put {
                                key: encode_key(id).to_vec(),
                                value: value_bytes(id, value_len),
                            },
                        });
                    }
                    match client.pipeline(&window) {
                        Ok(resps) => {
                            acked += resps
                                .iter()
                                .filter(|r| !matches!(r, proto::Response::Error { .. }))
                                .count() as u64;
                        }
                        Err(e) => panic!("calibration pipeline failed: {e}"),
                    }
                }
                acked
            })
        })
        .collect();
    let total: u64 = workers.into_iter().map(|w| w.join().expect("calibration worker")).sum();
    total as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

struct RunPointCfg {
    addr: std::net::SocketAddr,
    conns: usize,
    depth: usize,
    read_keys: u64,
    write_span: u64,
    secs: f64,
    deadline_ms: u64,
    seed: u64,
    mult: f64,
    offered: f64,
    trace_sample: u32,
}

fn run_point(cfg: RunPointCfg) -> Point {
    let stop = Arc::new(AtomicBool::new(false));

    // Control-plane prober: PING + METRICS on a cadence for the
    // whole point. Control ops bypass admission, so any failure or
    // multi-hundred-ms stall here is an overload-contract violation.
    let prober = {
        let stop = Arc::clone(&stop);
        let addr = cfg.addr;
        thread::spawn(move || {
            let mut client = AriaClient::connect(
                addr,
                ClientConfig { retry_budget: 0, ..ClientConfig::default() },
            )
            .expect("connect prober");
            let mut out = ProbeOutcome {
                probes: 0,
                failures: 0,
                max_ms: 0.0,
                degraded_seen: false,
                max_queue_delay_ms: 0,
            };
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let ok = client.ping().is_ok()
                    && match client.metrics() {
                        Ok(s) => {
                            out.degraded_seen |= s.serving.degraded;
                            let worst_ns = s.shards.iter().map(|sh| sh.store.queue_delay_ns).max();
                            let ms = worst_ns.unwrap_or(0) / 1_000_000;
                            out.max_queue_delay_ms = out.max_queue_delay_ms.max(ms);
                            true
                        }
                        Err(_) => false,
                    };
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                out.probes += 1;
                if !ok {
                    out.failures += 1;
                }
                if ms > out.max_ms {
                    out.max_ms = ms;
                }
                thread::sleep(Duration::from_millis(10));
            }
            out
        })
    };

    // A blocking client cannot outrun the server, so overload is
    // generated on two axes: the connection pool grows with the
    // multiplier (each connection paced at its 1x rate), and each
    // window bursts `mult` times deeper — past the server's per-tick
    // decode window, which is where sojourn shedding bites.
    let load_conns = ((cfg.conns as f64 * cfg.mult).ceil() as usize).max(1);
    let window_frames = (cfg.depth * (cfg.mult.ceil() as usize).max(1)).min(1024);
    let per_client_rate = cfg.offered / load_conns as f64;
    let interval = Duration::from_secs_f64(window_frames as f64 / per_client_rate.max(1.0));
    let end = Instant::now() + Duration::from_secs_f64(cfg.secs);

    let workers: Vec<_> = (0..load_conns)
        .map(|c| {
            let write_base = cfg.read_keys + c as u64 * cfg.write_span;
            let RunPointCfg {
                addr, read_keys, write_span, deadline_ms, seed, trace_sample, ..
            } = cfg;
            thread::spawn(move || {
                let mut client = AriaClient::connect(
                    addr,
                    ClientConfig { trace_sample, ..ClientConfig::default() },
                )
                .expect("connect load client");
                let mut wl = YcsbWorkload::new(YcsbConfig {
                    keyspace: read_keys,
                    read_ratio: READ_RATIO,
                    value_len: VALUE_LEN,
                    distribution: KeyDistribution::Zipfian { theta: 0.99 },
                    seed: seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1)),
                });
                let mut out = ClientOutcome {
                    issued: 0,
                    acked: 0,
                    shed_overload: 0,
                    shed_deadline: 0,
                    other_errors: 0,
                    transport_errors: 0,
                    admitted_lats_ms: Vec::new(),
                    ledger: HashMap::new(),
                };
                let mut versions: HashMap<u64, u64> = HashMap::new();
                let mut window: Vec<proto::Request> = Vec::with_capacity(window_frames);
                // Key ids of the writes in the current window, in op
                // order (None for reads).
                let mut window_writes: Vec<Option<(u64, u64)>> = Vec::with_capacity(window_frames);
                let mut next = Instant::now();
                while Instant::now() < end {
                    // Open-loop pacing with bounded catch-up: if the
                    // server stalls us for more than a second's worth of
                    // windows, resynchronize instead of bursting.
                    let now = Instant::now();
                    if now < next {
                        thread::sleep(next - now);
                    } else if now > next + Duration::from_secs(1) {
                        next = now;
                    }
                    next += interval;

                    window.clear();
                    window_writes.clear();
                    for _ in 0..window_frames {
                        match wl.next_request() {
                            Request::Get { id } => {
                                window.push(proto::Request::Get { key: encode_key(id).to_vec() });
                                window_writes.push(None);
                            }
                            Request::Put { id, .. } => {
                                // Map the zipf draw into this client's
                                // private range, keeping the skew shape.
                                let key_id = write_base + id % write_span;
                                let v = versions.entry(key_id).or_insert(0);
                                *v += 1;
                                window.push(proto::Request::Put {
                                    key: encode_key(key_id).to_vec(),
                                    value: versioned_value(key_id, *v),
                                });
                                window_writes.push(Some((key_id, *v)));
                            }
                        }
                    }
                    out.issued += window_frames as u64;
                    let op_deadline = Instant::now() + Duration::from_millis(deadline_ms);
                    let t0 = Instant::now();
                    match client.pipeline_with_deadline(&window, op_deadline) {
                        Ok(resps) => {
                            let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
                            let mut all_admitted = true;
                            for (resp, write) in resps.iter().zip(window_writes.iter()) {
                                match resp {
                                    proto::Response::Error { code, .. } => {
                                        all_admitted = false;
                                        match *code {
                                            proto::ErrorCode::Overloaded => out.shed_overload += 1,
                                            proto::ErrorCode::DeadlineExceeded => {
                                                out.shed_deadline += 1
                                            }
                                            _ => out.other_errors += 1,
                                        }
                                    }
                                    _ => {
                                        out.acked += 1;
                                        if let Some((key_id, v)) = write {
                                            let e = out.ledger.entry(*key_id).or_default();
                                            e.acked = (*v).max(e.acked);
                                        }
                                    }
                                }
                            }
                            if all_admitted {
                                out.admitted_lats_ms.push(lat_ms);
                            }
                        }
                        Err(_) => {
                            // The whole window is in doubt: the server
                            // may have applied any prefix before the
                            // connection died.
                            out.transport_errors += 1;
                            for write in window_writes.iter().flatten() {
                                out.ledger.entry(write.0).or_default().in_doubt = true;
                            }
                        }
                    }
                }
                out
            })
        })
        .collect();

    let outcomes: Vec<ClientOutcome> =
        workers.into_iter().map(|w| w.join().expect("load worker")).collect();

    stop.store(true, Ordering::Relaxed);
    let probe = prober.join().expect("prober");

    // --- Read-back verification: every acked write must be readable
    // with its acked version; any other version is acked-then-wrong.
    let mut verifier =
        AriaClient::connect(cfg.addr, ClientConfig::default()).expect("connect verifier");
    let mut lost = 0u64;
    let mut wrong = 0u64;
    let mut verified = 0u64;
    let mut in_doubt = 0u64;
    for o in &outcomes {
        for (&key_id, ledger) in &o.ledger {
            if ledger.in_doubt {
                in_doubt += 1;
                continue;
            }
            if ledger.acked == 0 {
                continue; // nothing ever acknowledged for this key
            }
            verified += 1;
            let key = encode_key(key_id);
            match verifier.get(&key) {
                Ok(Some(value)) => match decode_version(key_id, &value) {
                    Some(v) if v == ledger.acked => {}
                    // A version above the ack means a refused or
                    // unacknowledged write was applied; below means an
                    // acked write was lost. Both are violations.
                    Some(_) | None => wrong += 1,
                },
                Ok(None) => lost += 1,
                Err(e) => panic!("verification read failed for key {key_id}: {e}"),
            }
        }
    }

    let mut admitted: Vec<f64> = outcomes.iter().flat_map(|o| o.admitted_lats_ms.clone()).collect();
    admitted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let issued: u64 = outcomes.iter().map(|o| o.issued).sum();
    let acked: u64 = outcomes.iter().map(|o| o.acked).sum();
    Point {
        mult: cfg.mult,
        offered_target: cfg.offered,
        offered_actual: issued as f64 / cfg.secs,
        goodput: acked as f64 / cfg.secs,
        shed_overload: outcomes.iter().map(|o| o.shed_overload).sum(),
        shed_deadline: outcomes.iter().map(|o| o.shed_deadline).sum(),
        other_errors: outcomes.iter().map(|o| o.other_errors).sum(),
        transport_errors: outcomes.iter().map(|o| o.transport_errors).sum(),
        admitted_p50_ms: percentile(&admitted, 0.50),
        admitted_p99_ms: percentile(&admitted, 0.99),
        probe,
        lost_writes: lost,
        wrong_writes: wrong,
        verified_keys: verified,
        in_doubt_keys: in_doubt,
    }
}
