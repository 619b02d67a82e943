//! Load generator for the TCP service layer: sweeps client connections
//! × pipeline depth × key popularity {uniform, zipf-0.99} against an
//! `AriaServer` over loopback, reporting **wall-clock** throughput and
//! p50/p95/p99 latency.
//!
//! Unlike the figure binaries (which report *simulated* enclave
//! cycles), netbench measures the real service layer end to end:
//! framing, socket round trips, pipelining, the sharded dispatch and
//! the store itself. Latency is the round trip of one pipelined window
//! (for depth 1 that is exact per-op latency). The harness-only fast
//! cipher suite is the default so the wire layer, not the from-scratch
//! AES, dominates; pass `--real` for the real suite.
//!
//! ```sh
//! cargo run --release -p aria-bench --bin netbench -- \
//!     [--conns 1,2,4,8] [--depths 1,8,32] [--ops 30000] [--keys 20000] \
//!     [--shards 4] [--smoke] [--real] \
//!     [--out results] [--metrics-out results/metrics.prom] \
//!     [--trace-sample 0] [--flight-dir path]
//! ```
//!
//! Results go to `<out>/net.json` (one self-describing JSON document
//! with `schema_version`, `git_rev` and `experiment`, written through
//! `aria_bench::write_doc`); the committed `BENCH_net.json`
//! is a snapshot of a full default sweep. Every point embeds the
//! server's end-of-run telemetry snapshot; `--metrics-out` additionally
//! writes the last point's Prometheus-style exposition (debug builds
//! validate the counter invariants while rendering it).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aria_bench::{fmt_tput, percentile, print_table, write_doc, Args, Obj};
use aria_net::{proto, AriaClient, AriaServer, ClientConfig, ServerConfig};
use aria_sim::Enclave;
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{AriaHash, StoreConfig};
use aria_workload::{encode_key, value_bytes, KeyDistribution, Request, YcsbConfig, YcsbWorkload};

const VALUE_LEN: usize = 16;
const READ_RATIO: f64 = 0.95;

struct Point {
    connections: usize,
    depth: usize,
    dist_label: &'static str,
    ops: u64,
    elapsed: Duration,
    throughput: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    telemetry: aria_telemetry::TelemetrySnapshot,
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let keys = args.get("keys", if smoke { 5_000u64 } else { 20_000 });
    let ops = args.get("ops", if smoke { 6_000u64 } else { 30_000 });
    let shards = args.get("shards", 4usize);
    let conns = parse_list(&args.get_str("conns", if smoke { "2,4" } else { "1,2,4,8" }));
    let depths = parse_list(&args.get_str("depths", if smoke { "1,16" } else { "1,8,32" }));
    let real_suite = args.flag("real");
    let seed = args.seed();
    // Tracing knobs: `--trace-sample N` stamps one in N client requests
    // with a sampled trace context; `--flight-dir` arms the server's
    // flight recorder (anomaly / SIGUSR1 dumps land there).
    let trace_sample = args.get("trace-sample", 0u32);
    let flight_dir = {
        let d = args.get_str("flight-dir", "");
        (!d.is_empty()).then(|| std::path::PathBuf::from(d))
    };

    // `--serve <addr>` turns netbench into a long-lived demo server:
    // bind the given address, drive continuous zipf load from in-process
    // clients at the requested sampling rate, and park until killed.
    // This is what ariatop/ariatrace attach to.
    let serve = args.get_str("serve", "");
    if !serve.is_empty() {
        serve_forever(
            &serve,
            shards,
            conns.first().copied().unwrap_or(2),
            depths.first().copied().unwrap_or(8),
            keys,
            real_suite,
            seed,
            trace_sample,
            flight_dir,
        );
    }

    let dists: [(&'static str, KeyDistribution); 2] = [
        ("uniform", KeyDistribution::Uniform),
        ("zipf-0.99", KeyDistribution::Zipfian { theta: 0.99 }),
    ];

    let mut points = Vec::new();
    for (dist_label, dist) in &dists {
        for &connections in &conns {
            for &depth in &depths {
                let point = run_point(
                    shards,
                    connections,
                    depth,
                    dist_label,
                    dist.clone(),
                    keys,
                    ops,
                    real_suite,
                    seed,
                    trace_sample,
                    flight_dir.clone(),
                );
                eprintln!(
                    "  [{dist_label} conns={connections} depth={depth}] {} p50 {:.0}us p99 {:.0}us",
                    fmt_tput(point.throughput),
                    point.p50_us,
                    point.p99_us,
                );
                points.push(point);
            }
        }
    }

    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.dist_label.to_string(),
                p.connections.to_string(),
                p.depth.to_string(),
                fmt_tput(p.throughput),
                format!("{:.0}", p.p50_us),
                format!("{:.0}", p.p95_us),
                format!("{:.0}", p.p99_us),
            ]
        })
        .collect();
    print_table(
        "netbench (loopback, wall-clock)",
        &["distribution", "conns", "depth", "ops/s", "p50 us", "p95 us", "p99 us"],
        &table,
    );

    write_net_json(&args.out_dir(), shards, keys, ops, &points);

    let metrics_out = args.get_str("metrics-out", "");
    if !metrics_out.is_empty() {
        let last = points.last().expect("sweep produced at least one point");
        let exposition = last.telemetry.render_prometheus();
        if let Some(parent) = std::path::Path::new(&metrics_out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&metrics_out, exposition) {
            Ok(()) => println!("metrics exposition written to {metrics_out}"),
            Err(e) => eprintln!("warning: cannot write {metrics_out}: {e}"),
        }
    }
}

/// Bind `addr`, preload the keyspace, and drive continuous zipf-0.99
/// load from in-process clients forever. Never returns; the process is
/// expected to be killed by its parent (CI trace-smoke, a demo shell).
#[allow(clippy::too_many_arguments)]
fn serve_forever(
    addr: &str,
    shards: usize,
    connections: usize,
    depth: usize,
    keys: u64,
    real_suite: bool,
    seed: u64,
    trace_sample: u32,
    flight_dir: Option<std::path::PathBuf>,
) -> ! {
    let per_shard_keys = (keys / shards as u64) * 2 + 1024;
    let store = Arc::new(
        ShardedStore::with_shards(shards, move |_| {
            let suite = (!real_suite).then(|| {
                Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
                    as Arc<dyn aria_crypto::CipherSuite>
            });
            AriaHash::with_suite(
                StoreConfig::for_keys(per_shard_keys),
                Arc::new(Enclave::with_default_epc()),
                suite,
            )
        })
        .expect("construct sharded store"),
    );
    let mut batch = Vec::with_capacity(512);
    for id in 0..keys {
        batch.push(BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, VALUE_LEN)));
        if batch.len() == 512 {
            store.run_batch(std::mem::take(&mut batch));
        }
    }
    store.run_batch(batch);

    let server = AriaServer::bind(
        addr,
        Arc::clone(&store),
        ServerConfig::builder()
            .max_connections(connections + 8)
            .flight_dir(flight_dir)
            .build()
            .expect("valid serve config"),
    )
    .unwrap_or_else(|e| panic!("netbench: cannot bind {addr}: {e}"));
    let bound = server.local_addr();
    println!("netbench: serving on {bound} (trace-sample {trace_sample}); kill to stop");

    for c in 0..connections {
        thread::spawn(move || {
            let mut wl = YcsbWorkload::new(YcsbConfig {
                keyspace: keys,
                read_ratio: READ_RATIO,
                value_len: VALUE_LEN,
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
                seed: seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)),
            });
            loop {
                let mut client = match AriaClient::connect(
                    bound,
                    ClientConfig { trace_sample, ..ClientConfig::default() },
                ) {
                    Ok(c) => c,
                    Err(_) => {
                        thread::sleep(Duration::from_millis(100));
                        continue;
                    }
                };
                loop {
                    let window: Vec<proto::Request> = (0..depth)
                        .map(|_| match wl.next_request() {
                            Request::Get { id } => {
                                proto::Request::Get { key: encode_key(id).to_vec() }
                            }
                            Request::Put { id, value_len } => proto::Request::Put {
                                key: encode_key(id).to_vec(),
                                value: value_bytes(id, value_len),
                            },
                        })
                        .collect();
                    if client.pipeline(&window).is_err() {
                        break;
                    }
                    // Gentle pacing: this is a demo target, not a stress rig.
                    thread::sleep(Duration::from_millis(2));
                }
            }
        });
    }
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    shards: usize,
    connections: usize,
    depth: usize,
    dist_label: &'static str,
    dist: KeyDistribution,
    keys: u64,
    ops: u64,
    real_suite: bool,
    seed: u64,
    trace_sample: u32,
    flight_dir: Option<std::path::PathBuf>,
) -> Point {
    let per_shard_keys = (keys / shards as u64) * 2 + 1024;
    let store = Arc::new(
        ShardedStore::with_shards(shards, move |_| {
            let suite = (!real_suite).then(|| {
                Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
                    as Arc<dyn aria_crypto::CipherSuite>
            });
            AriaHash::with_suite(
                StoreConfig::for_keys(per_shard_keys),
                Arc::new(Enclave::with_default_epc()),
                suite,
            )
        })
        .expect("construct sharded store"),
    );

    // Preload in-process (we are benching the wire, not the loader).
    let mut batch = Vec::with_capacity(512);
    for id in 0..keys {
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
            .max_connections(connections + 8)
            .flight_dir(flight_dir)
            .build()
            .expect("valid bench server config"),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let ops_per_client = ops / connections as u64;
    let start = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let dist = dist.clone();
            thread::spawn(move || {
                let mut client = AriaClient::connect(
                    addr,
                    ClientConfig { trace_sample, ..ClientConfig::default() },
                )
                .expect("connect bench client");
                let mut wl = YcsbWorkload::new(YcsbConfig {
                    keyspace: keys,
                    read_ratio: READ_RATIO,
                    value_len: VALUE_LEN,
                    distribution: dist,
                    seed: seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)),
                });
                let mut latencies_us: Vec<f64> =
                    Vec::with_capacity((ops_per_client as usize / depth.max(1)) + 1);
                let mut issued = 0u64;
                let mut window = Vec::with_capacity(depth);
                while issued < ops_per_client {
                    window.clear();
                    while window.len() < depth && issued < ops_per_client {
                        window.push(match wl.next_request() {
                            Request::Get { id } => {
                                proto::Request::Get { key: encode_key(id).to_vec() }
                            }
                            Request::Put { id, value_len } => proto::Request::Put {
                                key: encode_key(id).to_vec(),
                                value: value_bytes(id, value_len),
                            },
                        });
                        issued += 1;
                    }
                    let t0 = Instant::now();
                    let resps = client.pipeline(&window).expect("bench pipeline failed");
                    let lat = t0.elapsed().as_secs_f64() * 1e6;
                    latencies_us.push(lat);
                    debug_assert_eq!(resps.len(), window.len());
                    for resp in resps {
                        if let proto::Response::Error { code, message, .. } = resp {
                            panic!("bench op failed: {code}: {message}");
                        }
                    }
                }
                (issued, latencies_us)
            })
        })
        .collect();

    let mut total_ops = 0u64;
    let mut latencies = Vec::new();
    for w in workers {
        let (issued, lats) = w.join().expect("bench worker");
        total_ops += issued;
        latencies.extend(lats);
    }
    let elapsed = start.elapsed();
    let telemetry = server.telemetry().snapshot();
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Point {
        connections,
        depth,
        dist_label,
        ops: total_ops,
        elapsed,
        throughput: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        telemetry,
    }
}

fn parse_list(s: &str) -> Vec<usize> {
    let list: Vec<usize> = s.split(',').filter_map(|p| p.trim().parse().ok()).collect();
    assert!(!list.is_empty(), "empty sweep list {s:?}");
    list
}

fn write_net_json(out_dir: &str, shards: usize, keys: u64, ops: u64, points: &[Point]) {
    let points: Vec<Obj> = points
        .iter()
        .map(|p| {
            Obj::new()
                .field("distribution", p.dist_label)
                .field("connections", p.connections)
                .field("depth", p.depth)
                .field("ops", p.ops)
                .field("elapsed_ms", p.elapsed.as_secs_f64() * 1e3)
                .field("throughput", p.throughput)
                .field("p50_us", p.p50_us)
                .field("p95_us", p.p95_us)
                .field("p99_us", p.p99_us)
                .field("telemetry", &p.telemetry)
        })
        .collect();
    let doc = Obj::new()
        .field("shards", shards)
        .field("keys", keys)
        .field("ops_per_point", ops)
        .field("value_len", VALUE_LEN)
        .field("read_ratio", READ_RATIO)
        .field("points", points);
    write_doc(out_dir, "net", doc);
}
