//! `wire_hot`: `AriaServer` (reactor engine) over loopback TCP in front
//! of a 2-shard `ShardedStore<AriaHash>` whose counter tree is fully
//! cache-resident. Protocol, reactor, client and the shard queue hop do
//! most of the work; the Secure Cache always hits and the log is idle.
//!
//! Three phases share `--seconds`: closed loop (capacity), then open
//! loop at the fixed `lo` and `hi` rates (latency from the due time).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aria_net::{proto, AriaClient, AriaServer, ClientConfig, ServerConfig};
use aria_sim::Enclave;
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{AriaHash, StoreConfig};
use aria_workload::{encode_key, value_bytes, YcsbWorkload};

use crate::gen::{Mix, Tally};
use crate::inproc;
use crate::ladder::{self, check_wire, to_wire, window, DEPTH};
use crate::metrics::Report;
use crate::spans::{Name, Recorder};
use crate::{openloop, probes, stats, Rep, RunCfg};

const SHARDS: usize = 2;
/// Closed-loop connections (one generator thread each); never more
/// than the host has cores.
const CONNS: usize = 2;
/// Open-loop offered rates, ops/s. `hi` is under half of the ~190 K
/// ops/s closed-loop capacity measured on the reference host.
pub const LO_RATE: u64 = 20_000;
pub const HI_RATE: u64 = 80_000;
/// Share of `--seconds` spent in the closed-loop phase; the two open
/// loop phases split the rest.
const CLOSED_SHARE: f64 = 0.4;
const WARMUP_WINDOWS: u64 = 2_000;

fn shard_config(mix: &Mix) -> StoreConfig {
    // Default 64 MiB Secure Cache per shard: the whole tree is resident.
    StoreConfig::for_keys(mix.keys / SHARDS as u64 * 2 + 1024)
}

struct Built {
    store: Arc<ShardedStore<AriaHash>>,
    server: Option<AriaServer>,
    clients: Vec<AriaClient>,
    streams: Vec<YcsbWorkload>,
}

impl Built {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until drop").local_addr()
    }
}

impl Drop for Built {
    fn drop(&mut self) {
        // Close client sockets first, then drain and join the server's
        // threads: nothing the benchmark started outlives a set-up.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn conns() -> usize {
    CONNS.min(crate::nproc())
}

fn build(cfg: &RunCfg, mix: &Mix) -> Built {
    let shard_cfg = shard_config(mix);
    let store = Arc::new(
        ShardedStore::with_shards(SHARDS, move |_| {
            // `AriaHash::new` seals with RealSuite.
            AriaHash::new(shard_cfg.clone(), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap_or_else(|e| crate::fatal(&format!("construct sharded store: {e}"))),
    );
    // Load in-process: the wire is what the timed phases measure.
    let mut ids = 0..mix.keys;
    loop {
        let batch: Vec<BatchOp> = ids
            .by_ref()
            .take(512)
            .map(|id| BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, mix.value_len)))
            .collect();
        if batch.is_empty() {
            break;
        }
        if let Some(e) = store.run_batch(batch).iter().find_map(|r| r.error()) {
            crate::fatal(&format!("load: {e}"));
        }
    }
    // Default reactor count (one per core).
    let server = AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default())
        .unwrap_or_else(|e| crate::fatal(&format!("bind loopback server: {e}")));
    let addr = server.local_addr();
    let clients = (0..conns())
        .map(|_| {
            AriaClient::connect(addr, ClientConfig::default())
                .unwrap_or_else(|e| crate::fatal(&format!("connect: {e}")))
        })
        .collect();
    let streams = (0..conns() as u64).map(|c| mix.stream(cfg.seed, c)).collect();
    let mut built = Built { store, server: Some(server), clients, streams };
    let mut tally = Tally::default();
    closed_rep(&mut built, mix, Until::Windows(cfg.scaled(WARMUP_WINDOWS)), &mut tally, None);
    crate::check_tally(&tally);
    built
}

#[derive(Clone, Copy)]
enum Until {
    Windows(u64),
    Elapsed(Duration),
}

/// One closed-loop repetition: every connection keeps a window of
/// [`DEPTH`] requests in flight through `AriaClient::pipeline`.
fn closed_rep(
    built: &mut Built,
    mix: &Mix,
    until: Until,
    tally: &mut Tally,
    recs: Option<&mut [Recorder]>,
) -> Rep {
    let started = Instant::now();
    let mut recs = recs.map(|r| r.iter_mut());
    let per_conn: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = built
            .clients
            .iter_mut()
            .zip(built.streams.iter_mut())
            .enumerate()
            .map(|(c, (client, stream))| {
                let mut rec: Option<&mut Recorder> = recs.as_mut().and_then(Iterator::next);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let phase = rec.as_deref_mut().map(|r| r.open(Name::Phase, c as u64));
                    let mut w = 0u64;
                    loop {
                        let reqs = window(stream, DEPTH);
                        let frames: Vec<proto::Request> = reqs.iter().map(to_wire).collect();
                        let t0 = Instant::now();
                        let replies = client.pipeline(&frames);
                        let t1 = Instant::now();
                        if let (Some(rec), Some(phase)) = (rec.as_deref_mut(), phase) {
                            rec.record(
                                Name::ClientPipeline,
                                phase,
                                w,
                                rec.ns_of(t0),
                                rec.ns_of(t1),
                            );
                        }
                        match replies {
                            Ok(replies) => {
                                for (req, resp) in reqs.iter().zip(replies) {
                                    check_wire(&mut tally, req, mix.value_len, resp);
                                }
                            }
                            Err(_) => {
                                tally.attempted += DEPTH as u64;
                                tally.failed += DEPTH as u64;
                            }
                        }
                        w += 1;
                        let done = match until {
                            Until::Windows(n) => w >= n,
                            Until::Elapsed(d) => t1 - started >= d,
                        };
                        if done {
                            break;
                        }
                    }
                    if let (Some(rec), Some(phase)) = (rec, phase) {
                        rec.close(phase);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut ok = 0;
    for t in per_conn {
        ok += t.attempted - t.failed;
        tally.absorb(t);
    }
    Rep { ok, secs }
}

fn closed_reps(
    built: &mut Built,
    mix: &Mix,
    seconds: f64,
    reps: usize,
    tally: &mut Tally,
) -> Vec<Rep> {
    let slice = Until::Elapsed(Duration::from_secs_f64(seconds / reps as f64));
    (0..reps).map(|_| closed_rep(built, mix, slice, tally, None)).collect()
}

fn stored_bytes(store: &ShardedStore<AriaHash>) -> u64 {
    store.map_shards(|s| inproc::stored_bytes(s)).into_iter().sum()
}

pub fn run(cfg: &RunCfg) -> (Tally, Report) {
    let mix = cfg.workload.mix(cfg);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let closed_s = cfg.seconds * CLOSED_SHARE;
    let open_s = cfg.seconds * (1.0 - CLOSED_SHARE) / 2.0;

    if !cfg.trace {
        let (mut built, setup_s) = crate::setup_median(|| build(cfg, &mix));
        let reps = closed_reps(&mut built, &mix, closed_s, crate::REPS, &mut tally);
        let what = format!("closed loop, {} conns x depth {DEPTH}", conns());
        report.set("throughput_ops_s", crate::throughput(&what, &reps));
        let mut lo = openloop::run(built.addr(), &mix, cfg.seed, LO_RATE, open_s);
        lo.describe(LO_RATE);
        let mut hi = openloop::run(built.addr(), &mix, cfg.seed, HI_RATE, open_s);
        hi.describe(HI_RATE);
        // GET/PUT latency as a remote caller sees it under load: from
        // the due time, at the fixed `hi` rate.
        inproc::report_latency(&mut report, &mut hi.lat, false);
        tally.absorb(lo.tally);
        tally.absorb(hi.tally);
        report.set("setup_s", setup_s);
        report.set(
            "stored_bytes_per_user_byte",
            stored_bytes(&built.store) as f64 / mix.user_bytes() as f64,
        );
        return (tally, report);
    }

    let mut built = build(cfg, &mix);
    let epoch = Instant::now();
    let mut recs: Vec<Recorder> =
        (0..conns()).map(|c| Recorder::new(epoch, c as u32 + 1)).collect();
    let hub = Arc::clone(built.server.as_ref().expect("running").telemetry());
    let net_before = hub.net.snapshot();
    let before = probes::InSitu::take_sharded(&built.store);
    let attempted_before = tally.attempted;
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for on in inproc::TRACE_PATTERN {
        let slice =
            Until::Elapsed(Duration::from_secs_f64(closed_s / inproc::TRACE_PATTERN.len() as f64));
        let rep = closed_rep(&mut built, &mix, slice, &mut tally, on.then_some(&mut recs[..]));
        if on { &mut traced } else { &mut plain }.push(rep);
    }
    let traced = crate::throughput("traced slices", &traced);
    let plain = crate::throughput("untraced slices", &plain);
    let ops = tally.attempted - attempted_before;
    let after = probes::InSitu::take_sharded(&built.store);
    after.report_delta(&before, ops, &mut report);
    let shard_delta = after.shard().delta(before.shard());
    report.set("cache.swap_stops", after.shard().cache.swap_stops as f64);
    report.set("sharded.batch_size_mean", shard_delta.store.batch_size.mean());
    let net = hub.net.snapshot().delta(&net_before);
    report.set("net.ops_per_submission", net.coalesce_ratio());
    report.set("net.tick_batch_p50", net.tick_batch_size.percentile(0.5) as f64);
    report.set("client.trace_overhead_ratio", traced / plain);

    // Open-loop phases: the generator's own health, and the unloaded
    // (`lo`) latency that the end-to-end list does not carry.
    let mut lo = openloop::run(built.addr(), &mix, cfg.seed, LO_RATE, open_s);
    lo.describe(LO_RATE);
    let mut hi = openloop::run(built.addr(), &mix, cfg.seed, HI_RATE, open_s);
    hi.describe(HI_RATE);
    let mut lo_all: Vec<u32> = lo.lat.get.iter().chain(&lo.lat.put).copied().collect();
    report.set("client.open_lo_p50_us", stats::percentile_us(&mut lo_all, 0.50).unwrap_or(0.0));
    report.set("client.open_lo_p99_us", stats::percentile_us(&mut lo_all, 0.99).unwrap_or(0.0));
    report
        .set("client.open_lo_late_us_p99", stats::percentile_us(&mut lo.late, 0.99).unwrap_or(0.0));
    report
        .set("client.open_hi_late_us_p99", stats::percentile_us(&mut hi.late, 0.99).unwrap_or(0.0));
    inproc::report_latency(&mut report, &mut hi.lat, true);
    let hi_attempted = hi.tally.attempted.max(1);
    report.set("client.open_hi_slo_miss_ratio", hi.slo_misses as f64 / hi_attempted as f64);
    report.set("client.open_hi_backlog_max", hi.backlog_max as f64);
    let backlog_halves = hi.backlog_halves;
    tally.absorb(lo.tally);
    tally.absorb(hi.tally);

    // Layers in isolation and the peel ladder.
    let geometry = probes::Geometry::of(&shard_config(&mix), mix.value_len);
    probes::common(&mut report, &geometry, &mix, cfg);
    probes::sharded_hop(&mut report, &mix, SHARDS);
    probes::net_depth1(&mut report, built.addr(), &mix, cfg, &mut tally);
    let mut main_rec = Recorder::new(epoch, 0);
    inproc::isolated_store(&mut report, cfg, &mix, &mut tally, &mut main_rec);
    ladder::wire(&mut report, cfg, &mix, &built.store, built.addr(), &mut main_rec);
    probes::store_residual(&mut report, mix.value_len);
    probes::wire_residual(&mut report);

    if !cfg.quick {
        let get = |name| report.get(name).unwrap_or(0.0);
        let hit = get("cache.hit_ratio");
        crate::claim(hit >= 0.9999, &format!("cache.hit_ratio {hit} = 1.0"));
        let evictions = get("cache.evictions_per_kop");
        crate::claim(evictions == 0.0, &format!("cache.evictions_per_kop {evictions} = 0"));
        let (peel, l3) =
            (get("net.peel_ns_per_op") + get("sharded.peel_ns_per_op"), get("ladder.l3_ns_per_op"));
        crate::claim(
            peel >= 0.5 * l3,
            &format!("net + sharded peel {peel:.0} ns >= 50% of the {l3:.0} ns wire per-op time"),
        );
        // A backlog that grows through the phase means `hi` is beyond
        // what the server sustains, and its latencies are queue length.
        crate::claim(
            backlog_halves[1]
                <= 2 * backlog_halves[0] + 4 * openloop::Schedule::for_rate(HI_RATE).per_burst,
            &format!(
                "open-loop backlog does not grow: max {} then {}",
                backlog_halves[0], backlog_halves[1]
            ),
        );
    }
    drop(built);
    recs.push(main_rec);
    crate::write_trace(cfg, recs);
    (tally, report)
}
