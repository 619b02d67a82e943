//! The single-caller closed loop shared by the three in-process
//! workloads, and the two `store_*_bigtree` workloads built on it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aria_cache::CacheConfig;
use aria_sim::Enclave;
use aria_store::{AriaHash, KvStore, StoreConfig, StoreError};
use aria_telemetry::ShardTelemetry;
use aria_workload::{encode_key, value_bytes, Request, YcsbWorkload};

use crate::gen::{Mix, Tally};
use crate::metrics::Report;
use crate::spans::{Name, Recorder, SpanId};
use crate::{ladder, probes, stats, Rep, RunCfg, Workload};

/// What the closed loop drives: a store as its caller sees it.
pub trait Sut {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;
    /// Apply a write and do whatever an acknowledgement promises.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Called before every op: upkeep the system runs on the thread
    /// that serves requests. Returns the nanoseconds it took, which the
    /// caller of the next op waits through.
    fn upkeep(&mut self, _trace: Option<(&mut Recorder, SpanId)>) -> u64 {
        0
    }
    /// Switch on or off whatever the traced run adds inside the calls.
    fn set_tracing(&mut self, _on: bool) {}
}

impl Sut for AriaHash {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        KvStore::get(self, key)
    }
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        KvStore::put(self, key, value)
    }
}

/// Per-call latency samples in nanoseconds, by op type.
#[derive(Default)]
pub struct Lat {
    pub get: Vec<u32>,
    pub put: Vec<u32>,
}

pub enum Stop {
    Ops(u64),
    After(Duration),
}

/// Everything the loop accumulates besides the store's own state.
pub struct Loop<'a> {
    pub stream: &'a mut YcsbWorkload,
    pub value_len: usize,
    pub lat: &'a mut Lat,
    pub tally: &'a mut Tally,
    pub rec: Option<&'a mut Recorder>,
}

/// Drive `sut` with the op stream until `stop`. Each call is timed on
/// its own; the time of an upkeep slice is added to the op that waited
/// behind it. Returns (ops issued, wall seconds).
pub fn drive<S: Sut>(sut: &mut S, lp: &mut Loop<'_>, stop: Stop) -> (u64, f64) {
    let started = Instant::now();
    let phase = lp.rec.as_deref_mut().map(|rec| rec.open(Name::Phase, 0));
    let mut n = 0u64;
    loop {
        let req = lp.stream.next_request();
        let key = encode_key(req.id());
        let waited = sut.upkeep(lp.rec.as_deref_mut().zip(phase)).min(u64::from(u32::MAX)) as u32;
        let (t0, t1);
        match req {
            Request::Get { id } => {
                t0 = Instant::now();
                let reply = sut.get(&key);
                t1 = Instant::now();
                lp.lat.get.push(nanos32(t1 - t0).saturating_add(waited));
                lp.tally.check_get(id, lp.value_len, reply);
            }
            Request::Put { id, value_len } => {
                let value = value_bytes(id, value_len);
                t0 = Instant::now();
                let reply = sut.put(&key, &value);
                t1 = Instant::now();
                lp.lat.put.push(nanos32(t1 - t0).saturating_add(waited));
                lp.tally.check_put(reply);
            }
        }
        if let (Some(rec), Some(phase)) = (lp.rec.as_deref_mut(), phase) {
            let name = if req.is_get() { Name::KvGet } else { Name::KvPut };
            rec.record(name, phase, n, rec.ns_of(t0), rec.ns_of(t1));
        }
        n += 1;
        let done = match stop {
            Stop::Ops(ops) => n >= ops,
            // The op's own end timestamp doubles as the clock check.
            Stop::After(d) => n.is_multiple_of(64) && t1 - started >= d,
        };
        if done {
            break;
        }
    }
    if let (Some(rec), Some(phase)) = (lp.rec.as_deref_mut(), phase) {
        rec.close(phase);
    }
    (n, started.elapsed().as_secs_f64())
}

fn nanos32(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// Put every key once, in id order (the fixed load all workloads use).
pub fn load<S: KvStore>(store: &mut S, mix: &Mix, mut every: impl FnMut(&mut S, u64)) {
    for id in 0..mix.keys {
        if let Err(e) = store.put(&encode_key(id), &value_bytes(id, mix.value_len)) {
            crate::fatal(&format!("load: PUT key id {id} failed: {e}"));
        }
        every(store, id);
    }
}

/// Run the timed phase as `reps` equal slices of `seconds`.
pub fn timed_reps<S: Sut>(sut: &mut S, lp: &mut Loop<'_>, seconds: f64, reps: usize) -> Vec<Rep> {
    let slice = Duration::from_secs_f64(seconds / reps as f64);
    (0..reps)
        .map(|_| {
            let failed_before = lp.tally.failed;
            let (ops, secs) = drive(sut, lp, Stop::After(slice));
            Rep { ok: ops - (lp.tally.failed - failed_before), secs }
        })
        .collect()
}

/// Slices of a traced run's timed phase; `true` records spans. The
/// untraced slices sit between the traced ones so that drift in host
/// speed falls on both sides of `client.trace_overhead_ratio` alike.
pub const TRACE_PATTERN: [bool; crate::REPS + 2] = [true, false, true, true, false, true, true];

/// What a traced timed phase measured.
pub struct TracedPhase {
    /// Ops issued over all slices (the base of the in-situ deltas).
    pub ops: u64,
    /// Throughput over the traced slices.
    pub throughput: f64,
    /// Traced ÷ untraced throughput.
    pub overhead_ratio: f64,
}

/// Run the timed phase of a traced run: [`TRACE_PATTERN`] slices of
/// equal length, latency samples kept from the traced ones.
pub fn traced_phase<S: Sut>(
    sut: &mut S,
    stream: &mut YcsbWorkload,
    value_len: usize,
    seconds: f64,
    lat: &mut Lat,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> TracedPhase {
    let slice = seconds / TRACE_PATTERN.len() as f64;
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let attempted_before = tally.attempted;
    for on in TRACE_PATTERN {
        sut.set_tracing(on);
        let mut unkept = Lat::default();
        let mut lp = Loop {
            stream: &mut *stream,
            value_len,
            lat: if on { &mut *lat } else { &mut unkept },
            tally: &mut *tally,
            rec: on.then_some(&mut *rec),
        };
        let rep = timed_reps(sut, &mut lp, slice, 1)[0];
        if on { &mut traced } else { &mut plain }.push(rep);
    }
    sut.set_tracing(false);
    let throughput = crate::throughput("traced slices", &traced);
    let overhead_ratio = throughput / crate::throughput("untraced slices", &plain);
    TracedPhase { ops: tally.attempted - attempted_before, throughput, overhead_ratio }
}

/// GET and PUT latency percentiles: the medians are end-to-end metrics
/// (untraced run); the tails did not repeat within a tenth between run
/// sets and are reported under `client.` by the traced run instead.
pub fn report_latency(report: &mut Report, lat: &mut Lat, traced: bool) {
    let q = |samples: &mut Vec<u32>, q: f64, what: &str| {
        stats::percentile_us(samples, q).unwrap_or_else(|| {
            crate::fatal(&format!("{what}: only {} samples, too few to report", samples.len()))
        })
    };
    println!("# latency samples: {} GET, {} PUT", lat.get.len(), lat.put.len());
    if traced {
        report.set("client.get_p99_us", q(&mut lat.get, 0.99, "client.get_p99_us"));
        report.set("client.put_p99_us", q(&mut lat.put, 0.99, "client.put_p99_us"));
    } else {
        report.set("get_p50_us", q(&mut lat.get, 0.50, "get_p50_us"));
        report.set("put_p50_us", q(&mut lat.put, 0.50, "put_p50_us"));
    }
}

// ---------------------------------------------------------------------
// store_skew_bigtree / store_uniform_rw_bigtree

/// Secure Cache bytes: far below the ~7 MiB counter tree of 400 K keys,
/// so the swap / stop-swap machinery is what gets measured.
const CACHE_BYTES: usize = 1 << 20;

pub fn store_config(mix: &Mix, cache_bytes: usize) -> StoreConfig {
    let mut cfg = StoreConfig::for_keys(mix.keys);
    cfg.cache = CacheConfig::with_capacity(cache_bytes);
    cfg
}

pub fn new_store(cfg: StoreConfig, tele: Option<&Arc<ShardTelemetry>>) -> AriaHash {
    // `AriaHash::new` seals with RealSuite (real AES-CTR / CMAC).
    let mut store = AriaHash::new(cfg, Arc::new(Enclave::with_default_epc()))
        .unwrap_or_else(|e| crate::fatal(&format!("construct store: {e}")));
    if let Some(tele) = tele {
        store.attach_telemetry(Arc::clone(tele));
    }
    store
}

/// (untrusted heap live + Merkle tree + EPC in use) of one store.
pub fn stored_bytes(store: &AriaHash) -> u64 {
    let m = store.memory_breakdown();
    (m.heap_live + m.merkle_untrusted + m.epc_total) as u64
}

struct Built {
    store: AriaHash,
    stream: YcsbWorkload,
}

fn build(cfg: &RunCfg, mix: &Mix, warmup: u64, tele: Option<&Arc<ShardTelemetry>>) -> Built {
    let mut store = new_store(store_config(mix, cfg.scaled(CACHE_BYTES as u64) as usize), tele);
    load(&mut store, mix, |_, _| {});
    let mut stream = mix.stream(cfg.seed, 0);
    let (mut lat, mut tally) = (Lat::default(), Tally::default());
    let mut lp = Loop {
        stream: &mut stream,
        value_len: mix.value_len,
        lat: &mut lat,
        tally: &mut tally,
        rec: None,
    };
    drive(&mut store, &mut lp, Stop::Ops(warmup));
    crate::check_tally(&tally);
    Built { store, stream }
}

pub fn run(cfg: &RunCfg) -> (Tally, Report) {
    let mix = cfg.workload.mix(cfg);
    let warmup = cfg.scaled(250_000);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut lat = Lat::default();

    if !cfg.trace {
        let (mut built, setup_s) = crate::setup_median(|| build(cfg, &mix, warmup, None));
        let mut lp = Loop {
            stream: &mut built.stream,
            value_len: mix.value_len,
            lat: &mut lat,
            tally: &mut tally,
            rec: None,
        };
        let reps = timed_reps(&mut built.store, &mut lp, cfg.seconds, crate::REPS);
        report.set("throughput_ops_s", crate::throughput("closed loop, 1 caller", &reps));
        report_latency(&mut report, &mut lat, false);
        report.set("setup_s", setup_s);
        report.set(
            "stored_bytes_per_user_byte",
            stored_bytes(&built.store) as f64 / mix.user_bytes() as f64,
        );
        return (tally, report);
    }

    // Traced run: the same loop with spans on and the store's telemetry
    // attached, with untraced slices in between for the overhead ratio.
    let tele = Arc::new(ShardTelemetry::default());
    let mut built = build(cfg, &mix, warmup, Some(&tele));
    let mut rec = Recorder::new(Instant::now(), 0);
    let before = probes::InSitu::take(&tele, built.store.enclave());
    let phase = traced_phase(
        &mut built.store,
        &mut built.stream,
        mix.value_len,
        cfg.seconds,
        &mut lat,
        &mut tally,
        &mut rec,
    );
    built.store.refresh_gauges();
    probes::InSitu::take(&tele, built.store.enclave()).report_delta(
        &before,
        phase.ops,
        &mut report,
    );
    // The stop happens once, during warm-up: report the lifetime count.
    report.set("cache.swap_stops", tele.cache.swap_stops.get() as f64);
    report.set("client.trace_overhead_ratio", phase.overhead_ratio);
    report_latency(&mut report, &mut lat, true);
    report_store_calls(&mut report, &mut lat);

    let geometry = probes::Geometry::of(&built.store.core().config, mix.value_len);
    probes::common(&mut report, &geometry, &mix, cfg);
    ladder::in_process(&mut report, cfg, &mix, &mut built.store, &mut rec);
    probes::store_residual(&mut report, mix.value_len);
    if !cfg.quick {
        check_claims(cfg.workload, &report, 1e9 / phase.throughput);
    }
    crate::write_trace(cfg, vec![rec]);
    (tally, report)
}

/// For workloads whose system under test wraps the store (`wire_hot`,
/// `tiered_cold`): a plain `AriaHash` holding the same keys, measured on
/// its own for the ladder's L0/L1 and the `store.*` call times. Returns
/// that store's geometry.
pub fn isolated_store(
    report: &mut Report,
    cfg: &RunCfg,
    mix: &Mix,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> probes::Geometry {
    // Default 64 MiB Secure Cache: counter tree resident, as in both
    // wrapping workloads.
    let mut store = new_store(StoreConfig::for_keys(mix.keys), None);
    load(&mut store, mix, |_, _| {});
    ladder::in_process(report, cfg, mix, &mut store, rec);
    let mut lat = Lat::default();
    let mut stream = mix.stream(cfg.seed, 3);
    let mut lp =
        Loop { stream: &mut stream, value_len: mix.value_len, lat: &mut lat, tally, rec: None };
    drive(&mut store, &mut lp, Stop::Ops(cfg.scaled(100_000)));
    report_store_calls(report, &mut lat);
    probes::Geometry::of(&store.core().config, mix.value_len)
}

/// `store.*` call-time metrics from the spans' latency samples.
pub fn report_store_calls(report: &mut Report, lat: &mut Lat) {
    let mean = lat.get.iter().map(|&ns| f64::from(ns)).sum::<f64>() / lat.get.len().max(1) as f64;
    report.set("store.get_ns_mean", mean);
    lat.get.sort_unstable();
    lat.put.sort_unstable();
    report.set("store.get_ns_p50", stats::percentile(&lat.get, 0.50).unwrap_or(0.0));
    report.set("store.put_ns_p50", stats::percentile(&lat.put, 0.50).unwrap_or(0.0));
}

/// Each workload must stress what it claims to; the run asserts it.
fn check_claims(workload: Workload, report: &Report, per_op_ns: f64) {
    let hit = report.get("cache.hit_ratio").unwrap_or(0.0);
    let stops = report.get("cache.swap_stops").unwrap_or(0.0);
    match workload {
        Workload::StoreSkewBigtree => {
            crate::claim((0.6..=0.9).contains(&hit), &format!("cache.hit_ratio {hit} in 0.6..0.9"));
            crate::claim(stops == 0.0, &format!("cache.swap_stops {stops} == 0"));
        }
        _ => {
            crate::claim(hit < 0.1, &format!("cache.hit_ratio {hit} < 0.1"));
            crate::claim(stops >= 1.0, &format!("cache.swap_stops {stops} >= 1"));
        }
    }
    ladder::check_generator_share(report, per_op_ns);
}
