//! `tiered_cold`: a single caller on `TieredStore<AriaHash>` whose data
//! set is six times the hot tier, so the log (append, fsync, verified
//! cold read), promotion/demotion and compaction do most of the work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aria_log::LogConfig;
use aria_store::{AriaHash, KvStore, StoreError, TieredOptions, TieredStore};
use aria_telemetry::ShardTelemetry;
use aria_workload::{encode_key, value_bytes, YcsbWorkload};

use crate::gen::{Mix, Tally};
use crate::inproc::{self, drive, Lat, Loop, Stop, Sut};
use crate::metrics::Report;
use crate::spans::{Name, Recorder, SpanId};
use crate::{ladder, probes, stats, RunCfg};

/// Hot-tier budget: a sixth of the 12 K × (16 + 256) B data set.
const HOT_BUDGET: u64 = 512 << 10;
/// Small segments, so compaction completes many cycles within a run.
const SEGMENT_BYTES: u64 = 128 << 10;
/// Group-commit window: the log fsyncs on its own once this many bytes
/// are pending; the covering `flush()` below closes the window earlier.
const SYNC_WINDOW: u64 = 65_536;
/// Every this many ops the caller's thread does what a shard worker
/// does between batches: `flush()` (the fsync that acknowledges the
/// batch's PUTs), then `maintain()`.
const MAINTAIN_EVERY: u32 = 64;

fn options(cfg: &RunCfg, dir: &Path) -> TieredOptions {
    // Checkpoint interval and compaction threshold stay at defaults.
    TieredOptions::new(dir)
        .hot_budget_bytes(cfg.scaled(HOT_BUDGET) as usize)
        .segment_bytes(SEGMENT_BYTES)
        .sync_writes(true)
        .sync_window_bytes(SYNC_WINDOW)
}

fn log_dir(cfg: &RunCfg, tag: &str) -> PathBuf {
    cfg.out.join(format!("tiered_cold-{tag}-{}", std::process::id()))
}

fn fail(what: &str, e: StoreError) -> ! {
    crate::fatal(&format!("tiered_cold: {what}: {e}"))
}

/// What the upkeep slices did during the timed phase.
#[derive(Default)]
struct Upkeep {
    maintain_ns: u64,
    maintain_max_ns: u64,
    compactions: u64,
    checkpoints: u64,
    migrated: u64,
    flushes: u64,
}

/// Sizes of every segment file ever seen in the log directory. Files
/// only grow until sealed and a victim is never the active segment, so
/// the sum of the largest size seen per segment is the bytes the log
/// has written — read from outside, without a counter in the program.
#[derive(Default)]
struct DirWatch {
    seen: BTreeMap<String, u64>,
}

impl DirWatch {
    fn poll(&mut self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("seg-") {
                let len = entry.metadata().map_or(0, |m| m.len());
                let slot = self.seen.entry(name).or_default();
                *slot = (*slot).max(len);
            }
        }
    }

    fn written(&self) -> u64 {
        self.seen.values().sum()
    }
}

/// Hot/cold split of GET call times, told apart by whether the store's
/// cold-read histogram moved during the call.
struct Classify {
    tele: Arc<ShardTelemetry>,
    hot: Vec<u32>,
    cold: Vec<u32>,
}

struct Tiered {
    /// Whether the current slice is a traced one (see `set_tracing`).
    tracing: bool,
    /// PUTs issued since the counter was last reset.
    puts: u64,
    store: TieredStore<AriaHash>,
    dir: PathBuf,
    since_maintain: u32,
    upkeep: Upkeep,
    watch: Option<DirWatch>,
    classify: Option<Classify>,
}

impl Tiered {
    /// The batch boundary of a shard worker: the covering fsync that
    /// acknowledges the PUTs since the last one, then one bounded slice
    /// of migration / compaction / checkpointing.
    fn maintain(&mut self) -> Result<aria_store::MaintenanceReport, StoreError> {
        self.upkeep.flushes += 1;
        self.store.flush()?;
        self.store.maintain()
    }
}

impl Sut for Tiered {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(c) = self.classify.as_mut().filter(|_| self.tracing) else {
            return self.store.get(key);
        };
        let cold_before = c.tele.store.cold_read_latency.count();
        let started = Instant::now();
        let reply = self.store.get(key);
        let ns = started.elapsed().as_nanos() as u32;
        if c.tele.store.cold_read_latency.count() > cold_before {
            c.cold.push(ns);
        } else {
            c.hot.push(ns);
        }
        reply
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.puts += 1;
        self.store.put(key, value)
    }

    fn upkeep(&mut self, trace: Option<(&mut Recorder, SpanId)>) -> u64 {
        self.since_maintain += 1;
        if self.since_maintain < MAINTAIN_EVERY {
            return 0;
        }
        self.since_maintain = 0;
        let started = Instant::now();
        let done = self.maintain().unwrap_or_else(|e| fail("maintain", e));
        let ended = Instant::now();
        let ns = (ended - started).as_nanos() as u64;
        if let Some((rec, phase)) = trace {
            rec.record(Name::TieredMaintain, phase, 0, rec.ns_of(started), rec.ns_of(ended));
        }
        // Polled in untraced slices too: a segment must be seen before
        // compaction removes it, and 1 in 64 ops pays for it.
        if let Some(watch) = &mut self.watch {
            watch.poll(&self.dir);
        }
        let u = &mut self.upkeep;
        u.maintain_ns += ns;
        u.maintain_max_ns = u.maintain_max_ns.max(ns);
        u.compactions += done.segments_compacted;
        u.checkpoints += u64::from(done.checkpointed);
        u.migrated += done.migrated;
        ns
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }
}

struct Built {
    sut: Tiered,
    stream: YcsbWorkload,
    /// Untrusted Merkle bytes of the hot store (fixed at construction;
    /// the tiered wrapper does not expose its inner store).
    merkle_bytes: u64,
}

fn hot_store(mix: &Mix) -> AriaHash {
    // Default 64 MiB Secure Cache: the hot tier's counter tree is small
    // and resident; this workload is about the cold path.
    inproc::new_store(aria_store::StoreConfig::for_keys(mix.keys), None)
}

fn build(cfg: &RunCfg, mix: &Mix, dir: &Path, tele: Option<&Arc<ShardTelemetry>>) -> Built {
    let _ = std::fs::remove_dir_all(dir);
    let hot = hot_store(mix);
    let merkle_bytes = hot.memory_breakdown().merkle_untrusted as u64;
    let master = hot.core().config.master_key;
    let mut store =
        TieredStore::open(hot, &master, options(cfg, dir)).unwrap_or_else(|e| fail("open", e));
    if let Some(tele) = tele {
        store.attach_telemetry(Arc::clone(tele));
    }
    let mut sut = Tiered {
        tracing: false,
        puts: 0,
        store,
        dir: dir.to_path_buf(),
        since_maintain: 0,
        upkeep: Upkeep::default(),
        watch: None,
        classify: None,
    };
    // Load every key, then age the log: overwrite a share of the keys
    // that ramps from none of the first-loaded to half of the last.
    // Segments of a freshly loaded log all age at the same rate, so
    // compaction would come in waves as long as a repetition; a long-
    // running store has segments of every age, and this starts there.
    // Both passes acknowledge in groups, like the timed phase: one
    // covering fsync (and one upkeep slice) per 64 PUTs.
    let aged = (0..mix.keys).filter(|id| id * 7919 % 100 < 50 * id / mix.keys);
    for (n, id) in (0..mix.keys).chain(aged).enumerate() {
        if let Err(e) = sut.store.put(&encode_key(id), &value_bytes(id, mix.value_len)) {
            fail(&format!("load PUT key id {id}"), e);
        }
        if n as u32 % MAINTAIN_EVERY == MAINTAIN_EVERY - 1 {
            sut.maintain().unwrap_or_else(|e| fail("load maintain", e));
        }
    }
    sut.store.flush().unwrap_or_else(|e| fail("load flush", e));
    let mut stream = mix.stream(cfg.seed, 0);
    let (mut lat, mut tally) = (Lat::default(), Tally::default());
    let mut lp = Loop {
        stream: &mut stream,
        value_len: mix.value_len,
        lat: &mut lat,
        tally: &mut tally,
        rec: None,
    };
    drive(&mut sut, &mut lp, Stop::Ops(cfg.scaled(WARMUP_OPS)));
    crate::check_tally(&tally);
    sut.upkeep = Upkeep::default();
    sut.puts = 0;
    Built { sut, stream, merkle_bytes }
}

const WARMUP_OPS: u64 = 30_000;

/// Drop the store, reopen it through verified recovery, and re-read
/// every key: all were acknowledged (loaded, then only overwritten
/// with their own deterministic value). Returns the recovery time.
fn recover_and_reread(cfg: &RunCfg, mix: &Mix, dir: &Path, tally: &mut Tally) -> f64 {
    let hot = hot_store(mix);
    let master = hot.core().config.master_key;
    let started = Instant::now();
    let mut store = TieredStore::open(hot, &master, options(cfg, dir))
        .unwrap_or_else(|e| fail("recovery refused to serve", e));
    let recovery_s = started.elapsed().as_secs_f64();
    if store.len() != mix.keys {
        crate::fatal(&format!("recovery: {} keys live, {} acknowledged", store.len(), mix.keys));
    }
    for id in 0..mix.keys {
        tally.check_get(id, mix.value_len, store.get(&encode_key(id)));
        crate::check_tally(tally);
        if id % u64::from(MAINTAIN_EVERY) == 0 {
            store.maintain().unwrap_or_else(|e| fail("re-read maintain", e));
        }
    }
    println!("# recovery: {recovery_s:.3} s, {} keys re-read", mix.keys);
    recovery_s
}

pub fn run(cfg: &RunCfg) -> (Tally, Report) {
    let mix = cfg.workload.mix(cfg);
    let dir = log_dir(cfg, "log");
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut lat = Lat::default();

    if !cfg.trace {
        let (mut built, setup_s) = crate::setup_median(|| build(cfg, &mix, &dir, None));
        let tputs = {
            let mut lp = Loop {
                stream: &mut built.stream,
                value_len: mix.value_len,
                lat: &mut lat,
                tally: &mut tally,
                rec: None,
            };
            inproc::timed_reps(&mut built.sut, &mut lp, cfg.seconds, crate::REPS)
        };
        report.set("throughput_ops_s", crate::throughput("closed loop, 1 caller", &tputs));
        inproc::report_latency(&mut report, &mut lat, false);
        report.set("setup_s", setup_s);
        // Heap bytes come from the store's own gauge; attached only now
        // so the timed phase above ran without telemetry.
        let tele = Arc::new(ShardTelemetry::default());
        built.sut.store.attach_telemetry(Arc::clone(&tele));
        built.sut.store.refresh_gauges();
        let stored = tele.mem.live_bytes.get()
            + built.merkle_bytes
            + built.sut.store.enclave().epc_used() as u64
            + built.sut.store.tier_stats().log_bytes;
        report.set("stored_bytes_per_user_byte", stored as f64 / mix.user_bytes() as f64);
        drop(built);
        recover_and_reread(cfg, &mix, &dir, &mut tally);
        let _ = std::fs::remove_dir_all(&dir);
        return (tally, report);
    }

    let tele = Arc::new(ShardTelemetry::default());
    let mut built = build(cfg, &mix, &dir, Some(&tele));
    let mut rec = Recorder::new(Instant::now(), 0);
    built.sut.classify =
        Some(Classify { tele: Arc::clone(&tele), hot: Vec::new(), cold: Vec::new() });
    let mut watch = DirWatch::default();
    watch.poll(&dir);
    let written_before = watch.written();
    built.sut.watch = Some(watch);
    let before = probes::InSitu::take(&tele, built.sut.store.enclave());
    let phase = inproc::traced_phase(
        &mut built.sut,
        &mut built.stream,
        mix.value_len,
        cfg.seconds,
        &mut lat,
        &mut tally,
        &mut rec,
    );
    let ops = phase.ops;
    built.sut.store.refresh_gauges();
    probes::InSitu::take(&tele, built.sut.store.enclave()).report_delta(&before, ops, &mut report);
    report.set("cache.swap_stops", tele.cache.swap_stops.get() as f64);
    report.set("client.trace_overhead_ratio", phase.overhead_ratio);

    inproc::report_latency(&mut report, &mut lat, true);

    // tiered.* and in-situ log.*
    let Classify { mut hot, mut cold, .. } = built.sut.classify.take().expect("set above");
    let gets = (hot.len() + cold.len()).max(1) as f64;
    report.set("tiered.hot_hit_ratio", hot.len() as f64 / gets);
    report.set("tiered.hot_get_us_p50", stats::percentile_us(&mut hot, 0.50).unwrap_or(0.0));
    report.set("tiered.cold_get_us_p50", stats::percentile_us(&mut cold, 0.50).unwrap_or(0.0));
    report.set("tiered.cold_get_us_p99", stats::percentile_us(&mut cold, 0.99).unwrap_or(0.0));
    let u = &built.sut.upkeep;
    report.set("tiered.migrations_per_kop", 1e3 * u.migrated as f64 / ops as f64);
    report.set("tiered.compactions", u.compactions as f64);
    report.set("tiered.checkpoints", u.checkpoints as f64);
    report.set("tiered.maintain_s", u.maintain_ns as f64 / 1e9);
    report.set("tiered.maintain_max_ms", u.maintain_max_ns as f64 / 1e6);
    let tier = built.sut.store.tier_stats();
    report.set("tiered.hot_entries", tier.hot_entries as f64);
    report.set("tiered.cold_entries", tier.cold_entries as f64);
    let mut watch = built.sut.watch.take().expect("set above");
    watch.poll(&dir);
    let put_bytes =
        (built.sut.puts * (aria_workload::KEY_LEN + mix.value_len) as u64).max(1) as f64;
    report.set(
        "log.bytes_written_per_user_byte",
        (watch.written() - written_before) as f64 / put_bytes,
    );
    report.set("log.space_per_live_byte", tier.log_bytes as f64 / mix.user_bytes() as f64);
    report.set("log.sync_count", u.flushes as f64);
    report.set("log.segments", tier.segments as f64);
    let (compactions, hot_ratio) = (u.compactions, hot.len() as f64 / gets);
    let per_op_ns = 1e9 / phase.throughput;
    drop(built);
    report.set("tiered.recovery_s", recover_and_reread(cfg, &mix, &dir, &mut tally));
    let _ = std::fs::remove_dir_all(&dir);

    // Lower layers in isolation: the hot store on its own (the exec
    // share of a hot GET), then the log.
    let geometry = inproc::isolated_store(&mut report, cfg, &mix, &mut tally, &mut rec);
    probes::common(&mut report, &geometry, &mix, cfg);
    probes::store_residual(&mut report, mix.value_len);
    let probe_dir = log_dir(cfg, "logprobe");
    let _ = std::fs::remove_dir_all(&probe_dir);
    let log_cfg = LogConfig::new(probe_dir.clone())
        .segment_bytes(SEGMENT_BYTES)
        .sync_writes(true)
        .sync_window_bytes(SYNC_WINDOW);
    probes::log(&mut report, cfg, &mix, log_cfg, &mut rec);
    let _ = std::fs::remove_dir_all(&probe_dir);

    if !cfg.quick {
        crate::claim(hot_ratio < 0.4, &format!("tiered.hot_hit_ratio {hot_ratio:.3} < 0.4"));
        crate::claim(
            compactions >= 3,
            &format!("tiered.compactions {compactions} >= 3 while timed"),
        );
        ladder::check_generator_share(&report, per_op_ns);
    }
    crate::write_trace(cfg, vec![rec]);
    (tally, report)
}
