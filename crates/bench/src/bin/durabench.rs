//! durabench — durability benchmark for the hot/cold tiered store.
//!
//! Three phases, all against `TieredStore<AriaHash>` (the hot region
//! is a full Aria store; the cold tier is the sealed segment log):
//!
//! 1. **Tiering sweep** — load a dataset several times larger than the
//!    hot-region byte budget, then read it under zipfian skew at a
//!    range of thetas. Reports per theta the throughput, the hot-tier
//!    hit rate, the promotions made while timed and the tier's
//!    promotion threshold (`TierStats::promotion_threshold`: the cold
//!    read on which a cold key is promoted). A promotion pays only for
//!    a key read that often, so a low hit rate with few promotions is
//!    the tier declining churn that would cost more than the cold
//!    reads it saves; throughput per theta is the figure to compare.
//! 2. **Crash recovery** — load, checkpoint, keep writing, then cut
//!    the segment file at a random offset past the checkpoint frontier
//!    (a SIGKILL / power cut). Reopen and time verified recovery: the
//!    replayed state must reproduce the checkpoint root, survivors
//!    must be an exact prefix of the append order, and a cut *below*
//!    the frontier must be refused with a typed error, never served.
//! 3. **Log chaos** — drive the three durability fault sites
//!    (`log_bit_flip`, `torn_append`, `stale_checkpoint_rollback`)
//!    from a seeded `ChaosEngine` schedule. Every strike must end in a
//!    detected error or clean truncation; the acknowledged-then-wrong
//!    read count must be zero.
//!
//! Writes one JSON document to `<out>/durability.json` (the committed
//! `BENCH_durability.json` snapshot is a copy).
//!
//! ```text
//! cargo run --release --bin durabench            # full run
//! cargo run --release --bin durabench -- --smoke # CI-sized
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aria_bench::report::{print_table, write_doc, Obj};
use aria_bench::Args;
use aria_chaos::{ChaosEngine, FaultPlan, FaultSite};
use aria_sim::Enclave;
use aria_store::tiered::{TieredOptions, TieredStore};
use aria_store::{AriaHash, KvStore, RecoveryFailure, StoreConfig, StoreError};
use aria_telemetry::ShardTelemetry;
use aria_workload::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER: [u8; 16] = *b"durabench-master";

/// xorshift64* — self-contained deterministic stream for key/value
/// contents and cut offsets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("dura-key-{i:010}").into_bytes()
}

fn value(i: u64, round: u64, len: usize) -> Vec<u8> {
    let mut v = format!("v{round:04}-{i:010}-").into_bytes();
    while v.len() < len {
        v.push(b'a' + ((i + round + v.len() as u64) % 26) as u8);
    }
    v.truncate(len);
    v
}

struct Sizes {
    keys: u64,
    value_len: usize,
    hot_budget: usize,
    segment_bytes: u64,
    sweep_ops: u64,
    recovery_trials: u64,
    chaos_trials: u64,
}

impl Sizes {
    fn from(args: &Args) -> Sizes {
        if args.flag("smoke") {
            Sizes {
                keys: 4_000,
                value_len: 128,
                hot_budget: 96 << 10,
                segment_bytes: 64 << 10,
                sweep_ops: 20_000,
                recovery_trials: 4,
                chaos_trials: 9,
            }
        } else {
            Sizes {
                keys: args.get("keys", 60_000u64),
                value_len: args.get("vlen", 256usize),
                hot_budget: args.get("hot-budget", 2 << 20),
                segment_bytes: args.get("segment-bytes", 1 << 20),
                sweep_ops: args.ops(),
                recovery_trials: args.get("recovery-trials", 8u64),
                chaos_trials: args.get("chaos-trials", 30u64),
            }
        }
    }

    fn dataset_bytes(&self) -> u64 {
        self.keys * (key(0).len() as u64 + self.value_len as u64)
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aria-durabench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh_hot(keys: u64) -> AriaHash {
    let mut cfg = StoreConfig::for_keys(keys);
    cfg.master_key = MASTER;
    cfg.cache = aria_cache::CacheConfig::with_capacity(16 << 20);
    AriaHash::new(cfg, Arc::new(Enclave::new(aria_sim::CostModel::no_sgx(), 1 << 30)))
        .expect("build hot store")
}

fn open_tiered(
    dir: &Path,
    sz: &Sizes,
    min_epoch: u64,
) -> Result<TieredStore<AriaHash>, StoreError> {
    let opts = TieredOptions::new(dir.to_path_buf())
        .segment_bytes(sz.segment_bytes)
        .hot_budget_bytes(sz.hot_budget)
        .checkpoint_every(0)
        .min_epoch(min_epoch);
    TieredStore::open(fresh_hot(sz.keys), &MASTER, opts)
}

/// Copy every file in `dir` into `into` (flat — the log layout has no
/// subdirectories).
fn snapshot_dir(dir: &Path, into: &Path) {
    let _ = std::fs::remove_dir_all(into);
    std::fs::create_dir_all(into).expect("create snapshot dir");
    for entry in std::fs::read_dir(dir).expect("read log dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), into.join(entry.file_name())).expect("copy log file");
    }
}

// ---------------------------------------------------------------------------
// phase 1: tiering sweep

struct SweepPoint {
    theta: f64,
    throughput: f64,
    hot_hit_rate: f64,
    /// Promotions during the timed reads.
    promotions: u64,
    /// The tier's promotion threshold when the timed reads end.
    promotion_threshold: u32,
    hot_entries: u64,
    cold_entries: u64,
    cold_read_p99_us: f64,
}

fn run_sweep(sz: &Sizes) -> Vec<SweepPoint> {
    // theta must be > 0 and != 1 for the Zipf generator; 0.05 stands
    // in for "near uniform".
    let thetas = [0.05, 0.5, 0.8, 0.99, 1.2];
    let mut points = Vec::new();
    for &theta in &thetas {
        let dir = bench_dir(&format!("sweep-{}", (theta * 100.0) as u32));
        let mut store = open_tiered(&dir, sz, 0).expect("open sweep store");
        let tele = Arc::new(ShardTelemetry::default());
        store.attach_telemetry(Arc::clone(&tele));
        for i in 0..sz.keys {
            store.put(&key(i), &value(i, 0, sz.value_len)).expect("load put");
        }
        // Migrate everything over budget down to the hot budget.
        loop {
            let r = store.maintain().expect("maintain");
            if r.migrated == 0 {
                break;
            }
        }
        let zipf = ZipfianGenerator::new(sz.keys, theta);
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + (theta * 1000.0) as u64);
        // Warm the hot region under the measured distribution.
        for _ in 0..sz.sweep_ops / 4 {
            let i = zipf.next(&mut rng);
            let _ = store.get(&key(i)).expect("warm get");
            let _ = store.maintain().expect("warm maintain");
        }
        let cold_before = tele.store.cold_read_latency.snapshot().count();
        let promotions_before = store.tier_stats().promotions;
        let started = Instant::now();
        for _ in 0..sz.sweep_ops {
            let i = zipf.next(&mut rng);
            let v = store.get(&key(i)).expect("sweep get").expect("key present");
            assert!(!v.is_empty());
            let _ = store.maintain().expect("sweep maintain");
        }
        let secs = started.elapsed().as_secs_f64();
        let snap = tele.store.cold_read_latency.snapshot();
        let cold_reads = snap.count() - cold_before;
        let stats = store.tier_stats();
        points.push(SweepPoint {
            theta,
            throughput: sz.sweep_ops as f64 / secs,
            hot_hit_rate: 1.0 - cold_reads as f64 / sz.sweep_ops as f64,
            promotions: stats.promotions - promotions_before,
            promotion_threshold: stats.promotion_threshold,
            hot_entries: stats.hot_entries,
            cold_entries: stats.cold_entries,
            cold_read_p99_us: snap.percentile(0.99) as f64 / 1_000.0,
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    points
}

// ---------------------------------------------------------------------------
// phase 2: crash recovery

#[derive(Default)]
struct RecoveryResults {
    trials: u64,
    /// Reopens after a cut past the checkpoint frontier that verified.
    recovered: u64,
    /// Cuts below the frontier refused with `RecoveryDiverged`.
    refused_deep_cut: u64,
    /// Any outcome that was neither (a silent wrong accept).
    wrong: u64,
    total_recovery_ms: f64,
    max_recovery_ms: f64,
    records_replayed: u64,
}

fn run_recovery(sz: &Sizes) -> RecoveryResults {
    let mut out = RecoveryResults::default();
    let mut rng = Rng(0xc0ffee);
    for trial in 0..sz.recovery_trials {
        let dir = bench_dir(&format!("recovery-{trial}"));
        let mut store = open_tiered(&dir, sz, 0).expect("open recovery store");
        let loaded = sz.keys / 4;
        for i in 0..loaded {
            store.put(&key(i), &value(i, trial, sz.value_len)).expect("load");
        }
        let cp = store.force_checkpoint().expect("checkpoint");
        let (cp_seg, cp_off) = store.log_frontier();
        // Writes past the checkpoint: an unattested tail a crash may
        // legitimately tear.
        let tail = 64 + rng.below(256);
        for i in loaded..loaded + tail {
            store.put(&key(i), &value(i, trial, sz.value_len)).expect("tail put");
        }
        let (end_seg, end_off) = store.log_frontier();
        drop(store);

        let deep = trial % 4 == 3; // every 4th trial cuts attested state
        if deep {
            // Cut below the checkpoint frontier: acknowledged-and-
            // attested state is lost, recovery must refuse.
            let cut = cp_off / 2 + 1;
            aria_log::crash_cut(&dir, cp_seg, cut).expect("deep cut");
            // Drop segments after the cut one too (a real torn disk
            // loses the later files as well).
            let mut seg = cp_seg + 1;
            while aria_log::segment_file_len(&dir, seg).is_ok() {
                let _ = std::fs::remove_file(aria_log::segment_path(&dir, seg));
                seg += 1;
            }
            match open_tiered(&dir, sz, cp.epoch) {
                Err(StoreError::RecoveryDiverged { .. }) => out.refused_deep_cut += 1,
                Err(_) => out.refused_deep_cut += 1, // refused, differently typed
                Ok(_) => out.wrong += 1,             // served torn attested state!
            }
        } else {
            // Cut in the unattested tail (only the last segment tears;
            // if the tail spans segments, cut inside the last one).
            let cut = if end_seg == cp_seg {
                cp_off + 1 + rng.below(end_off.saturating_sub(cp_off + 1).max(1))
            } else {
                rng.below(end_off.max(1))
            };
            aria_log::crash_cut(&dir, end_seg, cut).expect("tail cut");
            let started = Instant::now();
            match open_tiered(&dir, sz, cp.epoch) {
                Ok(mut reopened) => {
                    let ms = started.elapsed().as_secs_f64() * 1_000.0;
                    out.total_recovery_ms += ms;
                    out.max_recovery_ms = out.max_recovery_ms.max(ms);
                    out.records_replayed += reopened.len();
                    // Every checkpointed (acknowledged + attested) key
                    // must read back exactly.
                    let mut ok = true;
                    for i in 0..loaded {
                        match reopened.get(&key(i)) {
                            Ok(Some(v)) if v == value(i, trial, sz.value_len) => {}
                            _ => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    // Survivors of the tail must be an exact prefix:
                    // once one tail key is missing, all later ones are.
                    let mut seen_gap = false;
                    for i in loaded..loaded + tail {
                        match reopened.get(&key(i)) {
                            Ok(Some(v)) => {
                                if seen_gap || v != value(i, trial, sz.value_len) {
                                    ok = false;
                                    break;
                                }
                            }
                            Ok(None) => seen_gap = true,
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        out.recovered += 1;
                    } else {
                        out.wrong += 1;
                    }
                }
                Err(_) => out.wrong += 1, // tail cut must be survivable
            }
        }
        out.trials += 1;
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

// ---------------------------------------------------------------------------
// phase 3: log chaos

#[derive(Default)]
struct ChaosResults {
    trials: u64,
    bit_flips: u64,
    torn_appends: u64,
    rollbacks: u64,
    detected: u64,
    clean_truncations: u64,
    /// Reads that returned acknowledged-but-wrong data with no error.
    wrong_reads: u64,
}

fn run_chaos(sz: &Sizes, seed: u64) -> ChaosResults {
    let mut out = ChaosResults::default();
    let plan = FaultPlan::new(seed)
        .with_rate(FaultSite::LogBitFlip, 10_000)
        .with_rate(FaultSite::TornAppend, 10_000)
        .with_rate(FaultSite::StaleCheckpointRollback, 10_000);
    let engine = ChaosEngine::new(plan);
    let sites = [FaultSite::LogBitFlip, FaultSite::TornAppend, FaultSite::StaleCheckpointRollback];
    for trial in 0..sz.chaos_trials {
        let site = sites[(trial % 3) as usize];
        let Some(entropy) = engine.try_inject(site) else { continue };
        let dir = bench_dir(&format!("chaos-{trial}"));
        let base = sz.keys / 8;
        match site {
            FaultSite::LogBitFlip => {
                out.bit_flips += 1;
                let mut store = open_tiered(&dir, sz, 0).expect("open chaos store");
                for i in 0..base {
                    store.put(&key(i), &value(i, trial, sz.value_len)).expect("put");
                }
                let cp = store.force_checkpoint().expect("checkpoint");
                drop(store);
                let len = aria_log::segment_file_len(&dir, 0).expect("segment length");
                let off = entropy % len.max(1);
                let mask = ((entropy >> 11) & 0xff) as u8;
                aria_log::flip_byte(&dir, 0, off, mask).expect("flip");
                match open_tiered(&dir, sz, cp.epoch) {
                    Err(StoreError::RecoveryDiverged { .. }) => out.detected += 1,
                    Err(_) => out.detected += 1,
                    Ok(mut reopened) => {
                        // A flip in the torn-tail-shaped region of the
                        // last segment can truncate instead of refuse;
                        // that is only sound if the surviving state
                        // still verifies — which open() proved against
                        // the checkpoint root. Reads must be right.
                        out.clean_truncations += 1;
                        for i in 0..base {
                            match reopened.get(&key(i)) {
                                Ok(Some(v)) if v == value(i, trial, sz.value_len) => {}
                                Ok(None) | Err(_) => {}
                                Ok(Some(_)) => out.wrong_reads += 1,
                            }
                        }
                    }
                }
            }
            FaultSite::TornAppend => {
                out.torn_appends += 1;
                let mut store = open_tiered(&dir, sz, 0).expect("open chaos store");
                for i in 0..base {
                    store.put(&key(i), &value(i, trial, sz.value_len)).expect("put");
                }
                let cp = store.force_checkpoint().expect("checkpoint");
                // The next append tears: only a prefix hits the disk,
                // as if the process died mid-write.
                let keep = (entropy % 40) as usize + 5;
                store.set_log_fault_hook(Some(Box::new(move |frame: &mut Vec<u8>| {
                    Some(keep.min(frame.len()))
                })));
                store.put(&key(base), &value(base, trial, sz.value_len)).expect("torn put");
                drop(store);
                match open_tiered(&dir, sz, cp.epoch) {
                    Ok(mut reopened) => {
                        out.clean_truncations += 1;
                        // The torn record must have vanished cleanly…
                        match reopened.get(&key(base)) {
                            Ok(None) => {}
                            Ok(Some(_)) => out.wrong_reads += 1,
                            Err(_) => {}
                        }
                        // …and every checkpointed key must still read.
                        for i in 0..base {
                            match reopened.get(&key(i)) {
                                Ok(Some(v)) if v == value(i, trial, sz.value_len) => {}
                                Ok(None) | Err(_) => out.wrong_reads += 1,
                                _ => {}
                            }
                        }
                    }
                    Err(_) => out.detected += 1,
                }
            }
            FaultSite::StaleCheckpointRollback => {
                out.rollbacks += 1;
                let mut store = open_tiered(&dir, sz, 0).expect("open chaos store");
                for i in 0..base {
                    store.put(&key(i), &value(i, trial, sz.value_len)).expect("put");
                }
                store.force_checkpoint().expect("checkpoint epoch 1");
                drop(store);
                let snap = bench_dir(&format!("chaos-snap-{trial}"));
                snapshot_dir(&dir, &snap);
                let mut store = open_tiered(&dir, sz, 1).expect("reopen");
                for i in base..base + 64 {
                    store.put(&key(i), &value(i, trial, sz.value_len)).expect("put");
                }
                let cp2 = store.force_checkpoint().expect("checkpoint epoch 2");
                drop(store);
                // Host rolls the directory back to the epoch-1 state.
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::rename(&snap, &dir).expect("roll back dir");
                match open_tiered(&dir, sz, cp2.epoch) {
                    Err(StoreError::RecoveryDiverged {
                        reason: RecoveryFailure::Rollback { .. },
                    }) => out.detected += 1,
                    Err(_) => out.detected += 1,
                    Ok(_) => out.wrong_reads += 1, // stale state served
                }
            }
            _ => unreachable!("only log sites scheduled"),
        }
        out.trials += 1;
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

// ---------------------------------------------------------------------------
// report

fn write_json(
    out_dir: &str,
    sz: &Sizes,
    sweep: &[SweepPoint],
    rec: &RecoveryResults,
    chaos: &ChaosResults,
) {
    let sweep: Vec<Obj> = sweep
        .iter()
        .map(|p| {
            Obj::new()
                .field("theta", p.theta)
                .field("throughput", p.throughput)
                .field("hot_hit_rate", p.hot_hit_rate)
                .field("promotions", p.promotions)
                .field("promotion_threshold", p.promotion_threshold)
                .field("hot_entries", p.hot_entries)
                .field("cold_entries", p.cold_entries)
                .field("cold_read_p99_us", p.cold_read_p99_us)
        })
        .collect();
    let recovery = Obj::new()
        .field("trials", rec.trials)
        .field("recovered", rec.recovered)
        .field("refused_deep_cut", rec.refused_deep_cut)
        .field("wrong", rec.wrong)
        .field("mean_recovery_ms", rec.total_recovery_ms / rec.recovered.max(1) as f64)
        .field("max_recovery_ms", rec.max_recovery_ms)
        .field("records_replayed", rec.records_replayed);
    let chaos = Obj::new()
        .field("trials", chaos.trials)
        .field("bit_flips", chaos.bit_flips)
        .field("torn_appends", chaos.torn_appends)
        .field("rollbacks", chaos.rollbacks)
        .field("detected", chaos.detected)
        .field("clean_truncations", chaos.clean_truncations)
        .field("wrong_reads", chaos.wrong_reads);
    let doc = Obj::new()
        .field("dataset_bytes", sz.dataset_bytes())
        .field("hot_budget_bytes", sz.hot_budget)
        .field("keys", sz.keys)
        .field("value_len", sz.value_len)
        .field("sweep", sweep)
        .field("recovery", recovery)
        .field("chaos", chaos);
    write_doc(out_dir, "durability", doc);
}

fn main() {
    let args = Args::parse();
    let sz = Sizes::from(&args);
    let out_dir = args.get_str("out", "results");
    println!(
        "durabench — {} keys × {} B values = {:.1} MiB dataset over a {:.1} MiB hot budget",
        sz.keys,
        sz.value_len,
        sz.dataset_bytes() as f64 / (1 << 20) as f64,
        sz.hot_budget as f64 / (1 << 20) as f64,
    );

    let sweep = run_sweep(&sz);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.theta),
                aria_bench::report::fmt_tput(p.throughput),
                format!("{:.1}", p.hot_hit_rate * 100.0),
                p.promotions.to_string(),
                p.promotion_threshold.to_string(),
                p.hot_entries.to_string(),
                p.cold_entries.to_string(),
                format!("{:.0}", p.cold_read_p99_us),
            ]
        })
        .collect();
    print_table(
        "zipfian sweep (larger-than-DRAM dataset)",
        &["theta", "ops/s", "hot-hit%", "promotions", "threshold", "hot", "cold", "cold-p99us"],
        &rows,
    );

    let rec = run_recovery(&sz);
    print_table(
        "crash recovery",
        &["trials", "recovered", "refused-deep-cut", "wrong", "mean ms", "max ms"],
        &[vec![
            rec.trials.to_string(),
            rec.recovered.to_string(),
            rec.refused_deep_cut.to_string(),
            rec.wrong.to_string(),
            format!("{:.1}", rec.total_recovery_ms / rec.recovered.max(1) as f64),
            format!("{:.1}", rec.max_recovery_ms),
        ]],
    );

    let chaos = run_chaos(&sz, args.get("seed", 0x0d15ea5eu64));
    print_table(
        "log chaos",
        &["trials", "flips", "torn", "rollbacks", "detected", "truncated", "wrong-reads"],
        &[vec![
            chaos.trials.to_string(),
            chaos.bit_flips.to_string(),
            chaos.torn_appends.to_string(),
            chaos.rollbacks.to_string(),
            chaos.detected.to_string(),
            chaos.clean_truncations.to_string(),
            chaos.wrong_reads.to_string(),
        ]],
    );

    write_json(&out_dir, &sz, &sweep, &rec, &chaos);

    let failed = rec.wrong > 0 || chaos.wrong_reads > 0;
    if failed {
        eprintln!(
            "\nFAIL: {} wrong recoveries, {} acknowledged-then-wrong reads",
            rec.wrong, chaos.wrong_reads
        );
        std::process::exit(1);
    }
    println!("\nOK: 0 wrong recoveries, 0 acknowledged-then-wrong reads");
}
