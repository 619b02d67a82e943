//! perfbench — Aria's wall-clock benchmark: four workloads, end-to-end
//! metrics with fixed regression bounds, and an outside-in per-layer
//! ledger. See README.md in this directory.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! perfbench all --seed N --out DIR [--runs K] [--seconds S] [--quick]
//! perfbench compare A_DIR B_DIR
//! ```

mod compare;
mod gen;
mod inproc;
mod json;
mod ladder;
mod metrics;
mod openloop;
mod probes;
mod spans;
mod stats;
mod suite;
mod tiered;
mod wire;

use std::path::PathBuf;
use std::time::Instant;

use aria_workload::KeyDistribution;

use gen::{Mix, Tally};
use json::Value;
use metrics::Report;

/// Timed repetitions per run.
pub const REPS: usize = 5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds one run measures unless `--seconds` says otherwise (the
/// value `BENCHMARK.json` records as `run_seconds`).
pub const RUN_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireHot,
    StoreSkewBigtree,
    StoreUniformRwBigtree,
    TieredCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireHot,
        Workload::StoreSkewBigtree,
        Workload::StoreUniformRwBigtree,
        Workload::TieredCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHot => "wire_hot",
            Workload::StoreSkewBigtree => "store_skew_bigtree",
            Workload::StoreUniformRwBigtree => "store_uniform_rw_bigtree",
            Workload::TieredCold => "tiered_cold",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Data set and traffic mix (README.md, "Workloads", says why).
    pub fn mix(self, cfg: &RunCfg) -> Mix {
        let zipf = |theta| KeyDistribution::Zipfian { theta };
        let (keys, value_len, read_ratio, dist) = match self {
            Workload::WireHot => (100_000, 64, 0.95, zipf(0.99)),
            Workload::StoreSkewBigtree => (400_000, 64, 0.95, zipf(0.99)),
            Workload::StoreUniformRwBigtree => (400_000, 64, 0.50, KeyDistribution::Uniform),
            Workload::TieredCold => (12_000, 256, 0.90, zipf(0.5)),
        };
        Mix { keys: cfg.scaled(keys), value_len, read_ratio, dist }
    }
}

/// One run's parameters, as the contract's command line gives them.
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: a tenth of the data and op counts, same code paths.
    /// Results are marked and `compare` refuses them.
    pub quick: bool,
    pub out: PathBuf,
}

impl RunCfg {
    /// A size or op count, divided by ten in quick mode.
    pub fn scaled(&self, n: u64) -> u64 {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }
}

/// Print the reason and exit non-zero without a result line.
pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: FAILED: {msg}");
    std::process::exit(1);
}

/// A property the workload exists to exhibit; the run fails without it.
pub fn claim(holds: bool, what: &str) {
    if !holds {
        fatal(&format!("workload claim does not hold: {what}"));
    }
    println!("# claim holds: {what}");
}

/// A wrong reply ends the run; failed ops are carried into the result.
pub fn check_tally(tally: &Tally) {
    if let Some(wrong) = &tally.wrong {
        fatal(&format!("correctness oracle: {wrong}"));
    }
}

/// Build the system under test [`SETUPS`] times, keeping the last;
/// returns it with the median build time.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first: set-ups must not overlap
        // (they share a log directory, and memory).
        drop(built.take());
        let started = Instant::now();
        built = Some(build());
        secs.push(started.elapsed().as_secs_f64());
    }
    println!("# setup_s samples: {secs:?}");
    (built.expect("SETUPS > 0"), stats::median(&secs))
}

/// One timed repetition: correct replies and wall seconds.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub ok: u64,
    pub secs: f64,
}

/// Correct replies ÷ timed seconds over all repetitions, and each
/// repetition's own figure printed beside it. Not the median of the
/// repetitions: background work (a compaction wave, a stop-swap flush)
/// comes in bursts about as long as a repetition, so a median flips
/// with how the bursts happen to fall, and the total does not.
pub fn throughput(what: &str, reps: &[Rep]) -> f64 {
    let each: Vec<f64> = reps.iter().map(|r| r.ok as f64 / r.secs).collect();
    let total =
        reps.iter().map(|r| r.ok).sum::<u64>() as f64 / reps.iter().map(|r| r.secs).sum::<f64>();
    println!("# {what}: {total:.0} ops/s over {} repetitions {each:.0?}", reps.len());
    total
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

pub fn write_trace(cfg: &RunCfg, recorders: Vec<spans::Recorder>) {
    let path = cfg.out.join(format!("{}.trace.jsonl", cfg.workload.name()));
    match spans::write_trace(&path, &recorders) {
        Ok(n) => println!("# {n} spans recorded; trace in {}", path.display()),
        Err(e) => fatal(&format!("write {}: {e}", path.display())),
    }
}

/// Run one workload and print the result: every metric by name with
/// its unit, then the contract's JSON object as the last line.
fn run_one(cfg: &RunCfg) {
    std::fs::create_dir_all(&cfg.out)
        .unwrap_or_else(|e| fatal(&format!("create {}: {e}", cfg.out.display())));
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} quick={} nproc={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.quick,
        nproc()
    );
    let ticks_before = cpu_ticks();
    let (tally, mut report): (Tally, Report) = match cfg.workload {
        Workload::WireHot => wire::run(cfg),
        Workload::StoreSkewBigtree | Workload::StoreUniformRwBigtree => inproc::run(cfg),
        Workload::TieredCold => tiered::run(cfg),
    };
    check_tally(&tally);
    // How much of the machine the hypervisor took away while this run
    // measured. Printed so a disturbed run can be told from a slow
    // program; never used to drop or correct a result.
    let ticks = cpu_ticks();
    let steal = (ticks.0 - ticks_before.0) as f64 / (ticks.1 - ticks_before.1).max(1) as f64;
    println!("# host steal during this run: {:.1}% of CPU time", 100.0 * steal);
    let table = if cfg.trace {
        report.set("client.failed_ops_ratio", tally.failed as f64 / tally.attempted.max(1) as f64);
        metrics::PER_LAYER
    } else {
        report.set("peak_rss_mib", peak_rss_mib());
        metrics::END_TO_END
    };
    let values = report.collect(table, !cfg.trace);
    for (def, value) in &values {
        println!("{:<34} {:>16.4} {}", def.name, value, def.unit);
    }
    let result = Value::obj(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", metrics::metrics_json(&values)),
    ]);
    println!("{}", result.render());
}

struct Flags(Vec<(String, String)>);

impl Flags {
    /// `--name value` pairs and bare `--quick`; anything else is an
    /// error (a typo must not silently fall back to a default).
    fn parse(args: &[String]) -> Flags {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                fatal(&format!("unexpected argument `{arg}`"));
            };
            let value = match name {
                "quick" => "1".to_string(),
                "workload" | "seed" | "seconds" | "trace" | "out" | "runs" => {
                    it.next().cloned().unwrap_or_else(|| fatal(&format!("--{name} needs a value")))
                }
                _ => fatal(&format!("unknown flag `{arg}`")),
            };
            flags.push((name.to_string(), value));
        }
        Flags(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => {
                v.parse().unwrap_or_else(|_| fatal(&format!("bad value `{v}` for --{name}")))
            }
        }
    }

    fn quick(&self) -> bool {
        self.get("quick").is_some()
    }

    fn seconds(&self) -> f64 {
        let s: f64 = self.num("seconds", if self.quick() { 1.0 } else { RUN_SECONDS });
        if !(s > 0.0 && s <= 60.0) {
            fatal("--seconds must be in (0, 60]");
        }
        s
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or(".bench_out"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => std::process::exit(compare::run(a.as_ref(), b.as_ref())),
            _ => fatal("usage: perfbench compare A_DIR B_DIR"),
        },
        Some("all") => {
            let flags = Flags::parse(&args[1..]);
            let plan = suite::Plan {
                seed: flags.num("seed", 1),
                runs: flags.num("runs", 1),
                seconds: flags.seconds(),
                quick: flags.quick(),
                out: flags.out(),
            };
            std::process::exit(suite::run(&plan));
        }
        _ => {
            let flags = Flags::parse(&args);
            let name = flags.get("workload").unwrap_or_else(|| {
                fatal("usage: perfbench --workload W --seed N --seconds S --trace 0|1 | all | compare")
            });
            let workload = Workload::parse(name).unwrap_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                fatal(&format!("unknown workload `{name}`; one of {names:?}"))
            });
            let trace = match flags.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => fatal(&format!("--trace takes 0 or 1, not `{other}`")),
            };
            run_one(&RunCfg {
                workload,
                seed: flags.num("seed", 1),
                seconds: flags.seconds(),
                trace,
                quick: flags.quick(),
                out: flags.out(),
            });
        }
    }
}
