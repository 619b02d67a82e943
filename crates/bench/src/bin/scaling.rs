//! Shard-scaling sweep: aggregate throughput of `ShardedStore<AriaHash>`
//! at 1 / 2 / 4 / 8 shards under uniform and zipfian (0.99) key
//! popularity.
//!
//! Each shard is a full Aria-H instance in its own simulated enclave;
//! aggregate throughput counts the run-phase ops against the *critical
//! path* — the busiest shard's simulated cycles — so skew-induced load
//! imbalance shows up as sublinear scaling rather than being averaged
//! away. Per-shard Secure Cache hit ratios are reported alongside.
//!
//! ```sh
//! cargo run --release --bin scaling -- [--ops N] [--keys N] [--fast] [--out results]
//! ```

use std::sync::{Arc, Mutex};

use aria_bench::*;
use aria_cache::CacheConfig;
use aria_sim::{CostModel, Enclave};
use aria_store::sharded::{BatchOp, BatchReply, ShardedStore};
use aria_store::{AriaHash, StoreConfig};
use aria_workload::{encode_key, value_bytes, KeyDistribution, Request, YcsbConfig, YcsbWorkload};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CLIENT_BATCH: usize = 256;

struct SweepPoint {
    shards: usize,
    dist_label: &'static str,
    throughput: f64,
    hit_ratios: Vec<Option<f64>>,
    /// Run-phase cycles on the busiest shard (the critical path).
    max_cycles: u64,
    page_faults: u64,
    macs: u64,
    epc_used: usize,
}

fn main() {
    let args = Args::parse();
    let keys = args.get("keys", 50_000u64);
    let ops = args.get("ops", 100_000u64);
    // Total Secure Cache budget across the whole deployment, split
    // evenly among shards so every shard count competes for the same
    // EPC. Default: half the counter area, so misses are possible and
    // skew tolerance is visible in the hit column.
    let cache_total = args.get("cache-kb", (keys * 16 / 2 / 1024).max(64)) as usize * 1024;
    let fast = args.fast();
    let seed = args.seed();
    let cost = CostModel::default();

    let dists: [(&str, KeyDistribution); 2] = [
        ("uniform", KeyDistribution::Uniform),
        ("zipf-0.99", KeyDistribution::Zipfian { theta: 0.99 }),
    ];

    let mut points = Vec::new();
    let mut rows = Vec::new();

    for (dist_label, dist) in dists {
        for shards in SHARD_COUNTS {
            let point = run_point(
                shards,
                dist_label,
                dist.clone(),
                keys,
                ops,
                cache_total,
                fast,
                seed,
                &cost,
            );
            eprintln!(
                "  [{dist_label} x{shards}] {} (hit {})",
                fmt_tput(point.throughput),
                fmt_hits(&point.hit_ratios),
            );
            rows.push(scaling_row(&point, ops));
            points.push(point);
        }
    }

    let mut table = Vec::new();
    for point in &points {
        table.push(vec![
            point.dist_label.to_string(),
            point.shards.to_string(),
            fmt_tput(point.throughput),
            fmt_hits(&point.hit_ratios),
        ]);
    }
    print_table(
        "Shard scaling (aggregate throughput, critical-path cycles)",
        &["distribution", "shards", "throughput", "per-shard cache hit %"],
        &table,
    );

    write_jsonl(&args.out_dir(), "scaling", &rows);

    // The headline claim: on the skewed workload, more shards must not
    // make aggregate throughput worse anywhere in 1 -> 2 -> 4.
    for pair in points.iter().filter(|p| p.dist_label != "uniform").collect::<Vec<_>>().windows(2) {
        if pair[1].shards <= 4 && pair[1].throughput <= pair[0].throughput {
            eprintln!(
                "WARNING: skewed throughput did not improve from {} to {} shards",
                pair[0].shards, pair[1].shards
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    shards: usize,
    dist_label: &'static str,
    dist: KeyDistribution,
    keys: u64,
    ops: u64,
    cache_total: usize,
    fast: bool,
    seed: u64,
    cost: &CostModel,
) -> SweepPoint {
    // Each shard holds ~1/N of the keyspace; size its counter area and
    // buckets for that share (with slack for imbalance), and give it an
    // even split of the deployment-wide Secure Cache budget.
    let per_shard_keys = (keys / shards as u64) * 2 + 1024;
    let per_shard_cache = (cache_total / shards).max(16 * 1024);
    let cfg = StoreConfig::builder()
        .for_keys(per_shard_keys)
        .cache(CacheConfig::with_capacity(per_shard_cache))
        .epc_budget(aria_sim::DEFAULT_EPC_BYTES)
        .build()
        .expect("scaling sweep config is valid");
    let settled = 3 * cfg.cache.stop_swap_window;
    let enclaves: Arc<Mutex<Vec<Arc<Enclave>>>> = Arc::new(Mutex::new(Vec::new()));
    let registry = Arc::clone(&enclaves);
    let store = ShardedStore::with_shards(shards, move |_shard| {
        let enclave = Arc::new(Enclave::with_default_epc());
        registry.lock().unwrap().push(Arc::clone(&enclave));
        let suite = fast.then(|| {
            Arc::new(aria_crypto::FastSuite::from_master(&[0x42; 16]))
                as Arc<dyn aria_crypto::CipherSuite>
        });
        AriaHash::with_suite(cfg.clone(), enclave, suite)
    })
    .expect("construct sharded store");

    // Load phase: the whole keyspace, batched.
    let mut batch = Vec::with_capacity(CLIENT_BATCH);
    for id in 0..keys {
        batch.push(BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, 16)));
        if batch.len() == CLIENT_BATCH {
            drain_ok(store.run_batch(std::mem::take(&mut batch)));
        }
    }
    drain_ok(store.run_batch(std::mem::take(&mut batch)));

    // Run phase: 95% reads over the chosen popularity distribution.
    let mut wl = YcsbWorkload::new(YcsbConfig {
        keyspace: keys,
        read_ratio: 0.95,
        value_len: 16,
        distribution: dist,
        seed,
    });
    let mut run = |ops: u64| {
        let mut issued = 0u64;
        let mut batch = Vec::with_capacity(CLIENT_BATCH);
        while issued < ops {
            batch.clear();
            while batch.len() < CLIENT_BATCH && issued < ops {
                batch.push(match wl.next_request() {
                    Request::Get { id } => BatchOp::Get(encode_key(id).to_vec()),
                    Request::Put { id, value_len } => {
                        BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, value_len))
                    }
                });
                issued += 1;
            }
            drain_ok(store.run_batch(std::mem::take(&mut batch)));
        }
    };
    // Untimed warm-up until every shard's cache has seen three stop-swap
    // windows: the measured ops then run on a cache that has already
    // decided whether to stop swapping, whatever the shard count.
    while store.cache_stats().iter().flatten().any(|c| c.hits + c.misses < settled) {
        run(CLIENT_BATCH as u64 * 64);
    }

    let before = store.snapshots();
    let cache_before = store.cache_stats();
    run(ops);

    let after = store.snapshots();
    let cache_after = store.cache_stats();

    // Critical path of the run phase only.
    let max_cycles = before.iter().zip(&after).map(|(b, a)| a.cycles - b.cycles).max().unwrap_or(0);
    let throughput = cost.throughput(ops, max_cycles.max(1));

    // Run-phase hit ratio per shard (lifetime counters, differenced).
    let hit_ratios = cache_before
        .iter()
        .zip(&cache_after)
        .map(|(b, a)| match (b, a) {
            (Some(b), Some(a)) => {
                let hits = a.hits - b.hits;
                let total = hits + (a.misses - b.misses);
                (total > 0).then(|| hits as f64 / total as f64)
            }
            _ => None,
        })
        .collect();

    let page_faults = before.iter().zip(&after).map(|(b, a)| a.page_faults - b.page_faults).sum();
    let macs = before.iter().zip(&after).map(|(b, a)| a.macs_computed - b.macs_computed).sum();
    let epc_used = enclaves.lock().unwrap().iter().map(|e| e.epc_used()).sum();

    drop(store);
    SweepPoint {
        shards,
        dist_label,
        throughput,
        hit_ratios,
        max_cycles,
        page_faults,
        macs,
        epc_used,
    }
}

fn drain_ok(replies: Vec<BatchReply>) {
    for reply in replies {
        match reply {
            BatchReply::Get(r) => {
                r.expect("get failed during sweep");
            }
            BatchReply::Put(r) => r.expect("put failed during sweep"),
            BatchReply::Delete(r) => {
                r.expect("delete failed during sweep");
            }
        }
    }
}

fn fmt_hits(ratios: &[Option<f64>]) -> String {
    ratios
        .iter()
        .map(|r| match r {
            Some(r) => format!("{:.0}", r * 100.0),
            None => "-".to_string(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn scaling_row(point: &SweepPoint, ops: u64) -> Row {
    Row {
        experiment: "scaling".to_string(),
        series: point.dist_label.to_string(),
        x: point.shards.to_string(),
        throughput: point.throughput,
        cycles: point.max_cycles,
        ops,
        page_faults: point.page_faults,
        macs: point.macs,
        epc_used: point.epc_used,
    }
}
