//! telemetry_overhead — guardrail for the observability plane's cost.
//!
//! Drives a zipf-0.99 read-heavy load straight into a `ShardedStore`
//! (no sockets: the store hot path is what telemetry instruments) and
//! reports wall-clock throughput together with whether the telemetry
//! plane was compiled in. Run it twice and diff:
//!
//! ```sh
//! cargo run --release -p aria-bench --bin telemetry_overhead
//! cargo run --release -p aria-bench --bin telemetry_overhead \
//!     --features telemetry-off
//! ```
//!
//! Both runs append one JSON row (tagged `telemetry_enabled`) to
//! `<out>/telemetry_overhead.jsonl`; EXPERIMENTS.md records the
//! measured overhead, which must stay under 3%.
//!
//! `--trace-sample N` additionally stamps one in `N` windows with a
//! request span (stage stamps, execution attribution, ring publish) —
//! the store-side cost of the tracing plane at a given sampling rate.
//! The default rate for the guardrail is 128; `0` disables spans.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use aria_bench::{append_row, fmt_tput, Args, Obj};
use aria_sim::Enclave;
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{AriaHash, StoreConfig};
use aria_telemetry::SpanCell;
use aria_workload::{encode_key, value_bytes, KeyDistribution, Request, YcsbConfig, YcsbWorkload};

const VALUE_LEN: usize = 16;
const READ_RATIO: f64 = 0.95;

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let keys = args.get("keys", if smoke { 5_000u64 } else { 20_000 });
    let ops = args.get("ops", if smoke { 20_000u64 } else { 400_000 });
    let shards = args.get("shards", 4usize);
    let threads = args.get("threads", 4usize);
    let depth = args.get("depth", 16usize);
    let trace_sample = args.get("trace-sample", 0u32);
    let seed = args.seed();

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

    let mut batch = Vec::with_capacity(512);
    for id in 0..keys {
        batch.push(BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, VALUE_LEN)));
        if batch.len() == 512 {
            store.run_batch(std::mem::take(&mut batch));
        }
    }
    store.run_batch(batch);

    // Span rings sized like a server's, so sampled windows pay the
    // full tracing path: stamps, attribution reads, ring publish.
    let traces =
        Arc::new(aria_telemetry::TraceHub::new(shards, aria_telemetry::DEFAULT_TRACE_CAPACITY));

    let ops_per_thread = ops / threads as u64;
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            let traces = Arc::clone(&traces);
            thread::spawn(move || {
                let mut wl = YcsbWorkload::new(YcsbConfig {
                    keyspace: keys,
                    read_ratio: READ_RATIO,
                    value_len: VALUE_LEN,
                    distribution: KeyDistribution::Zipfian { theta: 0.99 },
                    seed: seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1),
                });
                let mut issued = 0u64;
                let mut rng = seed ^ 0xd1b5_4a32_d192_ed03u64.wrapping_mul(t as u64 + 1);
                let mut window = Vec::with_capacity(depth);
                while issued < ops_per_thread {
                    window.clear();
                    while window.len() < depth && issued < ops_per_thread {
                        window.push(match wl.next_request() {
                            Request::Get { id } => BatchOp::Get(encode_key(id).to_vec()),
                            Request::Put { id, value_len } => {
                                BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, value_len))
                            }
                        });
                        issued += 1;
                    }
                    let span = (trace_sample > 0)
                        .then(|| {
                            rng = rng
                                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                                .wrapping_add(0x1405_7b7e_f767_814f);
                            (rng.is_multiple_of(u64::from(trace_sample))).then(|| {
                                let s = Arc::new(SpanCell::new(rng | 1, 0));
                                s.stamp(aria_telemetry::stage::DECODE);
                                s.set_shard(store.shard_of(window[0].key()) as u32);
                                s.set_ops(window.len() as u64);
                                s
                            })
                        })
                        .flatten();
                    // Group the window by shard, as a reactor tick does,
                    // and hand the span to every group it touches.
                    let mut per_group: Vec<Vec<BatchOp>> =
                        (0..shards).map(|_| Vec::new()).collect();
                    for op in window.drain(..) {
                        per_group[store.shard_of(op.key())].push(op);
                    }
                    let per_group_spans: Vec<Vec<Arc<SpanCell>>> = per_group
                        .iter()
                        .map(|gops| match &span {
                            Some(s) if !gops.is_empty() => vec![Arc::clone(s)],
                            _ => Vec::new(),
                        })
                        .collect();
                    for reply in store.run_sharded(per_group, per_group_spans).into_iter().flatten()
                    {
                        if let Some(e) = reply.error() {
                            panic!("overhead bench op failed: {e}");
                        }
                    }
                    if let Some(s) = span {
                        s.stamp(aria_telemetry::stage::ENCODE);
                        s.stamp(aria_telemetry::stage::FLUSH);
                        traces.publish(&s.to_span());
                    }
                }
                issued
            })
        })
        .collect();
    let total: u64 = workers.into_iter().map(|w| w.join().expect("bench worker")).sum();
    let elapsed = start.elapsed();
    let throughput = total as f64 / elapsed.as_secs_f64().max(1e-9);

    let enabled = aria_telemetry::enabled();
    let spans_recorded = traces.summary().spans_recorded;
    println!(
        "telemetry_overhead: telemetry={} trace-sample={trace_sample} ({spans_recorded} spans) \
         zipf-0.99 ops={total} elapsed={:.2}s tput={}",
        if enabled { "on" } else { "off" },
        elapsed.as_secs_f64(),
        fmt_tput(throughput),
    );

    let row = Obj::new()
        .field("telemetry_enabled", enabled)
        .field("shards", shards)
        .field("threads", threads)
        .field("keys", keys)
        .field("depth", depth)
        .field("trace_sample", trace_sample)
        .field("spans_recorded", spans_recorded)
        .field("ops", total)
        .field("elapsed_s", elapsed.as_secs_f64())
        .field("throughput", throughput);
    append_row(&args.out_dir(), "telemetry_overhead", row);
}
