//! Layer probes: each lower layer's public API driven in isolation with
//! the workload's keys and sizes, plus the in-situ counter deltas the
//! layers already publish (telemetry sections, enclave snapshots).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use aria_cache::{CacheConfig, SecureCache, SwapMode};
use aria_crypto::{CipherSuite, RealSuite};
use aria_log::{LogConfig, RecordKind, SegmentLog};
use aria_mem::{AllocStrategy, UserHeap};
use aria_merkle::MerkleTree;
use aria_net::{proto, AriaClient, ClientConfig};
use aria_sim::{Enclave, EnclaveSnapshot};
use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::{entry, KvStore, StoreConfig, StoreError};
use aria_telemetry::{ShardSnapshot, ShardTelemetry};
use aria_workload::{encode_key, value_bytes, KEY_LEN};

use crate::gen::{Mix, Tally};
use crate::metrics::Report;
use crate::spans::{Name, Recorder};
use crate::{stats, RunCfg};

const MASTER: [u8; 16] = [0x42; 16];

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

fn suite() -> Arc<dyn CipherSuite> {
    Arc::new(RealSuite::from_master(&MASTER))
}

/// The counter-tree and entry geometry of the store a workload runs.
pub struct Geometry {
    pub counter_capacity: u64,
    pub arity: usize,
    pub cache_bytes: usize,
    pub seed: u64,
    pub value_len: usize,
}

impl Geometry {
    pub fn of(cfg: &StoreConfig, value_len: usize) -> Geometry {
        Geometry {
            counter_capacity: cfg.counter_capacity,
            arity: cfg.arity,
            cache_bytes: cfg.cache.capacity_bytes,
            seed: cfg.seed,
            value_len,
        }
    }

    fn tree(&self) -> MerkleTree {
        MerkleTree::new(self.counter_capacity, self.arity, suite(), self.seed)
    }
}

/// The probes every workload runs: the layers below the store, driven
/// with the workload's key stream and sizes.
pub fn common(report: &mut Report, g: &Geometry, mix: &Mix, cfg: &RunCfg) {
    crypto(report);
    merkle(report, g, mix, cfg);
    cache(report, g);
    mem(report, g);
    proto(report, mix);
    clock(report);
}

fn crypto(report: &mut Report) {
    let suite = RealSuite::from_master(&MASTER);
    let counter = [7u8; 16];
    let mut page = vec![0x5au8; 4096];
    let mut small = [0x5au8; 64];
    let node = [0x5au8; 128];
    report.set(
        "crypto.ctr_ns_per_byte",
        mean_ns(2_000, |_| suite.crypt(&counter, black_box(&mut page))) / 4096.0,
    );
    report.set(
        "crypto.ctr_64B_ns",
        mean_ns(200_000, |_| suite.crypt(&counter, black_box(&mut small))),
    );
    report.set(
        "crypto.cmac_ns_per_byte",
        mean_ns(2_000, |_| {
            black_box(suite.mac(black_box(&page)));
        }) / 4096.0,
    );
    report.set(
        "crypto.cmac_128B_ns",
        mean_ns(200_000, |_| {
            black_box(suite.mac(black_box(&node)));
        }),
    );
}

/// Counter indexes the workload's op stream touches (ids are assigned
/// to counters in load order, so a key id is its counter index).
fn counter_stream(mix: &Mix, cfg: &RunCfg, n: usize, capacity: u64) -> Vec<u64> {
    let mut stream = mix.stream(cfg.seed, 0);
    (0..n).map(|_| stream.next_id() % capacity).collect()
}

fn merkle(report: &mut Report, g: &Geometry, mix: &Mix, cfg: &RunCfg) {
    let mut tree = g.tree();
    let ids = counter_stream(mix, cfg, 20_000, g.counter_capacity);
    report.set(
        "merkle.verify_path_ns",
        mean_ns(ids.len() as u64, |i| {
            let (leaf, _) = tree.locate_counter(ids[i as usize]);
            black_box(tree.verify_path_plain(leaf));
        }),
    );
    report.set(
        "merkle.update_counter_ns",
        mean_ns(ids.len() as u64, |i| {
            let mut value = [0u8; 16];
            value[..8].copy_from_slice(&i.to_le_bytes());
            tree.update_counter_plain(ids[i as usize], &value);
        }),
    );
    report.set("merkle.height", f64::from(tree.height()));
    report.set("merkle.tree_bytes", tree.total_bytes() as f64);
}

fn cache(report: &mut Report, g: &Geometry) {
    // Always-swap, so the miss loop below keeps missing instead of
    // tripping the stop-swap fallback half-way through.
    let cfg =
        CacheConfig { swap_mode: SwapMode::Always, ..CacheConfig::with_capacity(g.cache_bytes) };
    let mut cache = SecureCache::new(g.tree(), Arc::new(Enclave::with_default_epc()), cfg)
        .unwrap_or_else(|e| crate::fatal(&format!("cache probe: {e}")));
    let arity = g.arity as u64;
    // Hits: the counters of one resident leaf.
    cache.get_counter(0).expect("untampered tree");
    report.set(
        "cache.hit_ns",
        mean_ns(200_000, |i| {
            black_box(cache.get_counter(i % arity).expect("untampered tree"));
        }),
    );
    report.set(
        "cache.bump_hit_ns",
        mean_ns(200_000, |i| {
            black_box(cache.bump_counter(i % arity).expect("untampered tree"));
        }),
    );
    // Misses: a new leaf every access, cycling through far more leaves
    // than fit, so each access verifies, inserts and evicts.
    let leaves = g.counter_capacity / arity;
    let fits = (g.cache_bytes / (g.arity * 16 + 48)) as u64;
    if leaves > 2 * fits {
        let stride = 7919 % leaves.max(1);
        report.set(
            "cache.miss_ns",
            mean_ns(50_000, |i| {
                let leaf = (i * stride) % leaves;
                black_box(cache.get_counter(leaf * arity).expect("untampered tree"));
            }),
        );
    } else {
        // The whole tree fits (wire_hot): a miss never happens in situ
        // after warm-up; time the first touch of each leaf instead.
        let n = leaves.min(50_000);
        report.set(
            "cache.miss_ns",
            mean_ns(n, |i| {
                black_box(cache.get_counter((i + 1) * arity % g.counter_capacity).expect("ok"));
            }),
        );
    }
}

fn mem(report: &mut Report, g: &Geometry) {
    let mut heap = UserHeap::new(Arc::new(Enclave::with_default_epc()), AllocStrategy::UserSpace);
    let size = entry::sealed_len(KEY_LEN, g.value_len);
    let n = 100_000u64;
    let mut blocks = Vec::with_capacity(n as usize);
    report.set("mem.alloc_ns", mean_ns(n, |_| blocks.push(heap.alloc(size).expect("heap alloc"))));
    report.set("mem.free_ns", mean_ns(n, |i| heap.free(blocks[i as usize]).expect("heap free")));
}

fn proto(report: &mut Report, mix: &Mix) {
    let get = proto::Request::Get { key: encode_key(1).to_vec() };
    let value = proto::Response::Value(Some(value_bytes(1, mix.value_len)));
    let (mut req_frame, mut resp_frame) = (Vec::new(), Vec::new());
    proto::encode_request(&mut req_frame, 1, &get).expect("encode");
    proto::encode_response(&mut resp_frame, 1, &value).expect("encode");
    let mut out = Vec::with_capacity(256);
    let n = 200_000;
    report.set(
        "proto.encode_req_ns",
        mean_ns(n, |i| {
            out.clear();
            proto::encode_request(&mut out, i + 1, black_box(&get)).expect("encode");
        }),
    );
    report.set(
        "proto.encode_resp_ns",
        mean_ns(n, |i| {
            out.clear();
            proto::encode_response(&mut out, i + 1, black_box(&value)).expect("encode");
        }),
    );
    report.set(
        "proto.decode_req_ns",
        mean_ns(n, |_| {
            black_box(proto::decode_request_ref(black_box(&req_frame)).expect("decode"));
        }),
    );
    report.set(
        "proto.decode_resp_ns",
        mean_ns(n, |_| {
            black_box(proto::decode_response(black_box(&resp_frame)).expect("decode"));
        }),
    );
    report.set("proto.req_frame_bytes", req_frame.len() as f64);
    report.set("proto.resp_frame_bytes", resp_frame.len() as f64);
}

fn clock(report: &mut Report) {
    report.set(
        "client.clock_ns",
        mean_ns(1_000_000, |_| {
            black_box(Instant::now());
        }),
    );
}

/// `store.residual_ns`: mean GET time minus what the probes predict for
/// its Secure Cache access and its entry crypto (one MAC over the
/// sealed entry, one CTR pass over key + value). What is left is index
/// walk, heap read, allocation and bookkeeping.
pub fn store_residual(report: &mut Report, value_len: usize) {
    let get = |name| report.get(name).unwrap_or(0.0);
    let hit = get("cache.hit_ratio");
    let cache_ns = hit * get("cache.hit_ns") + (1.0 - hit) * get("cache.miss_ns");
    let plain = (KEY_LEN + value_len) as f64;
    let crypto_ns = get("crypto.cmac_128B_ns") * (plain + 40.0) / 128.0
        + get("crypto.ctr_64B_ns") * plain / 64.0;
    let residual = get("store.get_ns_mean") - cache_ns - crypto_ns;
    println!(
        "# store GET closure: mean {:.0} ns = cache {cache_ns:.0} + crypto {crypto_ns:.0} + residual {residual:.0}",
        get("store.get_ns_mean")
    );
    report.set("store.residual_ns", residual);
}

// ---------------------------------------------------------------------
// In-situ counters

/// A reading of the counters the layers publish while the workload
/// runs; two readings bracket the timed phase.
pub struct InSitu {
    shard: ShardSnapshot,
    enclave: EnclaveSnapshot,
}

impl InSitu {
    pub fn take(tele: &ShardTelemetry, enclave: &Enclave) -> InSitu {
        InSitu { shard: tele.snapshot(), enclave: enclave.snapshot() }
    }

    /// Summed over the shards of a sharded store.
    pub fn take_sharded<S: KvStore + Send + 'static>(store: &ShardedStore<S>) -> InSitu {
        let mut shard = ShardSnapshot::default();
        for tele in store.telemetry() {
            shard.merge(&tele.snapshot());
        }
        let mut enclave = EnclaveSnapshot::default();
        for snap in store.snapshots() {
            enclave.merge(&snap);
        }
        InSitu { shard, enclave }
    }

    pub fn shard(&self) -> &ShardSnapshot {
        &self.shard
    }

    /// Report what happened between `before` and `self`, over `ops` ops.
    pub fn report_delta(&self, before: &InSitu, ops: u64, report: &mut Report) {
        let d = self.shard.delta(&before.shard);
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        let per_kop = |n: u64| 1e3 * per_op(n);
        report.set("cache.hit_ratio", d.cache.hit_ratio());
        report.set("cache.evictions_per_kop", per_kop(d.cache.evictions));
        report.set("cache.writebacks_per_kop", per_kop(d.cache.writebacks));
        report.set("cache.clean_discards_per_kop", per_kop(d.cache.clean_discards));
        report.set("cache.verify_depth_mean", d.cache.verify_depth.mean());
        report.set("mem.live_bytes", self.shard.mem.live_bytes as f64);
        report.set("store.index_probes_per_op", per_op(d.store.index_probes));
        let e = &self.enclave;
        let b = &before.enclave;
        report.set("store.macs_per_op", per_op(e.macs_computed - b.macs_computed));
        report.set("store.bytes_maced_per_op", per_op(e.bytes_maced - b.bytes_maced));
        report.set("store.bytes_crypted_per_op", per_op(e.bytes_crypted - b.bytes_crypted));
        report.set("store.sim_cycles_per_op", per_op(e.cycles - b.cycles));
    }
}

// ---------------------------------------------------------------------
// sharded / net probes (wire_hot)

/// A store that does no work, so a `ShardedStore` over it times the
/// queue hop alone.
struct NoopStore {
    enclave: Arc<Enclave>,
    value: Vec<u8>,
}

impl KvStore for NoopStore {
    fn put(&mut self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
    fn get(&mut self, _key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(Some(self.value.clone()))
    }
    fn delete(&mut self, _key: &[u8]) -> Result<bool, StoreError> {
        Ok(false)
    }
    fn len(&self) -> u64 {
        0
    }
    fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }
}

pub fn sharded_hop(report: &mut Report, mix: &Mix, shards: usize) {
    let value = value_bytes(0, mix.value_len);
    let store = ShardedStore::with_shards(shards, move |_| {
        Ok(NoopStore { enclave: Arc::new(Enclave::with_default_epc()), value: value.clone() })
    })
    .unwrap_or_else(|e| crate::fatal(&format!("no-op sharded store: {e}")));
    let batch = |i: u64, n: u64| -> Vec<BatchOp> {
        (0..n).map(|j| BatchOp::Get(encode_key(i * n + j).to_vec())).collect()
    };
    for i in 0..2_000 {
        store.run_batch(batch(i, 1));
    }
    report.set(
        "sharded.hop_b1_us",
        mean_ns(20_000, |i| {
            black_box(store.run_batch(batch(i, 1)));
        }) / 1e3,
    );
    report.set(
        "sharded.hop_b16_ns_per_op",
        mean_ns(5_000, |i| {
            black_box(store.run_batch(batch(i, 16)));
        }) / 16.0,
    );
}

/// Depth-1 round trips over one connection: bare `PING` forwarding
/// (zero store work) and single GETs of the workload's keys.
pub fn net_depth1(
    report: &mut Report,
    addr: std::net::SocketAddr,
    mix: &Mix,
    cfg: &RunCfg,
    tally: &mut Tally,
) {
    let mut client = AriaClient::connect(addr, ClientConfig::default())
        .unwrap_or_else(|e| crate::fatal(&format!("probe connect: {e}")));
    let n = cfg.scaled(5_000) as usize;
    let mut ping = Vec::with_capacity(n);
    let mut get = Vec::with_capacity(n);
    let mut stream = mix.stream(cfg.seed, 2);
    for i in 0..n + 200 {
        let t0 = Instant::now();
        let pong = client.ping();
        let rtt = t0.elapsed();
        if pong.is_err() {
            crate::fatal("probe PING failed");
        }
        let id = stream.next_id();
        let t0 = Instant::now();
        let reply = client.get(&encode_key(id));
        let lat = t0.elapsed();
        tally.check_get(id, mix.value_len, reply);
        if i >= 200 {
            ping.push(rtt.as_nanos() as u32);
            get.push(lat.as_nanos() as u32);
        }
    }
    report.set("net.ping_rtt_us_p50", stats::percentile_us(&mut ping, 0.5).unwrap_or(0.0));
    report.set("net.depth1_get_us_p50", stats::percentile_us(&mut get, 0.5).unwrap_or(0.0));
}

/// `net.wire_residual_us`: depth-1 GET latency minus the layers the
/// probes account for (codec, queue hop, store call).
pub fn wire_residual(report: &mut Report) {
    let get = |name| report.get(name).unwrap_or(0.0);
    let proto_us = (get("proto.encode_req_ns")
        + get("proto.decode_req_ns")
        + get("proto.encode_resp_ns")
        + get("proto.decode_resp_ns"))
        / 1e3;
    let hop_us = get("sharded.hop_b1_us");
    let store_us = get("store.get_ns_p50") / 1e3;
    let residual = get("net.depth1_get_us_p50") - proto_us - hop_us - store_us;
    println!(
        "# wire depth-1 GET closure: p50 {:.1} us = proto {proto_us:.2} + hop {hop_us:.1} + store {store_us:.2} + residual {residual:.1}",
        get("net.depth1_get_us_p50")
    );
    report.set("net.wire_residual_us", residual);
}

// ---------------------------------------------------------------------
// log probe (tiered_cold)

/// `SegmentLog` in isolation, with the workload's record size and flush
/// policy: append, covering fsync, verified read, and replay.
pub fn log(report: &mut Report, cfg: &RunCfg, mix: &Mix, log_cfg: LogConfig, rec: &mut Recorder) {
    let key = [0x17u8; 16];
    let n = cfg.scaled(4_000);
    let phase = rec.open(Name::Phase, 0);
    let mut log = SegmentLog::open(log_cfg.clone(), &key, &mut |_| {})
        .unwrap_or_else(|e| crate::fatal(&format!("log probe open: {e}")));
    let (mut append, mut sync, mut read) = (Vec::new(), Vec::new(), Vec::new());
    let mut ptrs = Vec::with_capacity(n as usize);
    for id in 0..n {
        let value = value_bytes(id, mix.value_len);
        let t0 = rec.now_ns();
        let info = log
            .append(RecordKind::Put, &encode_key(id), &value)
            .unwrap_or_else(|e| crate::fatal(&format!("log probe append: {e}")));
        let t1 = rec.now_ns();
        rec.record(Name::LogAppend, phase, id, t0, t1);
        append.push((t1 - t0) as u32);
        ptrs.push(info.ptr);
        if id % 16 == 15 {
            let t0 = rec.now_ns();
            log.sync().unwrap_or_else(|e| crate::fatal(&format!("log probe sync: {e}")));
            let t1 = rec.now_ns();
            rec.record(Name::LogSync, phase, id, t0, t1);
            sync.push((t1 - t0) as u32);
        }
    }
    for i in 0..n {
        let at = (i * 7919 % n) as usize;
        let t0 = rec.now_ns();
        let (_, k, v, _) =
            log.read(ptrs[at]).unwrap_or_else(|e| crate::fatal(&format!("log probe read: {e}")));
        let t1 = rec.now_ns();
        rec.record(Name::LogRead, phase, i, t0, t1);
        read.push((t1 - t0) as u32);
        if k != encode_key(at as u64) || v != value_bytes(at as u64, mix.value_len) {
            crate::fatal(&format!("log probe: wrong record for key id {at}"));
        }
    }
    drop(log);
    let mut replayed = 0u64;
    let started = Instant::now();
    let reopened = SegmentLog::open(log_cfg, &key, &mut |_| replayed += 1)
        .unwrap_or_else(|e| crate::fatal(&format!("log probe replay: {e}")));
    let secs = started.elapsed().as_secs_f64();
    drop(reopened);
    rec.close(phase);
    if replayed != n {
        crate::fatal(&format!("log probe: replayed {replayed} of {n} records"));
    }
    report.set("log.append_us_p50", stats::percentile_us(&mut append, 0.5).unwrap_or(0.0));
    report.set("log.sync_us_p50", stats::percentile_us(&mut sync, 0.5).unwrap_or(0.0));
    report.set("log.read_us_p50", stats::percentile_us(&mut read, 0.5).unwrap_or(0.0));
    report.set("log.replay_records_per_s", replayed as f64 / secs);
}
