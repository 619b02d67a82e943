//! The peel ladder: one op stream run at increasing depth into the
//! system, per-op busy time subtracted level by level.
//!
//! * L0 — the client loop against an echo store: generator, key and
//!   value encoding, clock reads, reply check (`client.gen_ns_per_op`);
//! * L1 — direct `KvStore` calls on one `AriaHash`;
//! * L2 — `ShardedStore::run_batch`, batches of 16;
//! * L3 — TCP, one `AriaClient` connection at depth 16.
//!
//! `sharded.peel_ns_per_op` = L2 − L1 and `net.peel_ns_per_op` = L3 − L2.

use std::net::SocketAddr;
use std::time::Instant;

use aria_net::{proto, AriaClient, ClientConfig};
use aria_store::sharded::{BatchOp, BatchReply, ShardedStore};
use aria_store::{AriaHash, StoreError};
use aria_workload::{decode_key, encode_key, value_bytes, Request};

use crate::gen::{Mix, Tally};
use crate::inproc::{drive, Lat, Loop, Stop, Sut};
use crate::metrics::Report;
use crate::spans::{Name, Recorder};
use crate::RunCfg;

/// Ops per window at L2 and L3.
pub const DEPTH: usize = 16;

/// Answers every GET with the value the oracle expects.
struct Echo {
    value_len: usize,
}

impl Sut for Echo {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(decode_key(key).map(|id| value_bytes(id, self.value_len)))
    }
    fn put(&mut self, _key: &[u8], _value: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
}

fn per_op_ns<S: Sut>(
    sut: &mut S,
    cfg: &RunCfg,
    mix: &Mix,
    ops: u64,
    rec: Option<&mut Recorder>,
) -> f64 {
    let mut stream = mix.stream(cfg.seed, 1);
    let (mut lat, mut tally) = (Lat::default(), Tally::default());
    let mut lp = Loop {
        stream: &mut stream,
        value_len: mix.value_len,
        lat: &mut lat,
        tally: &mut tally,
        rec,
    };
    let (n, secs) = drive(sut, &mut lp, Stop::Ops(ops));
    crate::check_tally(&tally);
    secs * 1e9 / n as f64
}

/// L0 and L1 against `store`, which holds the workload's keys.
pub fn in_process(
    report: &mut Report,
    cfg: &RunCfg,
    mix: &Mix,
    store: &mut AriaHash,
    rec: &mut Recorder,
) {
    let ops = cfg.scaled(200_000);
    let l0 = per_op_ns(&mut Echo { value_len: mix.value_len }, cfg, mix, ops, None);
    let l1 = per_op_ns(store, cfg, mix, ops, Some(rec));
    println!("# ladder: L0 {l0:.0} ns/op (client), L1 {l1:.0} ns/op (direct store)");
    report.set("client.gen_ns_per_op", l0);
    report.set("ladder.l1_ns_per_op", l1);
}

/// Validity guard: the client loop must stay a small part of what is
/// measured, or the other numbers are the generator's.
pub fn check_generator_share(report: &Report, per_op_ns: f64) {
    let gen = report.get("client.gen_ns_per_op").unwrap_or(0.0);
    crate::claim(
        gen <= 0.10 * per_op_ns,
        &format!("client.gen_ns_per_op {gen:.0} <= 10% of per-op time {per_op_ns:.0} ns"),
    );
}

/// One window of the op stream as wire requests, with the ids and
/// kinds needed to check the replies.
pub fn window(stream: &mut aria_workload::YcsbWorkload, depth: usize) -> Vec<Request> {
    (0..depth).map(|_| stream.next_request()).collect()
}

pub fn to_wire(req: &Request) -> proto::Request {
    match *req {
        Request::Get { id } => proto::Request::Get { key: encode_key(id).to_vec() },
        Request::Put { id, value_len } => {
            proto::Request::Put { key: encode_key(id).to_vec(), value: value_bytes(id, value_len) }
        }
    }
}

pub fn to_batch(req: &Request) -> BatchOp {
    match *req {
        Request::Get { id } => BatchOp::Get(encode_key(id).to_vec()),
        Request::Put { id, value_len } => {
            BatchOp::Put(encode_key(id).to_vec(), value_bytes(id, value_len))
        }
    }
}

/// Check one wire reply against the op that caused it.
pub fn check_wire(tally: &mut Tally, req: &Request, value_len: usize, resp: proto::Response) {
    match (req, resp) {
        (Request::Get { id }, proto::Response::Value(v)) => {
            tally.check_get::<()>(*id, value_len, Ok(v));
        }
        (Request::Get { id }, _) => tally.check_get(*id, value_len, Err(())),
        (Request::Put { .. }, proto::Response::PutOk) => tally.check_put::<()>(Ok(())),
        (Request::Put { .. }, _) => tally.check_put(Err(())),
    }
}

/// L2 and L3 against the sharded store and its server.
pub fn wire(
    report: &mut Report,
    cfg: &RunCfg,
    mix: &Mix,
    store: &ShardedStore<AriaHash>,
    addr: SocketAddr,
    rec: &mut Recorder,
) {
    let windows = cfg.scaled(100_000) / DEPTH as u64;
    let mut tally = Tally::default();

    let mut stream = mix.stream(cfg.seed, 1);
    let phase = rec.open(Name::Phase, 2);
    let started = Instant::now();
    for w in 0..windows {
        let reqs = window(&mut stream, DEPTH);
        let ops = reqs.iter().map(to_batch).collect();
        let t0 = rec.now_ns();
        let replies = store.run_batch(ops);
        let t1 = rec.now_ns();
        rec.record(Name::ShardedRunBatch, phase, w, t0, t1);
        for (req, reply) in reqs.iter().zip(replies) {
            match (req, reply) {
                (Request::Get { id }, BatchReply::Get(r)) => tally.check_get(*id, mix.value_len, r),
                (_, BatchReply::Put(r)) => tally.check_put(r),
                _ => tally.check_put(Err(())),
            }
        }
    }
    let l2 = started.elapsed().as_nanos() as f64 / (windows * DEPTH as u64) as f64;
    rec.close(phase);

    let mut client = AriaClient::connect(addr, ClientConfig::default())
        .unwrap_or_else(|e| crate::fatal(&format!("ladder connect: {e}")));
    let mut stream = mix.stream(cfg.seed, 1);
    let phase = rec.open(Name::Phase, 3);
    let started = Instant::now();
    for w in 0..windows {
        let reqs = window(&mut stream, DEPTH);
        let frames: Vec<proto::Request> = reqs.iter().map(to_wire).collect();
        let t0 = rec.now_ns();
        let replies = client.pipeline(&frames);
        let t1 = rec.now_ns();
        rec.record(Name::ClientPipeline, phase, w, t0, t1);
        let replies = replies.unwrap_or_else(|e| crate::fatal(&format!("ladder pipeline: {e}")));
        for (req, resp) in reqs.iter().zip(replies) {
            check_wire(&mut tally, req, mix.value_len, resp);
        }
    }
    let l3 = started.elapsed().as_nanos() as f64 / (windows * DEPTH as u64) as f64;
    rec.close(phase);
    crate::check_tally(&tally);
    if tally.failed > 0 {
        crate::fatal(&format!("ladder: {} of {} ops failed", tally.failed, tally.attempted));
    }

    let l1 = report.get("ladder.l1_ns_per_op").unwrap_or(0.0);
    println!(
        "# ladder: L2 {l2:.0} ns/op (run_batch x{DEPTH}), L3 {l3:.0} ns/op (TCP 1 conn x{DEPTH})"
    );
    report.set("ladder.l2_ns_per_op", l2);
    report.set("ladder.l3_ns_per_op", l3);
    report.set("sharded.peel_ns_per_op", l2 - l1);
    report.set("net.peel_ns_per_op", l3 - l2);
}
