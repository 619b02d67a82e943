//! End-to-end overload-control tests over the real TCP stack: deadline
//! shedding before execution, admission refusals with retry-after
//! hints while the control plane stays responsive (brownout), the
//! chaos-gated stuck-shard regression (stall → watchdog quarantine →
//! recovery → re-admission).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aria::chaos::{ChaosEngine, FaultPlan, FaultSite};
use aria::net::proto::{self, Decoded, Response};
use aria::prelude::*;

/// Fail fast (abort with a message) instead of letting a hung
/// connection thread stall the whole test job.
struct Watchdog(Arc<AtomicBool>);

fn watchdog(name: &'static str, limit: Duration) -> Watchdog {
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    thread::spawn(move || {
        let start = std::time::Instant::now();
        while start.elapsed() < limit {
            thread::sleep(Duration::from_millis(50));
            if !flag.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("watchdog: test {name} exceeded {limit:?}; aborting");
        std::process::abort();
    });
    Watchdog(armed)
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Reactors for the tests that wedge a shard. A reactor executes its
/// tick inline, so one whose tick reaches the wedged shard blocks on
/// its slot lock — and so does every connection pinned to it. Pinning
/// is round-robin in accept order, so with four reactors each of a
/// test's first connections lands on its own reactor: the control
/// connection keeps answering while another waits out the stall.
const STALL_REACTORS: usize = 4;

fn server_with(shards: usize, config: ServerConfig) -> (Arc<ShardedStore<AriaHash>>, AriaServer) {
    let store = Arc::new(
        ShardedStore::with_shards(shards, |_| {
            AriaHash::new(StoreConfig::for_keys(16_384), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap(),
    );
    let server =
        AriaServer::bind("127.0.0.1:0", Arc::clone(&store), config).expect("bind loopback server");
    (store, server)
}

// --- raw-frame helpers (for exact deadline control) -----------------------

fn encode_req(out: &mut Vec<u8>, id: u64, req: &proto::Request, deadline_ns: u64) {
    let meta = proto::RequestMeta { deadline_ns, ..Default::default() };
    proto::encode_request_meta(out, id, req, &meta).expect("encode");
}

fn send_req(stream: &mut TcpStream, id: u64, req: &proto::Request, deadline_ns: u64) {
    let mut out = Vec::new();
    encode_req(&mut out, id, req, deadline_ns);
    stream.write_all(&out).expect("write frame");
}

fn read_resp(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> (u64, Response) {
    loop {
        match proto::decode_response(rbuf).expect("typed decode") {
            Decoded::Frame(consumed, id, resp) => {
                rbuf.drain(..consumed);
                return (id, resp);
            }
            Decoded::Incomplete => {
                let mut chunk = [0u8; 4096];
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "server closed mid-conversation");
                rbuf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

/// Open a raw connection and run the HELLO handshake.
fn raw_hello(addr: std::net::SocketAddr) -> (TcpStream, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut rbuf = Vec::new();
    let hello = proto::Request::Hello { version: proto::PROTOCOL_VERSION, features: 0 };
    send_req(&mut stream, 1, &hello, 0);
    match read_resp(&mut stream, &mut rbuf) {
        (1, Response::HelloAck { version, .. }) => assert_eq!(version, proto::PROTOCOL_VERSION),
        other => panic!("want HelloAck, got {other:?}"),
    }
    (stream, rbuf)
}

// --- deadline shedding ----------------------------------------------------

/// A data op whose client deadline already expired while buffered is
/// refused with `DeadlineExceeded` *before* execution — the write must
/// never be applied — while a no-deadline op in the same window runs.
#[test]
fn expired_deadline_sheds_before_execution() {
    let _wd = watchdog("expired_deadline_sheds", Duration::from_secs(60));
    let (store, server) = server_with(1, ServerConfig::default());
    let (mut stream, mut rbuf) = raw_hello(server.local_addr());

    // One pipelined window: a normal put, then a put whose budget
    // (1 ns) has certainly lapsed by the time the server plans it.
    let mut out = Vec::new();
    let put = |key: &[u8]| proto::Request::Put { key: key.to_vec(), value: b"v".to_vec() };
    encode_req(&mut out, 10, &put(b"live"), 0); // no deadline
    encode_req(&mut out, 11, &put(b"dead"), 1); // 1 ns: expired on arrival
    stream.write_all(&out).unwrap();

    let (id, resp) = read_resp(&mut stream, &mut rbuf);
    assert_eq!(id, 10);
    assert!(matches!(resp, Response::PutOk), "live op must run, got {resp:?}");
    let (id, resp) = read_resp(&mut stream, &mut rbuf);
    assert_eq!(id, 11);
    match resp {
        Response::Error { code, retry_after_ms, .. } => {
            assert_eq!(code, ErrorCode::DeadlineExceeded);
            assert_eq!(retry_after_ms, 0, "deadline refusals carry no hint");
        }
        other => panic!("want DeadlineExceeded, got {other:?}"),
    }

    // Refused ≠ acknowledged ≠ applied: the shed write must not
    // exist, and the shed is visible in STATS.
    assert_eq!(store.get(b"dead").unwrap(), None, "shed write was applied");
    assert_eq!(store.get(b"live").unwrap().unwrap(), b"v");
    send_req(&mut stream, 12, &proto::Request::Stats, 0);
    let (_, resp) = read_resp(&mut stream, &mut rbuf);
    match resp {
        Response::Stats(s) => {
            assert_eq!(s.ops_shed_deadline, 1, "shed count in STATS")
        }
        other => panic!("want Stats, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

// --- admission control + brownout ----------------------------------------

/// With a queue-delay budget set, a backlogged shard refuses data ops
/// fast with `Overloaded` + a retry-after hint, while control-plane
/// ops (PING/HEALTH/STATS) keep answering — and STATS reports the
/// brownout (shed count, degraded flag).
#[test]
fn overload_refusal_hints_retry_and_control_plane_stays_responsive() {
    let _wd = watchdog("overload_refusal_hints_retry", Duration::from_secs(60));
    let config = ServerConfig::builder()
        .reactors(STALL_REACTORS)
        .queue_delay_budget(Some(Duration::from_nanos(1)))
        .build()
        .unwrap();
    let (store, server) = server_with(1, config);
    let addr = server.local_addr();
    let no_retry = ClientConfig { retry_budget: 0, ..ClientConfig::default() };

    // Warm the per-op service-time EWMA so the queue-delay estimate is
    // nonzero once ops queue up.
    let mut control = AriaClient::connect(addr, no_retry.clone()).unwrap();
    for i in 0..32u32 {
        control.put(format!("warm{i}").as_bytes(), b"v").unwrap();
    }

    // Wedge the only shard (a closure sleeping under its slot lock),
    // then park a pipelined window of writes behind the stall so the
    // backlog estimate goes over budget.
    const STALL: Duration = Duration::from_millis(600);
    assert!(store.exec_detached(0, |_st| thread::sleep(STALL)));
    let stalled_at = Instant::now();
    let filler = thread::spawn(move || {
        let mut c = AriaClient::connect(addr, ClientConfig::default()).unwrap();
        let reqs: Vec<proto::Request> = (0..64u32)
            .map(|i| proto::Request::Put {
                key: format!("fill{i}").into_bytes(),
                value: b"v".to_vec(),
            })
            .collect();
        c.pipeline(&reqs).expect("queued window completes after the stall")
    });
    // The window is in the queue once the backlog estimate is visible.
    let deadline = Instant::now() + Duration::from_secs(5);
    while store.queue_delay_estimates()[0] == 0 {
        assert!(Instant::now() < deadline, "filler window never reached the queue");
        thread::sleep(Duration::from_millis(2));
    }

    // Data ops are refused fast, with a usable hint.
    let mut victim = AriaClient::connect(addr, no_retry).unwrap();
    let refused_at = Instant::now();
    let err = victim.put(b"refused", b"v").expect_err("over-budget shard must refuse");
    assert!(
        refused_at.elapsed() < Duration::from_millis(200),
        "refusal must be fast, took {:?}",
        refused_at.elapsed()
    );
    match &err {
        NetError::Server { code: ErrorCode::Overloaded, retry_after_ms, .. } => {
            assert!(*retry_after_ms >= 1, "refusal must carry a retry-after hint");
        }
        other => panic!("want Overloaded, got {other:?}"),
    }
    assert!(err.is_safe_to_retry(), "admission refusals are safe to re-issue");

    // Brownout: the control plane bypasses admission and still answers
    // while the data plane is refusing.
    control.ping().expect("PING must answer during brownout");
    let health = control.health().expect("HEALTH must answer during brownout");
    assert_eq!(health.shards.len(), 1);
    let stats = control.stats().expect("STATS must answer during brownout");
    assert!(stats.ops_shed_overload >= 1, "shed count must be surfaced");
    assert!(stats.degraded, "an over-budget shard must mark the server degraded");
    assert!(stalled_at.elapsed() < STALL, "all brownout checks must land inside the stall");

    // The refused write really was refused, and service recovers once
    // the backlog drains.
    let _ = filler.join().expect("filler thread must not panic");
    assert_eq!(store.get(b"refused").unwrap(), None, "refused ≠ applied");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match victim.put(b"refused", b"v2") {
            Ok(()) => break,
            Err(e) => {
                assert!(Instant::now() < deadline, "service never recovered: {e}");
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
    assert_eq!(store.get(b"refused").unwrap().unwrap(), b"v2");
    server.shutdown();
}

// --- chaos: stuck-shard watchdog ------------------------------------------

/// The `shard_stall` chaos site: a wedged primary that keeps accepting
/// work but retires nothing is quarantined by the watchdog, recovered,
/// and re-admitted — pinned end-to-end through HEALTH.
#[test]
fn chaos_shard_stall_quarantine_recovery_readmission() {
    let _wd = watchdog("chaos_shard_stall", Duration::from_secs(120));
    let config = ServerConfig::builder()
        .reactors(STALL_REACTORS)
        .watchdog_window(Some(Duration::from_millis(60)))
        .build()
        .unwrap();
    let (store, server) = server_with(1, config);
    let addr = server.local_addr();

    // Gate the stall through the chaos engine like every other fault.
    let engine = ChaosEngine::new(
        FaultPlan::new(0xA11A).with_rate(FaultSite::ShardStall, 10_000).with_budget(1),
    );
    engine.arm(true);
    let _entropy = engine.try_inject(FaultSite::ShardStall).expect("armed site must fire");
    assert!(store.exec_detached(0, |_st| thread::sleep(Duration::from_millis(400))));

    // Work keeps arriving during the stall: the shard is accepting but
    // not retiring — exactly what the watchdog quarantines.
    let blocked = thread::spawn(move || {
        let mut c = AriaClient::connect(addr, ClientConfig::default()).unwrap();
        c.put(b"queued", b"v")
    });

    let mut health_client = AriaClient::connect(addr, ClientConfig::default()).unwrap();
    let state_of = |h: &proto::HealthReply| ShardHealth::from_u8(h.shards[0].state);
    // Quarantine must be observable through HEALTH while stalled.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let h = health_client.health().expect("HEALTH must answer during the stall");
        if state_of(&h) != ShardHealth::Healthy {
            break;
        }
        assert!(Instant::now() < deadline, "watchdog never quarantined the stalled shard");
        thread::sleep(Duration::from_millis(5));
    }
    // After the stall clears, recovery verifies the store and re-admits.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let h = health_client.health().expect("HEALTH must answer");
        if state_of(&h) == ShardHealth::Healthy {
            assert!(h.shards[0].recoveries >= 1, "re-admission must count as a recovery");
            break;
        }
        assert!(Instant::now() < deadline, "stalled shard was never re-admitted");
        thread::sleep(Duration::from_millis(10));
    }
    let _ = blocked.join().expect("queued writer must not hang or panic");

    // Re-admitted means serving again (ride out any tail refusals).
    let mut client = AriaClient::connect(
        addr,
        ClientConfig {
            retry_budget: 32,
            op_deadline: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    client.put(b"after", b"v").expect("re-admitted shard must serve");
    assert_eq!(client.get(b"after").unwrap().unwrap(), b"v");
    assert_eq!(engine.stats().site(FaultSite::ShardStall).injected, 1);
    server.shutdown();
}
