//! Loopback integration tests for the TCP service layer: protocol round
//! trips over a real socket, pipelining, connection-limit rejection,
//! backpressure bounds, and the shutdown paths (graceful drain keeps
//! every acknowledged write; a killed server yields typed errors, not
//! hangs).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use aria_net::{proto, AriaClient, AriaServer, ClientConfig, ErrorCode, NetError, ServerConfig};
use aria_sim::Enclave;
use aria_store::sharded::{ShardHealth, ShardedStore};
use aria_store::{AriaHash, KvStore, StoreConfig, StoreError};

/// Abort the whole process if a test wedges: a hung connection thread
/// must fail fast (with a clear message) instead of stalling CI until
/// the job-level timeout.
struct Watchdog {
    armed: Arc<AtomicBool>,
}

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
    Watchdog { armed }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.armed.store(false, Ordering::SeqCst);
    }
}

fn sharded(shards: usize) -> Arc<ShardedStore<AriaHash>> {
    Arc::new(
        ShardedStore::with_shards(shards, |_| {
            AriaHash::new(StoreConfig::for_keys(16_384), Arc::new(Enclave::with_default_epc()))
        })
        .unwrap(),
    )
}

fn quick_config() -> ClientConfig {
    ClientConfig {
        op_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(1),
        reconnect_attempts: 3,
        reconnect_backoff: Duration::from_millis(10),
        ..ClientConfig::default()
    }
}

fn quick_client(addr: std::net::SocketAddr) -> AriaClient {
    AriaClient::connect(addr, quick_config()).expect("connect to loopback server")
}

#[test]
fn every_op_round_trips_over_tcp() {
    let _wd = watchdog("every_op_round_trips_over_tcp", Duration::from_secs(60));
    let store = sharded(2);
    let server = AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default())
        .expect("bind loopback");
    let mut client = quick_client(server.local_addr());

    client.ping().unwrap();
    assert_eq!(client.get(b"missing").unwrap(), None);
    client.put(b"k1", b"v1").unwrap();
    assert_eq!(client.get(b"k1").unwrap().unwrap(), b"v1");
    assert!(client.delete(b"k1").unwrap());
    assert!(!client.delete(b"k1").unwrap());

    let statuses = client.put_batch(&[(b"a".as_ref(), b"1".as_ref()), (b"b", b"2")]).unwrap();
    assert!(statuses.iter().all(|s| s.is_ok()));
    let values = client.multi_get(&[b"a".as_ref(), b"b", b"nope"]).unwrap();
    assert_eq!(values[0], Ok(Some(b"1".to_vec())));
    assert_eq!(values[1], Ok(Some(b"2".to_vec())));
    assert_eq!(values[2], Ok(None));

    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.len, 2);
    assert!(stats.ops_served >= 8);
    assert_eq!(stats.active_connections, 1);

    // The server's view matches the in-process store.
    assert_eq!(store.len(), 2);
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let _wd = watchdog("pipelined_requests_answer_in_order", Duration::from_secs(60));
    let store = sharded(4);
    let server = AriaServer::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let mut client = quick_client(server.local_addr());

    // A mixed window: puts, interleaved gets and a ping, all written
    // before any response is read.
    let mut reqs = Vec::new();
    for i in 0..100u32 {
        reqs.push(proto::Request::Put {
            key: format!("key{i}").into_bytes(),
            value: i.to_le_bytes().to_vec(),
        });
    }
    reqs.push(proto::Request::Ping);
    for i in 0..100u32 {
        reqs.push(proto::Request::Get { key: format!("key{i}").into_bytes() });
    }
    let resps = client.pipeline(&reqs).unwrap();
    assert_eq!(resps.len(), 201);
    for resp in &resps[..100] {
        assert_eq!(*resp, proto::Response::PutOk);
    }
    assert_eq!(resps[100], proto::Response::Pong);
    for (i, resp) in resps[101..].iter().enumerate() {
        assert_eq!(*resp, proto::Response::Value(Some((i as u32).to_le_bytes().to_vec())));
    }
    server.shutdown();
}

#[test]
fn same_key_pipelined_writes_read_their_own_writes() {
    let _wd = watchdog("same_key_pipelined_writes", Duration::from_secs(60));
    let server = AriaServer::bind("127.0.0.1:0", sharded(4), ServerConfig::default()).unwrap();
    let mut client = quick_client(server.local_addr());
    // put(k) then get(k) in the same pipeline window target the same
    // shard, so the read must observe the write.
    let reqs = vec![
        proto::Request::Put { key: b"k".to_vec(), value: b"1".to_vec() },
        proto::Request::Get { key: b"k".to_vec() },
        proto::Request::Put { key: b"k".to_vec(), value: b"2".to_vec() },
        proto::Request::Get { key: b"k".to_vec() },
        proto::Request::Delete { key: b"k".to_vec() },
        proto::Request::Get { key: b"k".to_vec() },
    ];
    let resps = client.pipeline(&reqs).unwrap();
    assert_eq!(resps[1], proto::Response::Value(Some(b"1".to_vec())));
    assert_eq!(resps[3], proto::Response::Value(Some(b"2".to_vec())));
    assert_eq!(resps[5], proto::Response::Value(None));
    server.shutdown();
}

#[test]
fn connection_limit_rejects_cleanly() {
    let _wd = watchdog("connection_limit_rejects_cleanly", Duration::from_secs(60));
    let server = AriaServer::bind(
        "127.0.0.1:0",
        sharded(1),
        ServerConfig::builder().max_connections(1).build().unwrap(),
    )
    .unwrap();
    let mut first = quick_client(server.local_addr());
    first.ping().unwrap(); // the slot is provably taken

    // The HELLO handshake consumes the rejection frame, so an
    // over-limit connection fails at connect time with the typed code.
    match AriaClient::connect(server.local_addr(), quick_config()) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::TooManyConnections),
        other => panic!("want TooManyConnections, got {other:?}"),
    }

    // Closing the first connection frees the slot.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match AriaClient::connect(server.local_addr(), quick_config()) {
            Ok(mut retry) => {
                retry.ping().expect("admitted connection must serve");
                break;
            }
            Err(NetError::Server { code: ErrorCode::TooManyConnections, .. })
                if std::time::Instant::now() < deadline =>
            {
                thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected error while slot frees: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_error_then_close() {
    use std::io::{Read, Write};
    let _wd = watchdog("malformed_frames", Duration::from_secs(60));
    let server = AriaServer::bind("127.0.0.1:0", sharded(1), ServerConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A frame with an unknown opcode.
    let mut buf = Vec::new();
    buf.extend_from_slice(&9u32.to_le_bytes());
    buf.push(0x6F);
    buf.extend_from_slice(&42u64.to_le_bytes());
    raw.write_all(&buf).unwrap();
    let mut resp = Vec::new();
    raw.read_to_end(&mut resp).unwrap(); // server answers then closes
    match proto::decode_response(&resp).unwrap() {
        proto::Decoded::Frame(_, id, proto::Response::Error { code, .. }) => {
            assert_eq!(id, proto::CONTROL_ID);
            assert_eq!(code, ErrorCode::UnknownOpcode);
        }
        other => panic!("want control error frame, got {other:?}"),
    }
    server.shutdown();
}

/// Graceful shutdown under pipelined load: every write the server
/// acknowledged must be readable from the store afterwards.
#[test]
fn graceful_shutdown_loses_no_acknowledged_write() {
    let _wd = watchdog("graceful_shutdown_loses_no_acknowledged_write", Duration::from_secs(120));
    const CLIENTS: usize = 4;
    const DEPTH: usize = 32;

    let store = sharded(4);
    let server = AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = AriaClient::connect(
                    addr,
                    ClientConfig {
                        op_timeout: Duration::from_secs(10),
                        reconnect_attempts: 1,
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                let mut acked: Vec<u64> = Vec::new();
                let mut seq = 0u64;
                'pump: while !stop.load(Ordering::SeqCst) {
                    let ids: Vec<u64> = (0..DEPTH).map(|i| seq + i as u64).collect();
                    let reqs: Vec<proto::Request> = ids
                        .iter()
                        .map(|id| proto::Request::Put {
                            key: format!("c{c}-{id}").into_bytes(),
                            value: id.to_le_bytes().to_vec(),
                        })
                        .collect();
                    seq += DEPTH as u64;
                    match client.pipeline(&reqs) {
                        Ok(resps) => {
                            for (id, resp) in ids.iter().zip(resps) {
                                if resp == proto::Response::PutOk {
                                    acked.push(*id);
                                }
                            }
                        }
                        // Shutdown closed the connection: whatever this
                        // window would have acked was never acked.
                        Err(_) => break 'pump,
                    }
                }
                acked
            })
        })
        .collect();

    // Let the writers build up real in-flight pipelines, then shut down
    // underneath them.
    thread::sleep(Duration::from_millis(300));
    server.shutdown();
    stop.store(true, Ordering::SeqCst);

    for (c, writer) in writers.into_iter().enumerate() {
        let acked = writer.join().expect("writer thread");
        assert!(!acked.is_empty(), "client {c} never got an ack; no load was generated");
        for id in acked {
            let key = format!("c{c}-{id}").into_bytes();
            let got = store.get(&key).expect("store intact after shutdown");
            assert_eq!(
                got,
                Some(id.to_le_bytes().to_vec()),
                "client {c} write {id} was acked but is not in the store"
            );
        }
    }
}

/// A server killed mid-load yields typed transport errors on every
/// client — quickly, never a hang (the watchdog enforces that).
#[test]
fn killed_server_yields_typed_errors_not_hangs() {
    let _wd = watchdog("killed_server_yields_typed_errors", Duration::from_secs(120));
    let store = sharded(2);
    let server = AriaServer::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = AriaClient::connect(
        addr,
        ClientConfig {
            op_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(200),
            reconnect_attempts: 2,
            reconnect_backoff: Duration::from_millis(10),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    client.put(b"live", b"yes").unwrap();

    server.shutdown();

    // In-flight/after-shutdown ops fail with transport errors; the
    // client survives to report each one.
    let mut failures = 0;
    for i in 0..5u32 {
        match client.put(format!("after{i}").as_bytes(), b"x") {
            Ok(()) => panic!("put succeeded against a dead server"),
            Err(e) => {
                assert!(e.is_transport(), "want a transport error against a dead server, got {e}");
                failures += 1;
            }
        }
    }
    assert_eq!(failures, 5);
}

/// Backpressure: a giant multi-get answer larger than the write-buffer
/// bound streams out in bounded flushes and still arrives intact.
#[test]
fn bounded_write_buffer_streams_large_windows() {
    let _wd = watchdog("bounded_write_buffer", Duration::from_secs(120));
    let store = sharded(2);
    let server = AriaServer::bind(
        "127.0.0.1:0",
        Arc::clone(&store),
        ServerConfig::builder().write_buffer_limit(8 * 1024).build().unwrap(),
    )
    .unwrap();
    let mut client = quick_client(server.local_addr());

    let value = vec![0xAB; 1024];
    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
        (0..512u32).map(|i| (format!("big{i}").into_bytes(), value.clone())).collect();
    let pair_refs: Vec<(&[u8], &[u8])> =
        pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    assert!(client.put_batch(&pair_refs).unwrap().iter().all(|s| s.is_ok()));

    let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
    let values = client.multi_get(&keys).unwrap();
    assert_eq!(values.len(), 512);
    for v in values {
        assert_eq!(v.unwrap().unwrap(), value);
    }
    server.shutdown();
}

/// A condemned shard store surfaces on the wire as the stable
/// `ShardUnavailable` code while other shards keep serving.
#[test]
fn dead_shard_maps_to_wire_error_code() {
    let _wd = watchdog("dead_shard_maps_to_wire_error_code", Duration::from_secs(60));
    let store = sharded(2);
    let server =
        AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default()).unwrap();
    let mut client = quick_client(server.local_addr());

    // Find keys on each shard, then crash shard 0's store. The crash
    // holds the slot by the time `exec_detached` returns, so the next
    // op on shard 0 already finds the store gone.
    let on0 = key_on(&store, 0);
    let on1 = key_on(&store, 1);
    assert!(store.exec_detached(0, |_| panic!("injected crash")));
    assert_eq!(store.put(&on0, b"x"), Err(aria_store::StoreError::ShardUnavailable { shard: 0 }));

    assert_unavailable(client.put(&on0, b"x"), "put on the dead shard");
    client.put(&on1, b"y").expect("healthy shard still serves");
    assert_eq!(client.get(&on1).unwrap().unwrap(), b"y");
    server.shutdown();
}

fn assert_unavailable<T: std::fmt::Debug>(reply: Result<T, NetError>, what: &str) {
    match reply {
        Err(NetError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable, "{what}")
        }
        other => panic!("{what}: want ShardUnavailable on the wire, got {other:?}"),
    }
}

fn key_on<S: KvStore + Send + 'static>(store: &ShardedStore<S>, shard: usize) -> Vec<u8> {
    (0..1000u32)
        .map(|i| format!("probe{i}").into_bytes())
        .find(|k| store.shard_of(k) == shard)
        .expect("some probe key routes to the shard")
}

/// An `AriaHash` that panics when asked to read [`TRIP_KEY`]: the way
/// to crash a store *inside* a server thread's own batch.
struct Tripwire(AriaHash);

const TRIP_KEY: &[u8] = b"tripwire";

impl KvStore for Tripwire {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.0.put(key, value)
    }
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        assert_ne!(key, TRIP_KEY, "tripwire read");
        self.0.get(key)
    }
    fn delete(&mut self, key: &[u8]) -> Result<bool, StoreError> {
        self.0.delete(key)
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn enclave(&self) -> &Arc<Enclave> {
        self.0.enclave()
    }
}

/// A store that panics under its slot lock is contained: the reactor
/// that submitted the batch survives, so the *same* connection keeps
/// getting PING, HEALTH and the other shard's data answered, and ops
/// for the dead shard get the typed `ShardUnavailable` code. Both ways
/// of dying are covered: a detached closure (the chaos kill) and a
/// panic in the reactor's own batch.
#[test]
fn store_panic_is_contained_and_the_connection_keeps_serving() {
    let _wd = watchdog("store_panic_is_contained", Duration::from_secs(120));
    for in_batch in [false, true] {
        let store = Arc::new(
            ShardedStore::with_shards(2, |_| {
                AriaHash::new(StoreConfig::for_keys(16_384), Arc::new(Enclave::with_default_epc()))
                    .map(Tripwire)
            })
            .unwrap(),
        );
        let dead = store.shard_of(TRIP_KEY);
        let on_dead = key_on(&store, dead);
        let on_live = key_on(&store, 1 - dead);
        let server =
            AriaServer::bind("127.0.0.1:0", Arc::clone(&store), ServerConfig::default()).unwrap();
        let mut client = quick_client(server.local_addr());
        client.put(&on_dead, b"doomed").unwrap();
        client.put(&on_live, b"kept").unwrap();

        let what = format!("in_batch={in_batch}");
        if in_batch {
            // The panic unwinds through the reactor's own
            // `run_sharded` call.
            assert_unavailable(client.get(TRIP_KEY), &what);
        } else {
            assert!(store.exec_detached(dead, |_| panic!("injected crash")), "{what}");
        }

        // Same connection, same server thread: still alive.
        client.ping().unwrap_or_else(|e| panic!("{what}: PING after the kill: {e}"));
        // (Routed to the dead shard first: a detached kill holds the
        // slot when `exec_detached` returns but marks the shard dead
        // only once it has unwound; this op waits it out.)
        assert_unavailable(client.get(&on_dead), &what);
        let health = client.health().unwrap_or_else(|e| panic!("{what}: HEALTH: {e}"));
        assert_eq!(health.shards[dead].health(), ShardHealth::Dead, "{what}");
        assert_eq!(health.shards[1 - dead].health(), ShardHealth::Healthy, "{what}");
        assert_eq!(client.get(&on_live).unwrap().unwrap(), b"kept", "{what}");
        client.put(&on_live, b"still-writable").unwrap();
        assert_unavailable(client.put(&on_dead, b"x"), &what);
        // A mixed window: the dead shard's slots carry the typed
        // error, the live shard's answer normally.
        let values = client.multi_get(&[on_live.as_slice(), on_dead.as_slice()]).unwrap();
        assert_eq!(values[0], Ok(Some(b"still-writable".to_vec())), "{what}");
        assert!(values[1].is_err(), "{what}: dead shard's key must not be served");
        server.shutdown();
    }
}

/// End-to-end tracing: a client sampling every
/// request produces server-side spans whose stamps cross
/// decode → admission → queue → execute → encode → flush in causal
/// order, streamable over the TRACE opcode; a wire dump request
/// answers with a JSON flight-recorder post-mortem.
#[test]
fn sampled_requests_stream_spans_end_to_end() {
    use aria_telemetry::{outcome, stage};
    let _wd = watchdog("sampled_requests_stream_spans_end_to_end", Duration::from_secs(120));
    let server = AriaServer::bind("127.0.0.1:0", sharded(2), ServerConfig::default()).unwrap();
    let mut client = AriaClient::connect(
        server.local_addr(),
        ClientConfig { trace_sample: 1, ..quick_config() },
    )
    .unwrap();

    client.put(b"traced", b"v").unwrap();
    assert_eq!(client.get(b"traced").unwrap().unwrap(), b"v");
    let values = client.multi_get(&[b"traced".as_ref(), b"missing"]).unwrap();
    assert_eq!(values[0], Ok(Some(b"v".to_vec())));

    // Spans publish when the response bytes drain to the socket, a
    // beat after the client sees the response; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let spans = loop {
        let (spans, cursors) = client.trace_spans(&[]).unwrap();
        assert!(!cursors.is_empty(), "one resume cursor per trace ring");
        if spans.len() >= 3 {
            break spans;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampled spans never reached the trace rings: {spans:?}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    for span in &spans {
        assert_ne!(span.trace_id, 0, "sampled spans carry the wire trace id");
        assert!(span.stages_monotone(), "stage stamps out of order: {span:?}");
        for st in [
            stage::DECODE,
            stage::ADMIT,
            stage::ENQUEUE,
            stage::DEQUEUE,
            stage::EXEC_START,
            stage::EXEC_END,
            stage::ENCODE,
        ] {
            assert_ne!(span.stages[st], 0, "stage {st} unstamped: {span:?}");
        }
        assert_eq!(span.outcome, outcome::OK);
        assert!(span.ops >= 1);
    }
    assert!(
        spans.iter().any(|s| s.stages[stage::FLUSH] != 0),
        "at least one span must observe its bytes hitting the socket"
    );
    // Executed spans attribute their cache traffic: the get and the
    // multi-get hit the hot tier.
    assert!(spans.iter().any(|s| s.hot_hits > 0), "no span attributed a hot hit: {spans:?}");

    // A wire-requested flight dump renders the JSON post-mortem.
    let dump = client.flight_dump().expect("mode-1 TRACE answers with a dump");
    assert!(dump.trim_start().starts_with('{'), "dump is a JSON object: {dump}");
    assert!(dump.contains("\"reason\":\"request\""), "dump names its trigger: {dump}");
    assert!(dump.contains("\"spans\""), "dump embeds recent spans: {dump}");
    server.shutdown();
}

/// A raw socket speaking hand-built frames, with unconsumed reply bytes
/// carried across reads (pipelined replies can share one read).
struct RawPeer {
    stream: std::net::TcpStream,
    inbuf: Vec<u8>,
}

impl RawPeer {
    fn connect(addr: std::net::SocketAddr) -> RawPeer {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        RawPeer { stream, inbuf: Vec::new() }
    }

    fn send(&mut self, frame: &[u8]) {
        use std::io::Write;
        self.stream.write_all(frame).unwrap();
    }

    fn request(&mut self, id: u64, req: &proto::Request) -> proto::Response {
        let mut buf = Vec::new();
        proto::encode_request(&mut buf, id, req).unwrap();
        self.send(&buf);
        let (got_id, resp) = self.read();
        assert_eq!(got_id, id, "reply for {req:?}");
        resp
    }

    /// The next reply frame, or `None` once the server has closed.
    fn try_read(&mut self) -> Option<(u64, proto::Response)> {
        use std::io::Read;
        let mut chunk = [0u8; 4096];
        loop {
            if let proto::Decoded::Frame(consumed, id, resp) =
                proto::decode_response(&self.inbuf).expect("well-formed reply")
            {
                self.inbuf.drain(..consumed);
                return Some((id, resp));
            }
            match self.stream.read(&mut chunk).expect("read reply") {
                0 => return None,
                n => self.inbuf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    fn read(&mut self) -> (u64, proto::Response) {
        self.try_read().expect("server closed mid-frame")
    }
}

/// A peer built against v5 offers `HELLO{5}` and is refused with the
/// typed `UnsupportedVersion` error. If it carries on regardless, its
/// first v5 data frame (no routing-epoch trailer) fails to decode and
/// the connection closes after a control-id `BadRequest`.
#[test]
fn old_version_hello_is_refused_with_a_typed_error() {
    let _wd = watchdog("old_version_hello_is_refused", Duration::from_secs(60));
    let server = AriaServer::bind("127.0.0.1:0", sharded(2), ServerConfig::default()).unwrap();
    let mut peer = RawPeer::connect(server.local_addr());
    match peer.request(1, &proto::Request::Hello { version: 5, features: 0 }) {
        proto::Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("want UnsupportedVersion, got {other:?}"),
    }

    // A v5 PUT: the current layout minus the trailing u64 epoch.
    let mut frame = Vec::new();
    let put = proto::Request::Put { key: b"v5".to_vec(), value: b"x".to_vec() };
    proto::encode_request(&mut frame, 2, &put).unwrap();
    frame.truncate(frame.len() - 8);
    let frame_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&frame_len.to_le_bytes());
    peer.send(&frame);
    match peer.read() {
        (id, proto::Response::Error { code, .. }) => {
            assert_eq!(id, proto::CONTROL_ID);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("want a control-id BadRequest, got {other:?}"),
    }
    assert!(peer.try_read().is_none(), "the server closes a poisoned connection");

    // The refusal touched nothing else: a current client is served.
    let mut client = quick_client(server.local_addr());
    assert_eq!(client.get(b"v5").unwrap(), None, "the malformed PUT was never applied");
    server.shutdown();
}

/// A peer that never sends `HELLO` is served at the current version:
/// its data frames carry the full (zero) trailer and its replies carry
/// every field.
#[test]
fn hello_less_peer_is_served_at_the_current_version() {
    let _wd = watchdog("hello_less_peer_is_served", Duration::from_secs(60));
    let server = AriaServer::bind("127.0.0.1:0", sharded(2), ServerConfig::default()).unwrap();
    let mut peer = RawPeer::connect(server.local_addr());
    let put = proto::Request::Put { key: b"k".to_vec(), value: b"v".to_vec() };
    assert_eq!(peer.request(1, &put), proto::Response::PutOk);
    assert_eq!(
        peer.request(2, &proto::Request::Get { key: b"k".to_vec() }),
        proto::Response::Value(Some(b"v".to_vec()))
    );
    match peer.request(3, &proto::Request::Stats) {
        proto::Response::Stats(s) => {
            assert_eq!((s.shards, s.len, s.active_connections), (2, 1, 1));
            assert_eq!(s.health.len(), 2);
        }
        other => panic!("want Stats, got {other:?}"),
    }
    server.shutdown();
}
