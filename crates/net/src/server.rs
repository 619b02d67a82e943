//! `AriaServer`: the TCP front door over a [`ShardedStore`], serving
//! with either engine selected by [`ServerConfig::engine`]:
//!
//! - [`Engine::Reactor`] (default) — epoll-based run-to-completion
//!   reactors with cross-connection batching; see [`crate::reactor`].
//! - [`Engine::Threads`] — one OS thread per accepted connection,
//!   implemented in this module.
//!
//! # Threads engine
//!
//! Each accepted connection gets a dedicated thread that repeatedly
//! decodes a *pipeline window* — every complete request frame already
//! buffered, up to [`ServerConfig::pipeline_window`] — and dispatches
//! the whole window as **one** [`ShardedStore::run_batch`] call, which
//! the connection's thread executes itself under each shard's slot
//! lock. The sharded layer partitions the window across shards and
//! coalesces same-kind runs into `multi_get`/`put_batch`, so a deeply
//! pipelined client amortizes per-request fixed costs exactly like an
//! in-process batch caller.
//!
//! # Ordering (both engines)
//!
//! Responses are written in request order per connection. Requests on
//! the *same key* (same shard) are applied in order even within a
//! window; requests on different shards may interleave — identical to
//! the in-process [`ShardedStore::run_batch`] contract.
//!
//! # Backpressure (both engines)
//!
//! The per-connection write buffer is bounded by
//! [`ServerConfig::write_buffer_limit`]: once a window's responses are
//! encoded (or the limit is hit mid-window) the buffer is flushed with
//! [`ServerConfig::write_timeout`] before any further request is read.
//! A client that stops draining responses therefore stops being read —
//! and, once its flush times out, is disconnected — instead of growing
//! an unbounded queue inside the server.
//!
//! # Shutdown (both engines)
//!
//! [`AriaServer::shutdown`] stops the acceptor, lets every connection
//! finish the window it is processing (all its responses are flushed —
//! no acknowledged write is lost), closes the sockets and joins all
//! threads. Requests that were buffered but not yet decoded are
//! abandoned; their clients observe a clean connection close, never a
//! hang.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aria_store::sharded::{BatchOp, ShardedStore};
use aria_store::KvStore;
use aria_telemetry::{outcome, stage, SpanCell, TelemetryHub};

use crate::config::{Engine, ServerConfig};
use crate::proto::{self, Decoded, ErrorCode, Response, WireError};
use crate::reactor::ReactorEngine;
use crate::service::{
    build_response, encode_or_substitute, observe_amortized, shed_or_plan, wire_failure_response,
    ServerStats, Slot,
};

/// How often blocked reads and the acceptor wake to check for shutdown.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Read chunk size for connection sockets.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// State both engines publish through: lifecycle flag, connection and
/// op accounting, and the telemetry hub METRICS snapshots come from.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) ops_served: AtomicU64,
    pub(crate) conns: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) tele: Arc<TelemetryHub>,
}

/// Lock the connection registry even if a previous holder panicked. A
/// `Vec<JoinHandle>` has no invariant a partial mutation can break, so
/// a poisoned lock is safe to keep using — treating it as fatal would
/// let one crashed connection thread take down the acceptor (and every
/// future connection) with it.
fn lock_conns(shared: &Shared) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    shared.conns.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The engine actually running behind an [`AriaServer`].
enum EngineState {
    Threads { acceptor: Option<JoinHandle<()>> },
    Reactor(ReactorEngine),
}

/// A running TCP server; dropping (or [`AriaServer::shutdown`]) drains
/// and joins every thread it spawned.
pub struct AriaServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine: EngineState,
    /// Flight-recorder watcher thread (only when a dump directory is
    /// configured); joined on shutdown like the engines.
    recorder: Option<JoinHandle<()>>,
}

impl AriaServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `store` with the given configuration, using the
    /// engine it selects ([`ServerConfig::engine`]).
    pub fn bind<S, A>(
        addr: A,
        store: Arc<ShardedStore<S>>,
        config: ServerConfig,
    ) -> io::Result<AriaServer>
    where
        S: KvStore + Send + 'static,
        A: ToSocketAddrs,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // The overload knobs live on the store (admission happens at
        // dispatch, the watchdog on the maintenance ticker); the server
        // config is their single front door.
        store.set_queue_delay_budget(config.queue_delay_budget());
        store.set_watchdog_window(config.watchdog_window());
        if let Some(window) = config.watchdog_window() {
            // The watchdog is sampled by the maintenance ticker; tick a
            // few times per window so a stall is caught promptly. (If
            // the caller already started maintenance this stacks a
            // ticker — harmless for sampling, as quarantine fires only
            // once per unhealthy transition.)
            store.start_maintenance((window / 4).max(Duration::from_millis(10)));
        }
        // The hub shares the store's live recorders and slow-op tracer,
        // so a METRICS snapshot covers every layer below the socket.
        let tele = Arc::new(TelemetryHub::with_parts(
            store.telemetry().to_vec(),
            Arc::clone(store.slow_ops()),
        ));
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            ops_served: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            tele,
        });
        let recorder = match config.flight_dir() {
            Some(dir) => {
                let dir = dir.clone();
                std::fs::create_dir_all(&dir)?;
                usr1::install();
                // Prime the diff baseline now, before serving begins:
                // the recorder's first observation only stores a
                // baseline, so on a saturated host a starved watcher
                // thread would otherwise swallow every event between
                // bind and its first tick — exactly the window early
                // anomalies land in.
                shared.tele.recorder.observe(&shared.tele.snapshot());
                let shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("aria-flight".to_string())
                        .spawn(move || recorder_watch(shared, dir))
                        .expect("spawn flight-recorder thread"),
                )
            }
            None => None,
        };
        let engine = match config.engine() {
            Engine::Reactor => EngineState::Reactor(ReactorEngine::start(
                listener,
                store,
                Arc::clone(&shared),
                config,
            )?),
            Engine::Threads => {
                let acceptor = {
                    let shared = Arc::clone(&shared);
                    thread::Builder::new()
                        .name("aria-accept".to_string())
                        .spawn(move || accept_loop(listener, store, shared, config))
                        .expect("spawn acceptor thread")
                };
                EngineState::Threads { acceptor: Some(acceptor) }
            }
        };
        Ok(AriaServer { addr, shared, engine, recorder })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Operations served since start (batch items count individually).
    pub fn ops_served(&self) -> u64 {
        self.shared.ops_served.load(Ordering::SeqCst)
    }

    /// The telemetry hub this server snapshots for METRICS requests.
    /// Shares the store's per-shard recorders; the caller can snapshot
    /// or scrape ([`aria_telemetry::render_prometheus`]) at any time.
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.shared.tele
    }

    /// Graceful shutdown: stop accepting, finish and flush every
    /// connection's in-flight window, join all threads. Idempotent with
    /// `Drop`; returns once everything is joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.recorder.take() {
            let _ = h.join();
        }
        match &mut self.engine {
            EngineState::Threads { acceptor } => {
                if let Some(h) = acceptor.take() {
                    let _ = h.join();
                }
                let conns = std::mem::take(&mut *lock_conns(&self.shared));
                for h in conns {
                    let _ = h.join();
                }
            }
            EngineState::Reactor(engine) => engine.stop(),
        }
    }
}

impl Drop for AriaServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for AriaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AriaServer")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .finish()
    }
}

fn accept_loop<S: KvStore + Send + 'static>(
    listener: TcpListener,
    store: Arc<ShardedStore<S>>,
    shared: Arc<Shared>,
    config: ServerConfig,
) {
    let mut conn_seq = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                reap_finished(&shared);
                if shared.active.load(Ordering::SeqCst) >= config.max_connections() {
                    shared.tele.net.rejected_connections.inc();
                    reject_connection(stream, config.write_timeout());
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.accepted.fetch_add(1, Ordering::SeqCst);
                conn_seq += 1;
                let store = Arc::clone(&store);
                let conn_shared = Arc::clone(&shared);
                let cfg = config.clone();
                let handle = thread::Builder::new()
                    .name(format!("aria-conn-{conn_seq}"))
                    .spawn(move || {
                        serve_connection(stream, store, &conn_shared, &cfg);
                        conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn connection thread");
                lock_conns(&shared).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// How often the flight-recorder watcher samples the telemetry plane.
const RECORDER_INTERVAL: Duration = Duration::from_millis(100);

/// Flight-recorder watcher: poll the telemetry snapshot, diff it into
/// system events, and serialize a post-mortem dump into `dir` whenever
/// an anomaly trigger fires (rate-limited) or the operator sends
/// `SIGUSR1` (always honored).
fn recorder_watch(shared: Arc<Shared>, dir: std::path::PathBuf) {
    use aria_telemetry::{unix_millis, FlightEvent, FlightEventKind, SHARD_NONE};
    let tele = &shared.tele;
    while !shared.shutdown.load(Ordering::SeqCst) {
        thread::sleep(RECORDER_INTERVAL);
        let snap = tele.snapshot();
        let mut triggers = tele.recorder.observe(&snap);
        let manual = usr1::take();
        let reason = if manual {
            let ev = FlightEvent {
                unix_millis: unix_millis(),
                kind: FlightEventKind::Manual,
                shard: SHARD_NONE,
                count: 1,
            };
            tele.recorder.record(ev);
            triggers.push(ev);
            "sigusr1"
        } else if !triggers.is_empty() {
            // Automatic dumps are rate-limited so a flapping shard
            // cannot flood the dump directory; the events themselves
            // are always recorded above.
            if !tele.recorder.dump_permitted() {
                continue;
            }
            "anomaly"
        } else {
            continue;
        };
        let (spans, _) = tele.traces.read_since(&[]);
        let json = tele.recorder.render_dump(reason, &triggers, &spans);
        let path = dir.join(format!("aria-flight-{}-{}.json", unix_millis(), reason));
        if std::fs::write(&path, json).is_ok() {
            tele.recorder.note_dump();
        }
    }
}

#[cfg(target_os = "linux")]
mod usr1 {
    //! `SIGUSR1` → "dump now" flag. Declaring `signal` directly keeps
    //! the workspace dependency-free (same pattern as the reactor's
    //! epoll bindings); the handler only stores to an atomic, which is
    //! async-signal-safe.
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGUSR1: i32 = 10;

    extern "C" fn on_usr1(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Install the handler (idempotent; last install wins, which is
    /// fine — every server process shares the one flag).
    pub(super) fn install() {
        #[allow(unsafe_code)]
        unsafe {
            signal(SIGUSR1, on_usr1)
        };
    }

    /// Consume a pending dump request.
    pub(super) fn take() -> bool {
        REQUESTED.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(target_os = "linux"))]
mod usr1 {
    //! No signal plumbing off Linux: dumps still flow via the `TRACE`
    //! wire opcode and anomaly triggers.
    pub(super) fn install() {}

    pub(super) fn take() -> bool {
        false
    }
}

/// Join connection threads that already returned so the registry does
/// not grow with every connection ever accepted.
fn reap_finished(shared: &Shared) {
    let mut conns = lock_conns(shared);
    let mut keep = Vec::with_capacity(conns.len());
    for handle in conns.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            keep.push(handle);
        }
    }
    *conns = keep;
}

/// Over the connection limit: tell the client why, then hang up.
pub(crate) fn reject_connection(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let mut buf = Vec::new();
    encode_or_substitute(
        &mut buf,
        proto::CONTROL_ID,
        &Response::Error {
            code: ErrorCode::TooManyConnections,
            message: "connection limit reached".to_string(),
            retry_after_ms: 0,
        },
        proto::BASE_PROTOCOL_VERSION,
    );
    let _ = stream.write_all(&buf);
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection<S: KvStore + Send + 'static>(
    mut stream: TcpStream,
    store: Arc<ShardedStore<S>>,
    shared: &Shared,
    cfg: &ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout()));

    let mut rbuf: Vec<u8> = Vec::new();
    let mut roff = 0usize;
    let mut wbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut last_request = Instant::now();
    // When the bytes now buffered arrived: the sojourn lower bound used
    // by deadline/overload shedding at plan time.
    let mut read_stamp = Instant::now();
    // What this peer speaks: the base version until a HELLO negotiates
    // higher. Responses (notably STATS) are encoded at this version,
    // and v4+ request frames carry the deadline trailer.
    let mut version = proto::BASE_PROTOCOL_VERSION;

    'conn: loop {
        // Decode and plan one pipeline window from what is already
        // buffered: store ops are copied out of the read buffer here
        // (the single copy on the request path), everything else is
        // parsed in place.
        let mut ops: Vec<BatchOp> = Vec::new();
        let mut plan: Vec<(u64, Slot, Option<Arc<SpanCell>>)> = Vec::new();
        let mut op_spans: Vec<(std::ops::Range<usize>, Arc<SpanCell>)> = Vec::new();
        let mut op_idxs: Vec<usize> = Vec::new();
        let mut wire_failure: Option<WireError> = None;
        let sojourn_ns = read_stamp.elapsed().as_nanos() as u64;
        while plan.len() < cfg.pipeline_window() {
            match proto::decode_request_ref_versioned(&rbuf[roff..], version) {
                Ok(Decoded::Frame(consumed, id, (req, meta))) => {
                    op_idxs.push(req.op_index());
                    let span = if meta.trace.sampled && aria_telemetry::enabled() {
                        let s = Arc::new(SpanCell::new(meta.trace.id, req.op_index() as u8));
                        s.stamp(stage::DECODE);
                        Some(s)
                    } else {
                        None
                    };
                    let op_start = ops.len();
                    let slot = shed_or_plan(
                        &req,
                        meta.deadline_ns,
                        sojourn_ns,
                        cfg.shed_sojourn(),
                        &shared.tele,
                        span.as_deref(),
                        &|k| store.stale_claim(k, meta.routing_epoch),
                        &mut |op| ops.push(op),
                    );
                    if let Some(s) = &span {
                        if ops.len() > op_start {
                            op_spans.push((op_start..ops.len(), Arc::clone(s)));
                        }
                    }
                    plan.push((id, slot, span));
                    roff += consumed;
                }
                Ok(Decoded::Incomplete) => break,
                Err(e) => {
                    wire_failure = Some(e);
                    break;
                }
            }
        }
        if roff == rbuf.len() {
            rbuf.clear();
            roff = 0;
        } else if roff > READ_CHUNK {
            rbuf.drain(..roff);
            roff = 0;
        }

        if !plan.is_empty() {
            last_request = Instant::now();
            let inflight = plan.len() as u64;
            shared.tele.net.inflight.add(inflight);
            let dispatched = dispatch_window(
                &store,
                shared,
                cfg,
                &mut stream,
                &mut wbuf,
                ops,
                plan,
                op_spans,
                &op_idxs,
                &mut version,
            );
            shared.tele.net.inflight.sub(inflight);
            if let Err(e) = dispatched {
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                    // The peer stopped draining responses and the flush
                    // timed out: a slow-reader disconnect, observable
                    // in STATS rather than a silent drop.
                    shared.tele.net.conns_disconnected_slow.inc();
                }
                break 'conn;
            }
        }

        if let Some(e) = wire_failure {
            // The valid prefix was served; report the poisoned stream as
            // a connection-level error and hang up (resynchronization is
            // impossible once framing is lost).
            encode_or_substitute(&mut wbuf, proto::CONTROL_ID, &wire_failure_response(&e), version);
            let _ = flush(&mut stream, &mut wbuf, &shared.tele);
            break 'conn;
        }

        if !window_possible(&rbuf[roff..], version) {
            // Fully drained and answered; now is the clean point to stop.
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'conn;
            }
            match stream.read(&mut chunk) {
                Ok(0) => break 'conn, // peer closed
                Ok(n) => {
                    shared.tele.net.frame_bytes_in.add(n as u64);
                    rbuf.extend_from_slice(&chunk[..n]);
                    read_stamp = Instant::now();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if let Some(limit) = cfg.read_timeout() {
                        if last_request.elapsed() > limit {
                            shared.tele.net.timed_out_connections.inc();
                            break 'conn;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break 'conn,
            }
        }
    }
    let _ = flush(&mut stream, &mut wbuf, &shared.tele);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Whether the buffered bytes could still contain a complete frame.
fn window_possible(buf: &[u8], version: u16) -> bool {
    matches!(proto::decode_request_ref_versioned(buf, version), Ok(Decoded::Frame(..)) | Err(_))
}

/// Run a planned window as one store batch and stream the responses
/// out (flushing whenever the write buffer tops its bound).
#[allow(clippy::too_many_arguments)]
fn dispatch_window<S: KvStore + Send + 'static>(
    store: &ShardedStore<S>,
    shared: &Shared,
    cfg: &ServerConfig,
    stream: &mut TcpStream,
    wbuf: &mut Vec<u8>,
    ops: Vec<BatchOp>,
    plan: Vec<(u64, Slot, Option<Arc<SpanCell>>)>,
    op_spans: Vec<(std::ops::Range<usize>, Arc<SpanCell>)>,
    op_idxs: &[usize],
    version: &mut u16,
) -> io::Result<()> {
    let start = Instant::now();
    let served: u64 = plan.iter().map(|(_, slot, _)| slot.served_units()).sum();
    shared.ops_served.fetch_add(served, Ordering::Relaxed);

    let mut replies = store.run_batch_traced(ops, op_spans).into_iter();
    let stats = ServerStats {
        ops_served: shared.ops_served.load(Ordering::Relaxed),
        active_connections: shared.active.load(Ordering::SeqCst) as u32,
        connections_accepted: shared.accepted.load(Ordering::SeqCst),
    };
    let mut window_spans: Vec<Arc<SpanCell>> = Vec::new();
    for (id, slot, span) in plan {
        let was_shed = matches!(slot, Slot::Shed(..));
        let resp = build_response(slot, &mut replies, store, &shared.tele, &stats);
        if let Some(s) = span {
            s.stamp(stage::ENCODE);
            // Shed spans already carry their verdict; anything else
            // answering an error frame is marked ERROR.
            if !was_shed && matches!(resp, Response::Error { .. }) {
                s.set_outcome(outcome::ERROR);
            }
            window_spans.push(s);
        }
        encode_or_substitute(wbuf, id, &resp, *version);
        // Responses after the HELLO ack (even later in this window) are
        // encoded at the version the handshake just negotiated.
        if let Response::HelloAck { version: negotiated, .. } = resp {
            *version = negotiated;
        }
        if wbuf.len() >= cfg.write_buffer_limit() {
            flush(stream, wbuf, &shared.tele)?;
        }
    }
    observe_amortized(&shared.tele, start.elapsed().as_nanos() as u64, op_idxs);
    // Every response of the window is acknowledged before more requests
    // are read: the flush is both the backpressure point and what makes
    // graceful shutdown lose nothing that was acked.
    let flushed = flush(stream, wbuf, &shared.tele);
    for s in window_spans {
        // A span describes work the server really did even when the
        // peer vanished before the flush; only the FLUSH stamp is
        // conditional on the bytes reaching the socket.
        if flushed.is_ok() {
            s.stamp(stage::FLUSH);
        }
        shared.tele.traces.publish(&s.to_span());
    }
    flushed
}

fn flush(stream: &mut TcpStream, wbuf: &mut Vec<u8>, tele: &TelemetryHub) -> io::Result<()> {
    if wbuf.is_empty() {
        return Ok(());
    }
    // write_all + a write timeout on the socket: a consumer slower than
    // the timeout is treated as gone.
    stream.write_all(wbuf)?;
    tele.net.frame_bytes_out.add(wbuf.len() as u64);
    wbuf.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use aria_sim::Enclave;
    use aria_store::{AriaHash, StoreConfig};

    fn ping_over(addr: SocketAddr) -> bool {
        let Ok(mut stream) = TcpStream::connect(addr) else { return false };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut buf = Vec::new();
        proto::encode_request(&mut buf, 1, &Request::Ping).unwrap();
        if stream.write_all(&buf).is_err() {
            return false;
        }
        let mut rbuf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match proto::decode_response(&rbuf) {
                Ok(Decoded::Frame(_, id, Response::Pong)) => return id == 1,
                Ok(Decoded::Frame(..)) | Err(_) => return false,
                Ok(Decoded::Incomplete) => match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return false,
                    Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                },
            }
        }
    }

    /// A connection thread that panics while holding the registry lock
    /// must not take the acceptor (or graceful shutdown) down with it.
    /// Threads-engine specific: the reactor has no connection registry.
    #[test]
    fn poisoned_conn_registry_keeps_accepting_and_shuts_down() {
        let store = Arc::new(
            ShardedStore::with_shards(2, |_| {
                AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
            })
            .unwrap(),
        );
        let config = ServerConfig::builder().engine(Engine::Threads).build().unwrap();
        let server = AriaServer::bind("127.0.0.1:0", store, config).unwrap();
        let addr = server.local_addr();
        assert!(ping_over(addr), "server must serve before the poisoning");

        // Poison shared.conns exactly the way a panicking thread that
        // holds the lock would.
        let shared = Arc::clone(&server.shared);
        let _ = thread::spawn(move || {
            let _guard = shared.conns.lock().unwrap();
            panic!("injected panic while holding the connection registry");
        })
        .join();
        assert!(server.shared.conns.is_poisoned());

        // New connections are still accepted and served (the acceptor
        // pushes into the poisoned registry without panicking) …
        assert!(ping_over(addr), "listener must keep accepting after the poisoning");
        assert!(ping_over(addr));

        // … and shutdown still drains and joins everything.
        server.shutdown();
    }

    /// The reactor engine serves the same wire protocol: a HELLO-less
    /// PING round-trips, and shutdown joins cleanly.
    #[test]
    fn reactor_engine_serves_and_shuts_down() {
        let store = Arc::new(
            ShardedStore::with_shards(2, |_| {
                AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
            })
            .unwrap(),
        );
        let config = ServerConfig::builder().engine(Engine::Reactor).reactors(2).build().unwrap();
        let server = AriaServer::bind("127.0.0.1:0", store, config).unwrap();
        let addr = server.local_addr();
        assert!(ping_over(addr));
        assert!(ping_over(addr));
        server.shutdown();
    }
}
