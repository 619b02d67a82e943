//! `AriaServer`: the TCP front door over a [`ShardedStore`].
//!
//! [`AriaServer::bind`] starts the epoll reactor engine
//! ([`crate::reactor`]), which documents the serving contract —
//! per-connection response order, bounded write buffers with
//! backpressure, and graceful drain-then-join shutdown — plus, when a
//! dump directory is configured, the flight-recorder watcher thread.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use aria_store::sharded::ShardedStore;
use aria_store::KvStore;
use aria_telemetry::TelemetryHub;

use crate::config::ServerConfig;
use crate::proto::{self, ErrorCode, Response};
use crate::reactor::{Poll, Poller, ReactorEngine};
use crate::service::encode_or_substitute;

/// How often the acceptor and idle reactors wake to check for shutdown.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Read chunk size for connection sockets.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// State the reactors publish through: lifecycle flag, connection and
/// op accounting, and the telemetry hub METRICS snapshots come from.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) ops_served: AtomicU64,
    pub(crate) tele: Arc<TelemetryHub>,
}

/// A running TCP server; dropping (or [`AriaServer::shutdown`]) drains
/// and joins every thread it spawned.
pub struct AriaServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine: ReactorEngine,
    /// Flight-recorder watcher thread (only when a dump directory is
    /// configured); joined on shutdown like the reactors.
    recorder: Option<JoinHandle<()>>,
}

impl AriaServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `store` on [`ServerConfig::reactors`] reactor
    /// threads.
    pub fn bind<S, A>(
        addr: A,
        store: Arc<ShardedStore<S>>,
        config: ServerConfig,
    ) -> io::Result<AriaServer>
    where
        S: KvStore + Send + 'static,
        A: ToSocketAddrs,
    {
        Self::bind_polled::<S, A, Poller>(addr, store, config)
    }

    /// [`AriaServer::bind`] with the reactors waiting on a `P` rather
    /// than the platform's poller.
    pub(crate) fn bind_polled<S, A, P>(
        addr: A,
        store: Arc<ShardedStore<S>>,
        config: ServerConfig,
    ) -> io::Result<AriaServer>
    where
        S: KvStore + Send + 'static,
        A: ToSocketAddrs,
        P: Poll,
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
        // The hub shares the store's live recorders and span rings, so a
        // METRICS snapshot covers every layer below the socket and TRACE
        // streams the store's tail spans beside the sampled requests.
        let tele = Arc::new(TelemetryHub::with_parts(
            store.telemetry().to_vec(),
            Arc::clone(store.traces()),
        ));
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            ops_served: AtomicU64::new(0),
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
        let engine = ReactorEngine::start::<S, P>(listener, store, Arc::clone(&shared), config)?;
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
    /// or scrape ([`aria_telemetry::TelemetrySnapshot::render_prometheus`])
    /// at any time.
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
        self.engine.stop();
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
    );
    let _ = stream.write_all(&buf);
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Decoded, Request};
    use aria_sim::Enclave;
    use aria_store::{AriaHash, StoreConfig};
    use std::io::Read;

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

    /// A HELLO-less PING round-trips over two reactors, and shutdown
    /// joins cleanly.
    #[test]
    fn reactor_engine_serves_and_shuts_down() {
        let store = Arc::new(
            ShardedStore::with_shards(2, |_| {
                AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
            })
            .unwrap(),
        );
        let config = ServerConfig::builder().reactors(2).build().unwrap();
        let server = AriaServer::bind("127.0.0.1:0", store, config).unwrap();
        let addr = server.local_addr();
        assert!(ping_over(addr));
        assert!(ping_over(addr));
        server.shutdown();
    }
}
