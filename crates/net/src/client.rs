//! `AriaClient`: a pipelined, reconnecting TCP client for the Aria
//! protocol.
//!
//! The client is synchronous and single-threaded (one per worker
//! thread). Throughput comes from *pipelining*: [`AriaClient::pipeline`]
//! writes a whole slice of requests before reading any response, keeping
//! the server's pipeline window full. The convenience ops
//! ([`AriaClient::get`], [`AriaClient::put`], …) are depth-1 pipelines.
//!
//! Transport failures are never silently retried for *operations* —
//! a put whose connection died mid-flight may or may not have been
//! applied, and only the caller knows whether re-issuing is safe. What
//! the client does transparently is re-*connect*: every op first ensures
//! a connection, dialing with exponential backoff
//! ([`ClientConfig::reconnect_attempts`] ×
//! [`ClientConfig::reconnect_backoff`]) if the previous one is gone.
//! Each backoff sleep is *jittered* — drawn uniformly from
//! `[backoff/2, backoff]` with a per-client splitmix64 stream — so a
//! fleet of clients dropped by the same server incident redials spread
//! out instead of in synchronized waves.
//! Every response read is bounded by [`ClientConfig::op_timeout`], so a
//! dead or wedged server yields a typed [`NetError`] instead of a hang.
//!
//! One class of *server* error may be retried transparently: shard
//! routing errors ([`ErrorCode::ShardQuarantined`] /
//! [`ErrorCode::ShardUnavailable`]) mean the op was refused before
//! touching any data, so re-issuing is always safe. During a failover
//! the refusal window is the promotion latency, so single-op calls
//! retry these up to [`ClientConfig::retry_budget`] times within a
//! total [`ClientConfig::op_deadline`], with jittered doubling backoff,
//! and surface the *last typed error* when the budget or deadline runs
//! out. Transport errors and every other server error are never
//! retried.
//!
//! Each new connection opens with a `HELLO` offering
//! [`proto::PROTOCOL_VERSION`] and the client's feature bits. A server
//! that refuses the version fails [`AriaClient::connect`] with its
//! typed [`ErrorCode::UnsupportedVersion`] error.
//!
//! # Routing cache
//!
//! The client keeps a *routing cache*: the server's routing epoch,
//! fetched once per connection (a `RESHARD` mode-0 query right after
//! `HELLO`) and stamped on every data frame's trailer.
//! A server mid-reshard refuses ops whose claimed epoch predates a
//! slot move with the typed `WRONG_SHARD` reply; the client treats
//! that as a *routing refresh*, not a failure — it adopts the epoch
//! carried in the refusal (single-flight: the refusal itself is the
//! refresh, no extra round-trip) and re-issues immediately. Refresh
//! retries are bounded separately ([`WRONG_SHARD_REFRESH_ROUNDS`])
//! and never consume [`ClientConfig::retry_budget`]; transport errors
//! are never retried by this path either.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use aria_store::sharded::splitmix64;

use crate::proto::{
    self, Decoded, ErrorCode, HealthReply, Request, Response, StatsReply, WireError,
};

/// Tuning knobs for [`AriaClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on waiting for any single response frame.
    pub op_timeout: Duration,
    /// Bound on one TCP connect attempt.
    pub connect_timeout: Duration,
    /// Connect attempts before an op reports the connection error.
    pub reconnect_attempts: u32,
    /// Sleep before the 2nd attempt; doubles each further attempt.
    pub reconnect_backoff: Duration,
    /// Extra attempts (beyond the first) for *safe-to-retry* server
    /// refusals: [`ErrorCode::ShardQuarantined`] and
    /// [`ErrorCode::ShardUnavailable`]. 0 disables op retries.
    pub retry_budget: u32,
    /// Total wall-clock bound across one op's first attempt and all its
    /// retries; the last typed error is surfaced when it expires.
    pub op_deadline: Duration,
    /// Sleep before the first op retry; doubles (with jitter) each
    /// further retry.
    pub retry_backoff: Duration,
    /// Trace sampling rate: `0` disables tracing; `N` stamps roughly
    /// one in `N` requests with a sampled trace context so the server
    /// captures a per-stage span for it.
    pub trace_sample: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            op_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(1),
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(20),
            retry_budget: 0,
            op_deadline: Duration::from_secs(30),
            retry_backoff: Duration::from_millis(5),
            trace_sample: 0,
        }
    }
}

/// Errors surfaced by [`AriaClient`] operations.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read or write).
    Io(io::Error),
    /// No response within [`ClientConfig::op_timeout`].
    Timeout,
    /// The peer sent bytes that do not decode as protocol frames.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// Stable protocol error code.
        code: ErrorCode,
        /// Log detail from the server.
        message: String,
        /// Server's cool-down hint for [`ErrorCode::Overloaded`]
        /// refusals (milliseconds; 0 = no hint). The retry loop
        /// honors it instead of its own backoff, still capped by
        /// [`ClientConfig::op_deadline`].
        retry_after_ms: u64,
    },
    /// The server answered with a frame that does not match the request
    /// (protocol bug or desynchronized stream).
    UnexpectedResponse,
}

impl NetError {
    /// The protocol error code, when the server produced one.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Whether the failure is transport-level (the op may never have
    /// reached the server, and a reconnect might succeed).
    pub fn is_transport(&self) -> bool {
        matches!(self, NetError::Io(_) | NetError::Timeout)
    }

    /// Whether the op was *refused before touching data* and is
    /// therefore always safe to re-issue: the server answered with a
    /// shard routing error (quarantined or unavailable, from failover
    /// and recovery windows) or an admission refusal
    /// ([`ErrorCode::Overloaded`], refused fast before execution).
    /// [`ErrorCode::DeadlineExceeded`] is deliberately NOT here: the
    /// op's own time budget is already spent, so re-issuing it would
    /// only add load that can no longer help the caller. Transport
    /// errors are NOT safe — the op may have been applied.
    pub fn is_safe_to_retry(&self) -> bool {
        matches!(
            self,
            NetError::Server {
                code: ErrorCode::ShardQuarantined
                    | ErrorCode::ShardUnavailable
                    | ErrorCode::Overloaded,
                ..
            }
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Timeout => write!(f, "timed out waiting for a response"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Server { code, message, .. } => write!(f, "server error {code}: {message}"),
            NetError::UnexpectedResponse => write!(f, "response does not match the request"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
            NetError::Timeout
        } else {
            NetError::Io(e)
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// Per-key outcome of a [`AriaClient::multi_get`]: the value (if the
/// key exists) or the store's typed error code for that key.
pub type KeyResult = Result<Option<Vec<u8>>, ErrorCode>;

/// How many `WRONG_SHARD` refresh-and-retry rounds a single op may
/// take before the typed error surfaces. Each refused round adopts the
/// server's epoch from the refusal, so one round resolves any single
/// committed move; the headroom covers back-to-back migrations landing
/// while the op is in flight.
pub const WRONG_SHARD_REFRESH_ROUNDS: u32 = 4;

/// The server's resharding status as seen by [`AriaClient::reshard_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardReply {
    /// Current routing epoch.
    pub epoch: u64,
    /// Per-slot owner shard.
    pub slots: Vec<u32>,
    /// Encoded `aria_store::ReshardState` (0 idle, 1 running,
    /// 2 committed, 3 aborted).
    pub state: u8,
    /// Migrations started since the server came up.
    pub started: u64,
    /// Migrations committed.
    pub committed: u64,
    /// Migrations aborted.
    pub aborted: u64,
}

/// How much spare room a socket read is offered.
const READ_CHUNK: usize = 16 * 1024;

struct Conn {
    stream: TcpStream,
    /// Received bytes live in `rbuf[roff..rend]`; the rest of the
    /// vector is spare, already-initialised room the socket reads into
    /// directly, so a read costs neither a memset nor a copy.
    rbuf: Vec<u8>,
    roff: usize,
    rend: usize,
}

/// A pipelined client connection to an [`crate::AriaServer`].
pub struct AriaClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
    next_id: u64,
    /// splitmix64 state for backoff jitter (advanced per draw).
    rng: u64,
    /// Wall-clock bound of the op currently inside [`AriaClient::one`];
    /// data frames carry the remaining budget as their deadline
    /// trailer. `None` for raw [`AriaClient::pipeline`] calls, which
    /// send "no deadline".
    op_deadline_hint: Option<Instant>,
    /// Cached routing epoch, stamped on every data frame (0 = no claim,
    /// before the first fetch).
    routing_epoch: u64,
}

impl AriaClient {
    /// Resolve `addr` and connect (with backoff).
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<AriaClient, NetError> {
        let addr = addr.to_socket_addrs().map_err(NetError::Io)?.next().ok_or_else(|| {
            NetError::Io(io::Error::new(io::ErrorKind::InvalidInput, "no address"))
        })?;
        // Jitter seed: wall clock mixed with the target address, so
        // simultaneously-started clients still draw distinct streams.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let rng = splitmix64(now ^ (u64::from(addr.port()) << 32));
        let mut client = AriaClient {
            addr,
            config,
            conn: None,
            next_id: 1,
            rng,
            op_deadline_hint: None,
            routing_epoch: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Whether a live connection is currently held (it may still be
    /// found dead by the next op).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The routing epoch this client currently claims on data frames
    /// (0 = no claim).
    pub fn routing_epoch(&self) -> u64 {
        self.routing_epoch
    }

    /// The server address this client dials.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        self.dial()?;
        let opened = self.open();
        if opened.is_err() {
            self.conn = None;
        }
        opened
    }

    /// `HELLO`, then one `RESHARD` mode-0 query that primes the routing
    /// cache so data frames claim a live epoch from the first op.
    /// Either failing fails the connect: a refused `HELLO` surfaces as
    /// the server's typed error, and a server that cannot answer a
    /// `RESHARD` query is not healthy.
    fn open(&mut self) -> Result<(), NetError> {
        let hello = Request::Hello {
            version: proto::PROTOCOL_VERSION,
            features: proto::features::SUPPORTED,
        };
        let Response::HelloAck { .. } = self.exchange(&hello)? else {
            return Err(NetError::UnexpectedResponse);
        };
        let query = Request::Reshard { mode: 0, source: 0, target: 0 };
        let Response::Reshard { epoch, .. } = self.exchange(&query)? else {
            return Err(NetError::UnexpectedResponse);
        };
        self.routing_epoch = self.routing_epoch.max(epoch);
        Ok(())
    }

    /// One request/response round on the fresh connection. An `ERROR`
    /// reply under any id — a connection refused over the limit
    /// answers on the control id — surfaces as [`NetError::Server`].
    fn exchange(&mut self, req: &Request) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let conn = self.conn.as_mut().expect("dial succeeded");
        let mut out = Vec::new();
        proto::encode_request(&mut out, id, req)?;
        conn.stream.write_all(&out)?;
        match read_response(conn)? {
            (_, Response::Error { code, message, retry_after_ms }) => {
                Err(NetError::Server { code, message, retry_after_ms })
            }
            (rid, resp) if rid == id => Ok(resp),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    fn dial(&mut self) -> Result<(), NetError> {
        let mut backoff = self.config.reconnect_backoff;
        let attempts = self.config.reconnect_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.jittered(backoff));
                backoff = backoff.saturating_mul(2);
            }
            match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(Some(self.config.op_timeout)).map_err(NetError::Io)?;
                    stream.set_write_timeout(Some(self.config.op_timeout)).map_err(NetError::Io)?;
                    self.conn = Some(Conn { stream, rbuf: Vec::new(), roff: 0, rend: 0 });
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(last.expect("at least one connect attempt")))
    }

    /// One sampling decision: [`proto::TraceContext::NONE`] when
    /// tracing is off (or the 1-in-N draw misses), otherwise a sampled
    /// context with a fresh nonzero trace id.
    fn draw_trace(&mut self) -> proto::TraceContext {
        if self.config.trace_sample == 0 {
            return proto::TraceContext::NONE;
        }
        self.rng = splitmix64(self.rng);
        if !self.rng.is_multiple_of(u64::from(self.config.trace_sample)) {
            return proto::TraceContext::NONE;
        }
        self.rng = splitmix64(self.rng);
        proto::TraceContext { id: self.rng.max(1), sampled: true }
    }

    /// Uniform draw from `[backoff/2, backoff]`, advancing the client's
    /// splitmix64 stream. Keeps the exponential doubling envelope while
    /// desynchronizing concurrent reconnectors.
    fn jittered(&mut self, backoff: Duration) -> Duration {
        self.rng = splitmix64(self.rng);
        let ns = backoff.as_nanos() as u64;
        let half = ns / 2;
        Duration::from_nanos(half + self.rng % (ns - half + 1))
    }

    /// Send every request back-to-back, then read every response, in
    /// order. One transport failure fails the whole pipeline and drops
    /// the connection (the next op redials).
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, NetError> {
        self.ensure_connected()?;
        let first_id = self.next_id;
        self.next_id += reqs.len() as u64;
        let result = self.pipeline_inner(first_id, reqs);
        if result.is_err() {
            // The stream may hold half a conversation; never reuse it.
            self.conn = None;
        }
        result
    }

    /// [`pipeline`](Self::pipeline), but every data frame in the window
    /// carries the remaining budget until `deadline` in its trailer. No
    /// retries — `Overloaded`/`DeadlineExceeded` refusals surface as
    /// per-op error responses for the caller to classify.
    pub fn pipeline_with_deadline(
        &mut self,
        reqs: &[Request],
        deadline: Instant,
    ) -> Result<Vec<Response>, NetError> {
        self.op_deadline_hint = Some(deadline);
        let result = self.pipeline(reqs);
        self.op_deadline_hint = None;
        result
    }

    fn pipeline_inner(
        &mut self,
        first_id: u64,
        reqs: &[Request],
    ) -> Result<Vec<Response>, NetError> {
        // Deadline: the remaining budget of the op in flight, clamped to
        // ≥1ns so an about-to-expire deadline is not mistaken for "no
        // deadline" (0).
        let deadline_ns = self
            .op_deadline_hint
            .map_or(0, |d| (d.saturating_duration_since(Instant::now()).as_nanos() as u64).max(1));
        let mut out = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            // The cached epoch rides on every data frame so the server
            // can refuse against stale routing; each sampled request
            // gets a fresh splitmix64 trace id.
            let meta = proto::RequestMeta {
                deadline_ns,
                trace: self.draw_trace(),
                routing_epoch: self.routing_epoch,
            };
            // An over-limit request fails the pipeline before any byte
            // hits the wire; the connection is still clean.
            proto::encode_request_meta(&mut out, first_id + i as u64, req, &meta)?;
        }
        let conn = self.conn.as_mut().expect("ensure_connected succeeded");
        conn.stream.write_all(&out)?;
        let mut responses = Vec::with_capacity(reqs.len());
        for i in 0..reqs.len() {
            let (id, resp) = read_response(conn)?;
            if id == proto::CONTROL_ID {
                // Connection-level server error (e.g. over the limit).
                if let Response::Error { code, message, retry_after_ms } = resp {
                    return Err(NetError::Server { code, message, retry_after_ms });
                }
                return Err(NetError::UnexpectedResponse);
            }
            if id != first_id + i as u64 {
                return Err(NetError::UnexpectedResponse);
            }
            responses.push(resp);
        }
        Ok(responses)
    }

    /// One request/response exchange, retrying safe-to-retry shard
    /// refusals (see [`NetError::is_safe_to_retry`]) within the
    /// configured budget and deadline. Anything else — transport
    /// failures included — fails on the first occurrence.
    fn one(&mut self, req: Request) -> Result<Response, NetError> {
        let deadline = Instant::now() + self.config.op_deadline;
        // Expose the bound so data frames carry the remaining budget as
        // their deadline trailer; cleared on every exit path.
        self.op_deadline_hint = Some(deadline);
        let result = self.one_with_deadline(req, deadline);
        self.op_deadline_hint = None;
        result
    }

    fn one_with_deadline(&mut self, req: Request, deadline: Instant) -> Result<Response, NetError> {
        let mut backoff = self.config.retry_backoff;
        let mut retries_left = self.config.retry_budget;
        let mut refresh_rounds = 0u32;
        loop {
            // Typed per-op server errors arrive as `Response::Error`
            // frames; fold them into `NetError::Server` here so the
            // retry policy sees them (callers' `fail()` would have done
            // the same conversion anyway).
            let err = match self.one_attempt(&req) {
                Ok(Response::WrongShard { epoch, hint }) => {
                    // A typed routing refusal: the op was refused
                    // before execution because our claimed epoch went
                    // stale. The refusal *carries* the fresh epoch, so
                    // adopting it is the refresh — re-issue right away.
                    // Bounded separately from (and never consuming) the
                    // ordinary retry budget.
                    if refresh_rounds < WRONG_SHARD_REFRESH_ROUNDS && Instant::now() < deadline {
                        refresh_rounds += 1;
                        self.routing_epoch = self.routing_epoch.max(epoch);
                        continue;
                    }
                    return Err(NetError::Server {
                        code: ErrorCode::WrongShard,
                        message: format!(
                            "routing refused after {refresh_rounds} refreshes \
                             (server epoch {epoch}, owner hint {hint})"
                        ),
                        retry_after_ms: 0,
                    });
                }
                Ok(Response::Error { code, message, retry_after_ms }) => {
                    NetError::Server { code, message, retry_after_ms }
                }
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !err.is_safe_to_retry() || retries_left == 0 {
                return Err(err);
            }
            let now = Instant::now();
            if now >= deadline {
                // Budget unspent but time is up: surface the last
                // typed error, never a synthetic timeout.
                return Err(err);
            }
            retries_left -= 1;
            // An overload refusal carries the server's cool-down hint;
            // honor it (jittered) instead of our own doubling envelope,
            // still capped by the op deadline.
            let sleep = match &err {
                NetError::Server { code: ErrorCode::Overloaded, retry_after_ms, .. }
                    if *retry_after_ms > 0 =>
                {
                    self.jittered(Duration::from_millis(*retry_after_ms))
                }
                _ => {
                    let s = self.jittered(backoff);
                    backoff = backoff.saturating_mul(2);
                    s
                }
            };
            std::thread::sleep(sleep.min(deadline - now));
        }
    }

    fn one_attempt(&mut self, req: &Request) -> Result<Response, NetError> {
        Ok(self.pipeline(std::slice::from_ref(req))?.pop().expect("one response per request"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.one(Request::Ping)? {
            Response::Pong => Ok(()),
            other => fail(other),
        }
    }

    /// Fetch one key.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, NetError> {
        match self.one(Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            other => fail(other),
        }
    }

    /// Insert or update one key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), NetError> {
        match self.one(Request::Put { key: key.to_vec(), value: value.to_vec() })? {
            Response::PutOk => Ok(()),
            other => fail(other),
        }
    }

    /// Remove one key; returns whether it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, NetError> {
        match self.one(Request::Delete { key: key.to_vec() })? {
            Response::Deleted(existed) => Ok(existed),
            other => fail(other),
        }
    }

    /// Fetch several keys in one request; per-key results in order.
    pub fn multi_get(&mut self, keys: &[&[u8]]) -> Result<Vec<KeyResult>, NetError> {
        let keys = keys.iter().map(|k| k.to_vec()).collect();
        match self.one(Request::MultiGet { keys })? {
            Response::Values(items) => Ok(items),
            other => fail(other),
        }
    }

    /// Insert or update several pairs in one request; per-pair results
    /// in order.
    pub fn put_batch(
        &mut self,
        pairs: &[(&[u8], &[u8])],
    ) -> Result<Vec<Result<(), ErrorCode>>, NetError> {
        let pairs = pairs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        match self.one(Request::PutBatch { pairs })? {
            Response::BatchStatus(items) => Ok(items),
            other => fail(other),
        }
    }

    /// Server/store statistics.
    pub fn stats(&mut self) -> Result<StatsReply, NetError> {
        match self.one(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => fail(other),
        }
    }

    /// Per-shard health (quarantine state machine) of the server's
    /// store.
    pub fn health(&mut self) -> Result<HealthReply, NetError> {
        match self.one(Request::Health)? {
            Response::Health(h) => Ok(h),
            other => fail(other),
        }
    }

    /// Full telemetry snapshot (metrics + slow-op traces) of the server.
    ///
    /// A decode failure means the peer speaks an incompatible telemetry
    /// codec version and is reported as [`NetError::UnexpectedResponse`].
    pub fn metrics(&mut self) -> Result<aria_telemetry::TelemetrySnapshot, NetError> {
        match self.one(Request::Metrics)? {
            Response::Metrics(bytes) => aria_telemetry::TelemetrySnapshot::decode(&bytes)
                .map_err(|_| NetError::UnexpectedResponse),
            other => fail(other),
        }
    }

    /// Stream the server's sampled spans, resuming from `cursors`
    /// (per-shard-ring positions; empty = everything still buffered).
    /// Returns the spans plus the cursors to pass on the next call.
    pub fn trace_spans(
        &mut self,
        cursors: &[u64],
    ) -> Result<(Vec<aria_telemetry::Span>, Vec<u64>), NetError> {
        match self.one(Request::Trace { mode: 0, cursors: cursors.to_vec() })? {
            Response::Trace(bytes) => {
                aria_telemetry::decode_spans(&bytes).map_err(|_| NetError::UnexpectedResponse)
            }
            other => fail(other),
        }
    }

    /// Request an on-demand flight-recorder post-mortem (JSON: trigger
    /// reason, recent system events, and the buffered sampled spans).
    pub fn flight_dump(&mut self) -> Result<String, NetError> {
        match self.one(Request::Trace { mode: 1, cursors: Vec::new() })? {
            Response::Trace(bytes) => {
                String::from_utf8(bytes).map_err(|_| NetError::UnexpectedResponse)
            }
            other => fail(other),
        }
    }

    /// Query the server's routing/resharding state (RESHARD mode 0),
    /// folding the answered epoch into the routing cache.
    pub fn reshard_status(&mut self) -> Result<ReshardReply, NetError> {
        self.reshard(Request::Reshard { mode: 0, source: 0, target: 0 })
    }

    /// Ask the server to start a shard *split*: move half of `source`'s
    /// routing slots to the inactive group `target`, activating it. The
    /// reply is the accept-time status; poll
    /// [`AriaClient::reshard_status`] for progress.
    pub fn start_split(&mut self, source: u32, target: u32) -> Result<ReshardReply, NetError> {
        self.reshard(Request::Reshard { mode: 1, source, target })
    }

    /// Ask the server to start a shard *merge*: move all of `source`'s
    /// routing slots into the active group `target`, deactivating the
    /// source once drained.
    pub fn start_merge(&mut self, source: u32, target: u32) -> Result<ReshardReply, NetError> {
        self.reshard(Request::Reshard { mode: 2, source, target })
    }

    fn reshard(&mut self, req: Request) -> Result<ReshardReply, NetError> {
        match self.one(req)? {
            Response::Reshard { epoch, slots, state, started, committed, aborted } => {
                self.routing_epoch = self.routing_epoch.max(epoch);
                Ok(ReshardReply { epoch, slots, state, started, committed, aborted })
            }
            other => fail(other),
        }
    }
}

impl std::fmt::Debug for AriaClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AriaClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

fn fail<T>(resp: Response) -> Result<T, NetError> {
    match resp {
        Response::Error { code, message, retry_after_ms } => {
            Err(NetError::Server { code, message, retry_after_ms })
        }
        // A WRONG_SHARD that escaped the refresh loop (e.g. raw
        // pipelines) still surfaces as its typed code.
        Response::WrongShard { epoch, hint } => Err(NetError::Server {
            code: ErrorCode::WrongShard,
            message: format!("wrong shard (server epoch {epoch}, owner hint {hint})"),
            retry_after_ms: 0,
        }),
        _ => Err(NetError::UnexpectedResponse),
    }
}

/// Read one response frame.
fn read_response(conn: &mut Conn) -> Result<(u64, Response), NetError> {
    loop {
        match proto::decode_response(&conn.rbuf[conn.roff..conn.rend])? {
            Decoded::Frame(consumed, id, resp) => {
                conn.roff += consumed;
                if conn.roff == conn.rend {
                    conn.roff = 0;
                    conn.rend = 0;
                }
                return Ok((id, resp));
            }
            Decoded::Incomplete => {
                if conn.rbuf.len() - conn.rend < READ_CHUNK {
                    // Out of spare room: reclaim the consumed prefix,
                    // then grow (zero-filling only the new tail, once).
                    conn.rbuf.copy_within(conn.roff..conn.rend, 0);
                    conn.rend -= conn.roff;
                    conn.roff = 0;
                    if conn.rbuf.len() - conn.rend < READ_CHUNK {
                        conn.rbuf.resize(conn.rend + READ_CHUNK, 0);
                    }
                }
                match conn.stream.read(&mut conn.rbuf[conn.rend..]) {
                    Ok(0) => {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        )))
                    }
                    Ok(n) => conn.rend += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// A scripted single-connection server: answers each request with
    /// the next canned response, counting requests served. Lets retry
    /// tests control exactly which typed errors the client observes.
    fn scripted_server(
        responses: Vec<Response>,
        repeat_last: bool,
    ) -> (SocketAddr, Arc<AtomicU64>, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let served = Arc::new(AtomicU64::new(0));
        let served2 = Arc::clone(&served);
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut rbuf = Vec::new();
            let mut next = 0usize;
            let mut chunk = [0u8; 4096];
            loop {
                let frame = match proto::decode_request(&rbuf) {
                    Ok(Decoded::Frame(consumed, id, req)) => Some((consumed, id, req)),
                    Ok(Decoded::Incomplete) => None,
                    Err(_) => return,
                };
                match frame {
                    Some((consumed, id, req)) => {
                        rbuf.drain(..consumed);
                        // Answer the connect-time HELLO and routing-cache
                        // priming query out-of-band so scripts stay about
                        // the operations under test.
                        let opening = match req {
                            Request::Hello { version, features } => Some(Response::HelloAck {
                                version,
                                features: features & proto::features::SUPPORTED,
                            }),
                            Request::Reshard { mode: 0, .. } => Some(Response::Reshard {
                                epoch: 1,
                                slots: Vec::new(),
                                state: 0,
                                started: 0,
                                committed: 0,
                                aborted: 0,
                            }),
                            _ => None,
                        };
                        if let Some(reply) = opening {
                            let mut out = Vec::new();
                            proto::encode_response(&mut out, id, &reply).expect("encode");
                            if stream.write_all(&out).is_err() {
                                return;
                            }
                            continue;
                        }
                        let resp = if next < responses.len() {
                            let r = responses[next].clone();
                            if next + 1 < responses.len() || !repeat_last {
                                next += 1;
                            }
                            r
                        } else {
                            return; // script exhausted: hang up
                        };
                        let mut out = Vec::new();
                        proto::encode_response(&mut out, id, &resp).expect("encode");
                        // Count before writing: the client may observe
                        // the response (and the test may assert) before
                        // this thread runs again.
                        served2.fetch_add(1, Ordering::SeqCst);
                        if stream.write_all(&out).is_err() {
                            return;
                        }
                    }
                    None => match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                    },
                }
            }
        });
        (addr, served, handle)
    }

    fn quarantined() -> Response {
        Response::Error {
            code: ErrorCode::ShardQuarantined,
            message: "shard 0 quarantined".into(),
            retry_after_ms: 0,
        }
    }

    fn overloaded(retry_after_ms: u64) -> Response {
        Response::Error {
            code: ErrorCode::Overloaded,
            message: "server overloaded; op was not applied".into(),
            retry_after_ms,
        }
    }

    fn fast_retry_config(budget: u32, deadline: Duration) -> ClientConfig {
        ClientConfig {
            retry_budget: budget,
            op_deadline: deadline,
            retry_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        }
    }

    /// A server that refuses our `HELLO` fails `connect` with its typed
    /// error, without a redial.
    #[test]
    fn refused_hello_fails_connect_with_the_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = stream.read(&mut [0u8; 4096]).expect("read hello");
            let refusal = Response::Error {
                code: ErrorCode::UnsupportedVersion,
                message: "speaks another version".into(),
                retry_after_ms: 0,
            };
            let mut out = Vec::new();
            proto::encode_response(&mut out, 1, &refusal).expect("encode");
            stream.write_all(&out).expect("write refusal");
            listener.set_nonblocking(true).expect("nonblocking");
            thread::sleep(Duration::from_millis(100));
            assert!(listener.accept().is_err(), "a refused client must not redial");
        });
        let config = ClientConfig { reconnect_attempts: 1, ..ClientConfig::default() };
        let err = AriaClient::connect(addr, config).expect_err("refused HELLO");
        assert_eq!(err.code(), Some(ErrorCode::UnsupportedVersion), "got {err:?}");
        handle.join().unwrap();
    }

    #[test]
    fn retry_budget_rides_out_a_quarantine_window() {
        // Two refusals then success: a budget of 3 must absorb them.
        let (addr, served, handle) =
            scripted_server(vec![quarantined(), quarantined(), Response::PutOk], false);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(3, Duration::from_secs(10))).unwrap();
        client.put(b"k", b"v").expect("retries must ride out the refusals");
        assert_eq!(served.load(Ordering::SeqCst), 3, "two refused attempts plus the success");
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn exhausted_budget_surfaces_last_typed_error() {
        let (addr, served, handle) = scripted_server(vec![quarantined()], true);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(2, Duration::from_secs(10))).unwrap();
        let err = client.put(b"k", b"v").expect_err("every attempt is refused");
        assert_eq!(err.code(), Some(ErrorCode::ShardQuarantined), "typed error, not a timeout");
        assert_eq!(served.load(Ordering::SeqCst), 3, "first attempt + budget of 2");
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn deadline_caps_retries_and_surfaces_last_typed_error() {
        let (addr, served, handle) = scripted_server(vec![quarantined()], true);
        let mut config = fast_retry_config(u32::MAX, Duration::from_millis(120));
        config.retry_backoff = Duration::from_millis(30);
        let mut client = AriaClient::connect(addr, config).unwrap();
        let start = Instant::now();
        let err = client.put(b"k", b"v").expect_err("server never relents");
        assert_eq!(err.code(), Some(ErrorCode::ShardQuarantined));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must stop an unbounded budget (took {:?})",
            start.elapsed()
        );
        assert!(served.load(Ordering::SeqCst) >= 2, "at least one retry happened");
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn non_shard_errors_and_transport_failures_are_not_retried() {
        // A non-routing server error must fail on the first attempt.
        let (addr, served, handle) = scripted_server(
            vec![Response::Error {
                code: ErrorCode::KeyTooLong,
                message: "nope".into(),
                retry_after_ms: 0,
            }],
            true,
        );
        let mut client =
            AriaClient::connect(addr, fast_retry_config(5, Duration::from_secs(10))).unwrap();
        let err = client.put(b"k", b"v").expect_err("KeyTooLong is not retryable");
        assert_eq!(err.code(), Some(ErrorCode::KeyTooLong));
        assert!(!err.is_safe_to_retry());
        assert_eq!(served.load(Ordering::SeqCst), 1, "no retry for non-routing errors");
        drop(client);
        handle.join().unwrap();

        // A connection that dies mid-op is a transport failure: the op
        // may have been applied, so the client must not re-issue it.
        let (addr, served, handle) = scripted_server(vec![], false);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(5, Duration::from_secs(10))).unwrap();
        let err = client.put(b"k", b"v").expect_err("server hangs up without answering");
        assert!(err.is_transport(), "got {err:?}");
        assert!(!err.is_safe_to_retry());
        assert_eq!(served.load(Ordering::SeqCst), 0);
        drop(client);
        handle.join().unwrap();
    }

    /// `Overloaded` is an admission refusal — the op never touched
    /// data — so it is retried, and the server's `retry_after_ms` hint
    /// drives the sleep instead of the client's own backoff envelope.
    #[test]
    fn overloaded_retry_honors_retry_after_hint() {
        let (addr, served, handle) = scripted_server(vec![overloaded(60), Response::PutOk], false);
        let mut config = fast_retry_config(3, Duration::from_secs(10));
        // Make the client's own envelope negligible so any measured
        // sleep is attributable to the server's hint.
        config.retry_backoff = Duration::from_micros(1);
        let mut client = AriaClient::connect(addr, config).unwrap();
        let start = Instant::now();
        client.put(b"k", b"v").expect("one refusal, then success");
        // The jittered draw is uniform in [hint/2, hint].
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "retry must honor the 60ms hint (slept only {:?})",
            start.elapsed()
        );
        assert_eq!(served.load(Ordering::SeqCst), 2, "one refusal plus the success");
        drop(client);
        handle.join().unwrap();
    }

    /// A huge `retry_after_ms` hint must not outlive the op deadline:
    /// the sleep is capped so the typed error surfaces promptly.
    #[test]
    fn overload_hint_is_capped_by_op_deadline() {
        let (addr, served, handle) = scripted_server(vec![overloaded(60_000)], true);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(u32::MAX, Duration::from_millis(150)))
                .unwrap();
        let start = Instant::now();
        let err = client.put(b"k", b"v").expect_err("server never relents");
        assert_eq!(err.code(), Some(ErrorCode::Overloaded));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a 60s hint must be capped by the 150ms op deadline (took {:?})",
            start.elapsed()
        );
        assert!(served.load(Ordering::SeqCst) >= 1);
        drop(client);
        handle.join().unwrap();
    }

    fn wrong_shard(epoch: u64) -> Response {
        Response::WrongShard { epoch, hint: 1 }
    }

    /// A WRONG_SHARD storm resolves in one refresh round: the refusal
    /// carries the fresh epoch, the client adopts it and re-issues —
    /// with ZERO ordinary retry budget configured, proving the refresh
    /// path does not consume it.
    #[test]
    fn wrong_shard_resolves_in_one_refresh_round_without_retry_budget() {
        let (addr, served, handle) = scripted_server(vec![wrong_shard(5), Response::PutOk], false);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(0, Duration::from_secs(10))).unwrap();
        assert_eq!(client.routing_epoch(), 1, "connect primes the routing cache");
        client.put(b"k", b"v").expect("one refresh round must resolve the refusal");
        assert_eq!(served.load(Ordering::SeqCst), 2, "refused attempt + refreshed success");
        assert_eq!(client.routing_epoch(), 5, "the refusal's epoch was adopted");
        drop(client);
        handle.join().unwrap();
    }

    /// A server that keeps refusing (epoch racing ahead) is bounded by
    /// the refresh-round cap, and the typed WrongShard error surfaces —
    /// never a timeout, never an unbounded loop.
    #[test]
    fn wrong_shard_refresh_rounds_are_bounded() {
        let (addr, served, handle) = scripted_server(vec![wrong_shard(9)], true);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(0, Duration::from_secs(10))).unwrap();
        let err = client.put(b"k", b"v").expect_err("server never relents");
        assert_eq!(err.code(), Some(ErrorCode::WrongShard));
        assert_eq!(
            served.load(Ordering::SeqCst),
            u64::from(WRONG_SHARD_REFRESH_ROUNDS) + 1,
            "first attempt plus the bounded refresh rounds"
        );
        drop(client);
        handle.join().unwrap();
    }

    /// The refresh path never retries transport errors: a connection
    /// that dies after a WRONG_SHARD refusal surfaces the transport
    /// failure immediately (the re-issued op may have been applied).
    #[test]
    fn wrong_shard_refresh_never_retries_transport_errors() {
        // Script: one refusal, then the script is exhausted — the
        // server hangs up on the re-issued attempt.
        let (addr, served, handle) = scripted_server(vec![wrong_shard(3)], false);
        let mut client =
            AriaClient::connect(addr, fast_retry_config(5, Duration::from_secs(10))).unwrap();
        let err = client.put(b"k", b"v").expect_err("server hangs up after the refusal");
        assert!(err.is_transport(), "transport failure must surface, got {err:?}");
        assert_eq!(served.load(Ordering::SeqCst), 1, "only the refused attempt was served");
        drop(client);
        handle.join().unwrap();
    }

    /// `DeadlineExceeded` means the op's time budget is already spent:
    /// retrying can no longer help the caller, so the client must fail
    /// on the first occurrence even with budget to spare.
    #[test]
    fn deadline_exceeded_is_never_retried() {
        let (addr, served, handle) = scripted_server(
            vec![Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired before execution; op was not applied".into(),
                retry_after_ms: 0,
            }],
            true,
        );
        let mut client =
            AriaClient::connect(addr, fast_retry_config(5, Duration::from_secs(10))).unwrap();
        let err = client.put(b"k", b"v").expect_err("deadline refusal is terminal");
        assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded));
        assert!(!err.is_safe_to_retry());
        assert_eq!(served.load(Ordering::SeqCst), 1, "no retry after a deadline refusal");
        drop(client);
        handle.join().unwrap();
    }
}
