//! Epoll-based run-to-completion reactor engine.
//!
//! N reactor threads (one per core by default) each own a set of
//! connections, pinned at accept time by the acceptor thread
//! (round-robin) and never migrated. Run-to-completion goes all the
//! way down: a shard of the store is a lock, not a thread, so the
//! reactor that read a request off its socket also executes it on the
//! store and writes the response — no request changes threads between
//! socket and store, and store parallelism is exactly the reactor
//! count. A reactor *tick* is:
//!
//! 1. wait on the poller (epoll on Linux, a portable fallback
//!    elsewhere) for socket readiness or an acceptor wake,
//! 2. adopt newly pinned connections and read every ready socket into
//!    its per-connection buffer,
//! 3. decode — in place, borrowing straight out of the read buffer via
//!    [`proto::decode_request_ref`] — up to one pipeline window per
//!    connection, routing every store op into a per-shard-group batch
//!    shared by **all** of the reactor's connections,
//! 4. run the whole tick as one [`ShardedStore::run_sharded`] call, on
//!    this thread (one slot-lock hold per shard group, regardless of
//!    connection count; the groups run one after another),
//! 5. assemble responses per connection in request order and flush,
//!    falling back to poller-driven writes when a socket would block.
//!
//! Coalescing crosses connections: with C connections each sending
//! depth-1 requests, a tick takes at most one slot lock (and pays one
//! covering flush) per shard group rather than one per connection — a
//! tick is also the store's commit group. The `coalesce_ratio`
//! telemetry (ops per store submission) makes the effect observable.
//!
//! # Semantics
//!
//! Responses are written in request order per connection; same-key
//! ordering within a tick follows the [`ShardedStore::run_sharded`]
//! contract (requests on different shards may interleave). A
//! connection whose write buffer tops
//! [`ServerConfig::write_buffer_limit`] stops being read — and once its
//! flush has made no progress for [`ServerConfig::write_timeout`], is
//! disconnected. Framing failures serve the valid prefix, send one
//! control-id error frame, and close. Graceful shutdown finishes the
//! tick in flight — every response for a decoded request is flushed
//! before sockets close, so no acknowledged write is lost — which is
//! what the quarantine and failover suites assert over this engine.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aria_store::sharded::{BatchOp, BatchReply, ShardedStore};
use aria_store::KvStore;
use aria_telemetry::{outcome, stage, SpanCell};

use crate::config::ServerConfig;
use crate::proto::{self, Decoded, WireError};
use crate::server::{reject_connection, Shared, POLL_INTERVAL, READ_CHUNK};
use crate::service::{
    build_response, encode_or_substitute, observe_amortized, shed_or_plan, wire_failure_response,
    Slot,
};

/// Poller token reserved for the acceptor's wake channel.
const WAKE_TOKEN: u64 = u64::MAX;

/// The platform's poller: epoll on Linux, the portable fallback
/// elsewhere.
#[cfg(target_os = "linux")]
pub(crate) use sys::Poller;

#[cfg(not(target_os = "linux"))]
pub(crate) use fallback::Poller;

/// A readiness poller, as the reactor drives it. It is a type
/// parameter of the engine, never a runtime choice: production builds
/// use [`Poller`], and the Linux tests also run the engine over the
/// fallback so the non-Linux path is exercised.
pub(crate) trait Poll: Sized {
    fn new() -> io::Result<Self>;
    /// Watch `fd` for readability (and writability if `writable`),
    /// reporting it as `token`.
    fn add(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;
    /// Change `fd`'s write interest.
    fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;
    /// Stop watching `fd`.
    fn remove(&mut self, fd: RawFd, token: u64);
    /// Wait up to `timeout` and push the token of every ready fd into
    /// `ready` (cleared first).
    fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) -> io::Result<()>;
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw epoll bindings. `std` already links libc, so declaring the
    //! symbols directly keeps the workspace dependency-free. This is
    //! the only unsafe code in the crate; every call site passes
    //! either the poller's own epoll fd or a fd owned by a live
    //! `TcpStream` in the reactor's connection slab.
    #![allow(unsafe_code)]

    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Matches the kernel ABI: packed on x86-64 (the kernel reads a
    /// 12-byte struct there), naturally aligned everywhere else — the
    /// same split glibc's `__EPOLL_PACKED` makes.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Level-triggered epoll poller: every registered fd is watched
    /// for readability; write interest is toggled per fd while its
    /// connection has unflushed output.
    pub(crate) struct Poller {
        epfd: RawFd,
        events: Vec<EpollEvent>,
    }

    impl Poller {
        fn ctl(&self, op: i32, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let mut ev =
                EpollEvent { events: EPOLLIN | if writable { EPOLLOUT } else { 0 }, data: token };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl super::Poll for Poller {
        fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd, events: vec![EpollEvent { events: 0, data: 0 }; 256] })
        }

        fn add(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, writable)
        }

        fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, writable)
        }

        fn remove(&mut self, fd: RawFd, _token: u64) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) -> io::Result<()> {
            ready.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe {
                epoll_wait(self.epfd, self.events.as_mut_ptr(), self.events.len() as i32, ms)
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.events[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let token = ev.data;
                ready.push(token);
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            let _ = unsafe { close(self.epfd) };
        }
    }
}

#[cfg(any(test, not(target_os = "linux")))]
pub(crate) mod fallback {
    //! Portable poller: remembers registered tokens and reports all of
    //! them ready after a short sleep. Spurious readiness is safe by
    //! construction — the reactor treats `WouldBlock` as "not now" —
    //! it just burns more wakeups than epoll would. Built on Linux for
    //! tests only, which run the engine over it.
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    pub(crate) struct Poller {
        tokens: Vec<u64>,
    }

    impl super::Poll for Poller {
        fn new() -> io::Result<Poller> {
            Ok(Poller { tokens: Vec::new() })
        }

        fn add(&mut self, _fd: RawFd, token: u64, _writable: bool) -> io::Result<()> {
            self.tokens.push(token);
            Ok(())
        }

        fn modify(&mut self, _fd: RawFd, _token: u64, _w: bool) -> io::Result<()> {
            Ok(())
        }

        fn remove(&mut self, _fd: RawFd, token: u64) {
            self.tokens.retain(|&t| t != token);
        }

        fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) -> io::Result<()> {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            ready.clear();
            ready.extend_from_slice(&self.tokens);
            Ok(())
        }
    }
}

/// Hand-off point between the acceptor and one reactor: freshly
/// accepted sockets queue here, and a byte on the wake channel makes
/// the reactor's poller return immediately.
struct Inbox {
    queue: Mutex<Vec<TcpStream>>,
    wake_tx: Mutex<TcpStream>,
}

impl Inbox {
    fn wake(&self) {
        if let Ok(mut tx) = self.wake_tx.lock() {
            let _ = tx.write(&[1]);
        }
    }
}

/// The running reactor engine: the acceptor thread plus its reactors.
pub(crate) struct ReactorEngine {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<(Option<JoinHandle<()>>, Arc<Inbox>)>,
}

impl ReactorEngine {
    /// Spawn `cfg.reactors()` reactor threads, each waiting on its own
    /// `P`, and the acceptor that pins connections onto them.
    pub(crate) fn start<S: KvStore + Send + 'static, P: Poll>(
        listener: TcpListener,
        store: Arc<ShardedStore<S>>,
        shared: Arc<Shared>,
        cfg: ServerConfig,
    ) -> io::Result<ReactorEngine> {
        let mut reactors = Vec::with_capacity(cfg.reactors());
        for i in 0..cfg.reactors() {
            let (wake_tx, wake_rx) = wake_pair()?;
            let inbox =
                Arc::new(Inbox { queue: Mutex::new(Vec::new()), wake_tx: Mutex::new(wake_tx) });
            let handle = {
                let inbox = Arc::clone(&inbox);
                let store = Arc::clone(&store);
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                thread::Builder::new()
                    .name(format!("aria-reactor-{i}"))
                    .spawn(move || reactor_loop::<S, P>(wake_rx, inbox, store, shared, cfg))
                    .expect("spawn reactor thread")
            };
            reactors.push((Some(handle), inbox));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            let inboxes: Vec<Arc<Inbox>> =
                reactors.iter().map(|(_, inbox)| Arc::clone(inbox)).collect();
            thread::Builder::new()
                .name("aria-accept".to_string())
                .spawn(move || accept_loop(listener, inboxes, shared, cfg))
                .expect("spawn acceptor thread")
        };
        Ok(ReactorEngine { shared, acceptor: Some(acceptor), reactors })
    }

    /// Join everything; the caller has already set the shutdown flag.
    pub(crate) fn stop(&mut self) {
        for (_, inbox) in &self.reactors {
            inbox.wake();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for (handle, inbox) in &mut self.reactors {
            inbox.wake();
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
        // A connection the acceptor pinned after its reactor drained
        // the inbox was never adopted: close it and release its slot.
        for (_, inbox) in &self.reactors {
            if let Ok(mut q) = inbox.queue.lock() {
                for stream in q.drain(..) {
                    let _ = stream.shutdown(Shutdown::Both);
                    self.shared.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }
}

/// A loopback socket pair standing in for `eventfd`: the write side
/// lives with the acceptor, the (nonblocking) read side is registered
/// in the reactor's poller under [`WAKE_TOKEN`].
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let gate = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(gate.local_addr()?)?;
    let (rx, _) = gate.accept()?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

fn accept_loop(
    listener: TcpListener,
    inboxes: Vec<Arc<Inbox>>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
) {
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.active.load(Ordering::SeqCst) >= cfg.max_connections() {
                    shared.tele.net.rejected_connections.inc();
                    reject_connection(stream, cfg.write_timeout());
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.accepted.fetch_add(1, Ordering::SeqCst);
                // Pin round-robin: the connection lives on this
                // reactor until it closes.
                let inbox = &inboxes[next % inboxes.len()];
                next = next.wrapping_add(1);
                if let Ok(mut q) = inbox.queue.lock() {
                    q.push(stream);
                }
                inbox.wake();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Per-connection reactor state. Identified by its slab index, which
/// doubles as the poller token.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    rbuf: Vec<u8>,
    roff: usize,
    wbuf: Vec<u8>,
    woff: usize,
    /// Poller is currently watching this fd for writability.
    want_write: bool,
    /// Set when a flush makes no progress; overdue means disconnect.
    write_deadline: Option<Instant>,
    last_request: Instant,
    /// Peer closed its write side; serve what is buffered, then close.
    peer_closed: bool,
    /// Framing lost: error frame queued, close after the flush.
    poisoned: bool,
    /// Complete frames may remain beyond the window cap — tick again
    /// without waiting on the poller.
    more_buffered: bool,
    /// When the bytes now buffered arrived: the sojourn lower bound
    /// used by deadline/overload shedding at plan time.
    read_stamp: Instant,
    /// Sampled-request spans whose responses sit in `wbuf`: FLUSH is
    /// stamped and the span published once the buffer drains (or the
    /// connection closes — a span is never lost to a dead peer).
    unflushed_spans: Vec<Arc<SpanCell>>,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.wbuf.len() - self.woff
    }

    /// Reclaim consumed read-buffer space without shifting bytes on
    /// every frame.
    fn compact(&mut self) {
        if self.roff == self.rbuf.len() {
            self.rbuf.clear();
            self.roff = 0;
        } else if self.roff > READ_CHUNK {
            self.rbuf.drain(..self.roff);
            self.roff = 0;
        }
    }
}

/// One request planned this tick: which connection, its wire id, the
/// response slot, and where in the per-group batch its replies live.
struct Planned {
    token: usize,
    id: u64,
    slot: Slot,
    /// `(group, index)` of each store op, in op order.
    refs: Vec<(usize, usize)>,
    /// Live trace span when the request carried a sampled context.
    span: Option<Arc<SpanCell>>,
}

/// Yields one connection's replies in plan order by taking them out of
/// the per-group reply table.
struct TakeReplies<'a> {
    table: &'a mut [Vec<Option<BatchReply>>],
    refs: std::slice::Iter<'a, (usize, usize)>,
}

impl Iterator for TakeReplies<'_> {
    type Item = BatchReply;
    fn next(&mut self) -> Option<BatchReply> {
        let &(group, idx) = self.refs.next()?;
        Some(self.table[group][idx].take().expect("each planned reply taken exactly once"))
    }
}

fn reactor_loop<S: KvStore + Send + 'static, P: Poll>(
    mut wake_rx: TcpStream,
    inbox: Arc<Inbox>,
    store: Arc<ShardedStore<S>>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
) {
    let Ok(mut poller) = P::new() else { return };
    let _ = poller.add(wake_rx.as_raw_fd(), WAKE_TOKEN, false);

    let groups = store.shards();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut ready: Vec<u64> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut immediate = false;

    loop {
        let timeout = if immediate { Duration::ZERO } else { POLL_INTERVAL };
        if poller.wait(&mut ready, timeout).is_err() {
            break;
        }
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);

        // Drain the wake channel so level-triggered polling settles.
        if ready.contains(&WAKE_TOKEN) {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }

        // Adopt connections the acceptor pinned to this reactor.
        adopt_new(&inbox, &mut conns, &mut poller, &shared);

        // Read every ready socket. A backpressured connection (write
        // buffer at its bound) is not read: a client that stops
        // draining responses stops being served.
        for &token in &ready {
            if token == WAKE_TOKEN {
                continue;
            }
            let Some(conn) = conns.get_mut(token as usize).and_then(Option::as_mut) else {
                continue;
            };
            if conn.pending_out() < cfg.write_buffer_limit() {
                read_into(conn, &mut chunk, &shared);
            }
        }

        // Decode and plan one window per connection, coalescing every
        // store op across connections into one per-group batch.
        let mut per_group: Vec<Vec<BatchOp>> = (0..groups).map(|_| Vec::new()).collect();
        let mut per_group_spans: Vec<Vec<Arc<SpanCell>>> =
            (0..groups).map(|_| Vec::new()).collect();
        let mut plan: Vec<Planned> = Vec::new();
        let mut op_idxs: Vec<usize> = Vec::new();
        immediate = false;
        for token in 0..conns.len() {
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else { continue };
            if conn.poisoned || conn.pending_out() >= cfg.write_buffer_limit() {
                immediate |= conn.more_buffered;
                continue;
            }
            conn.more_buffered = false;
            // CoDel-style sojourn: how long the decoded-but-unserved
            // window sat in this connection's buffer before the tick
            // got to it.
            let sojourn_ns = conn.read_stamp.elapsed().as_nanos() as u64;
            let mut decoded = 0usize;
            while decoded < cfg.pipeline_window() {
                match proto::decode_request_ref(&conn.rbuf[conn.roff..]) {
                    Ok(Decoded::Frame(consumed, id, (req, meta))) => {
                        op_idxs.push(req.op_index());
                        let span = if meta.trace.sampled && aria_telemetry::enabled() {
                            let s = Arc::new(SpanCell::new(meta.trace.id, req.op_index() as u8));
                            s.stamp(stage::DECODE);
                            Some(s)
                        } else {
                            None
                        };
                        let mut refs = Vec::new();
                        let mut route = |op: BatchOp| {
                            let g = store.shard_of(op.key());
                            refs.push((g, per_group[g].len()));
                            per_group[g].push(op);
                        };
                        let slot = shed_or_plan(
                            &req,
                            meta.deadline_ns,
                            sojourn_ns,
                            cfg.shed_sojourn(),
                            &shared.tele,
                            span.as_deref(),
                            &|k| store.stale_claim(k, meta.routing_epoch),
                            &mut route,
                        );
                        if let Some(s) = &span {
                            if let Some(&(first, _)) = refs.first() {
                                s.set_shard(first as u32);
                                s.set_ops(refs.len() as u64);
                                // Hand the cell to every group executing
                                // its ops so queue/execute stamps land.
                                let mut gs: Vec<usize> = refs.iter().map(|r| r.0).collect();
                                gs.sort_unstable();
                                gs.dedup();
                                for g in gs {
                                    per_group_spans[g].push(Arc::clone(s));
                                }
                            }
                        }
                        plan.push(Planned { token, id, slot, refs, span });
                        conn.roff += consumed;
                        decoded += 1;
                    }
                    Ok(Decoded::Incomplete) => break,
                    Err(e) => {
                        poison(conn, &e);
                        break;
                    }
                }
            }
            if decoded > 0 {
                conn.last_request = Instant::now();
            }
            if decoded == cfg.pipeline_window() {
                // More complete frames may already be buffered; tick
                // again immediately instead of sleeping on the poller
                // (which only fires on *new* socket data).
                conn.more_buffered = true;
                immediate = true;
            }
            conn.compact();
        }

        // Run the whole tick on this thread: one slot-lock hold per
        // shard group.
        if !plan.is_empty() {
            let total_ops: usize = per_group.iter().map(Vec::len).sum();
            let submissions = per_group.iter().filter(|g| !g.is_empty()).count();
            let served: u64 = plan.iter().map(|p| p.slot.served_units()).sum();
            let nreq = plan.len() as u64;
            let start = Instant::now();
            shared.tele.net.inflight.add(nreq);
            let replies: Vec<Vec<BatchReply>> = if submissions > 0 {
                store.run_sharded(per_group, per_group_spans)
            } else {
                (0..groups).map(|_| Vec::new()).collect()
            };
            let mut table: Vec<Vec<Option<BatchReply>>> =
                replies.into_iter().map(|g| g.into_iter().map(Some).collect()).collect();

            shared.ops_served.fetch_add(served, Ordering::Relaxed);
            for Planned { token, id, slot, refs, span } in plan {
                let was_shed = matches!(slot, Slot::Shed(..));
                let mut replies = TakeReplies { table: &mut table, refs: refs.iter() };
                let resp = build_response(slot, &mut replies, &store, &shared);
                if let Some(s) = &span {
                    s.stamp(stage::ENCODE);
                    // Shed spans already carry their verdict; anything
                    // else answering an error frame is marked ERROR.
                    if !was_shed && matches!(resp, proto::Response::Error { .. }) {
                        s.set_outcome(outcome::ERROR);
                    }
                }
                match conns.get_mut(token).and_then(Option::as_mut) {
                    Some(conn) => {
                        encode_or_substitute(&mut conn.wbuf, id, &resp);
                        if let Some(s) = span {
                            conn.unflushed_spans.push(s);
                        }
                    }
                    // Connection already gone: publish what was
                    // captured rather than dropping the span.
                    None => {
                        if let Some(s) = span {
                            shared.tele.traces.publish(&s.to_span());
                        }
                    }
                }
            }
            shared.tele.net.inflight.sub(nreq);
            shared.tele.net.tick_batch_size.observe(total_ops as u64);
            shared.tele.net.reactor_ops.add(total_ops as u64);
            shared.tele.net.reactor_submissions.add(submissions as u64);
            observe_amortized(&shared.tele, start.elapsed().as_nanos() as u64, &op_idxs);
        }

        // Flush phase: push queued bytes, enforce timeouts, and close
        // whatever finished.
        let now = Instant::now();
        for token in 0..conns.len() {
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else { continue };
            let mut close = try_flush(conn, &shared, cfg.write_timeout()).is_err();
            if conn.pending_out() == 0 && !conn.unflushed_spans.is_empty() {
                for s in conn.unflushed_spans.drain(..) {
                    s.stamp(stage::FLUSH);
                    shared.tele.traces.publish(&s.to_span());
                }
            }
            if conn.poisoned && conn.pending_out() == 0 {
                close = true;
            }
            if conn.peer_closed && conn.pending_out() == 0 && !frames_possible(conn) {
                close = true;
            }
            if let Some(deadline) = conn.write_deadline {
                if now >= deadline {
                    // The peer stopped draining responses and the
                    // flush deadline lapsed: a slow-reader disconnect,
                    // observable in METRICS rather than a silent drop.
                    shared.tele.net.conns_disconnected_slow.inc();
                    close = true;
                }
            }
            if let Some(limit) = cfg.read_timeout() {
                if conn.pending_out() == 0 && conn.last_request.elapsed() > limit {
                    shared.tele.net.timed_out_connections.inc();
                    close = true;
                }
            }
            // Keep write interest in sync with pending output.
            let want = conn.pending_out() > 0;
            if !close && want != conn.want_write {
                conn.want_write = want;
                let _ = poller.modify(conn.fd, token as u64, want);
            }
            if close {
                close_conn(&mut conns, token, &mut poller, &shared);
            }
        }

        if shutting_down {
            break;
        }
    }

    // Graceful shutdown: every response already encoded is flushed
    // (blocking, bounded by the write timeout) before sockets close —
    // an acked write is never lost. Buffered-but-undecoded requests
    // are abandoned; their clients observe a clean close.
    for token in 0..conns.len() {
        if let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) {
            if conn.pending_out() > 0 {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(cfg.write_timeout()));
                let pending = conn.pending_out() as u64;
                if conn.stream.write_all(&conn.wbuf[conn.woff..]).is_ok() {
                    shared.tele.net.frame_bytes_out.add(pending);
                }
            }
        }
        close_conn(&mut conns, token, &mut poller, &shared);
    }
    // Anything still queued in the inbox never got served; close it
    // cleanly and release its slot in the connection count.
    if let Ok(mut q) = inbox.queue.lock() {
        for stream in q.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Whether the connection's buffer could still yield a complete frame
/// (or holds a framing error that must be reported).
fn frames_possible(conn: &Conn) -> bool {
    matches!(proto::decode_request_ref(&conn.rbuf[conn.roff..]), Ok(Decoded::Frame(..)) | Err(_))
}

fn adopt_new(
    inbox: &Inbox,
    conns: &mut Vec<Option<Conn>>,
    poller: &mut impl Poll,
    shared: &Shared,
) {
    let fresh: Vec<TcpStream> = match inbox.queue.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(_) => return,
    };
    for stream in fresh {
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            shared.active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let token = conns.iter().position(Option::is_none).unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        if poller.add(fd, token as u64, false).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            shared.active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        conns[token] = Some(Conn {
            stream,
            fd,
            rbuf: Vec::new(),
            roff: 0,
            wbuf: Vec::new(),
            woff: 0,
            want_write: false,
            write_deadline: None,
            last_request: Instant::now(),
            peer_closed: false,
            poisoned: false,
            more_buffered: false,
            unflushed_spans: Vec::new(),
            read_stamp: Instant::now(),
        });
        shared.tele.net.reactor_conns.add(1);
    }
}

/// Drain the socket into the connection's read buffer until it would
/// block (or the peer closes / errors).
fn read_into(conn: &mut Conn, chunk: &mut [u8], shared: &Shared) {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                return;
            }
            Ok(n) => {
                shared.tele.net.frame_bytes_in.add(n as u64);
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.read_stamp = Instant::now();
                if n < chunk.len() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_closed = true;
                return;
            }
        }
    }
}

/// Framing lost: queue the control-id error frame (the valid prefix of
/// the stream was already planned and will be answered first) and mark
/// the connection to close once everything is flushed.
fn poison(conn: &mut Conn, e: &WireError) {
    conn.poisoned = true;
    encode_or_substitute(&mut conn.wbuf, proto::CONTROL_ID, &wire_failure_response(e));
}

/// Write as much pending output as the socket accepts. `WouldBlock`
/// with bytes remaining arms the write deadline; any progress (or a
/// full drain) clears it.
fn try_flush(conn: &mut Conn, shared: &Shared, write_timeout: Duration) -> io::Result<()> {
    while conn.pending_out() > 0 {
        match conn.stream.write(&conn.wbuf[conn.woff..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.woff += n;
                shared.tele.net.frame_bytes_out.add(n as u64);
                conn.write_deadline = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.write_deadline.is_none() {
                    conn.write_deadline = Some(Instant::now() + write_timeout);
                }
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.wbuf.clear();
    conn.woff = 0;
    conn.write_deadline = None;
    Ok(())
}

fn close_conn(conns: &mut [Option<Conn>], token: usize, poller: &mut impl Poll, shared: &Shared) {
    if let Some(conn) = conns[token].take() {
        poller.remove(conn.fd, token as u64);
        let _ = conn.stream.shutdown(Shutdown::Both);
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.tele.net.reactor_conns.sub(1);
        // Spans whose response never drained still describe real work
        // the server did; publish them un-FLUSH-stamped.
        for s in conn.unflushed_spans {
            shared.tele.traces.publish(&s.to_span());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AriaClient, AriaServer, ClientConfig};
    use aria_sim::Enclave;
    use aria_store::{AriaHash, StoreConfig};

    /// The engine over the portable poller serves PUT, GET and PING. A
    /// fallback whose `wait` reported nothing would leave every request
    /// unread, and each op here would time out instead.
    #[test]
    fn fallback_poller_serves_put_get_ping() {
        let store = Arc::new(
            ShardedStore::with_shards(2, |_| {
                AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
            })
            .unwrap(),
        );
        let config = ServerConfig::builder().reactors(2).build().unwrap();
        let server =
            AriaServer::bind_polled::<_, _, fallback::Poller>("127.0.0.1:0", store, config)
                .unwrap();
        let quick = ClientConfig {
            op_timeout: Duration::from_secs(2),
            reconnect_attempts: 1,
            op_deadline: Duration::from_secs(4),
            ..ClientConfig::default()
        };
        let mut client = AriaClient::connect(server.local_addr(), quick).unwrap();
        for i in 0..16u8 {
            client.put(&[b'k', i], &[i; 24]).expect("put over the fallback poller");
        }
        for i in 0..16u8 {
            let got = client.get(&[b'k', i]).expect("get over the fallback poller");
            assert_eq!(got.as_deref(), Some(&[i; 24][..]));
        }
        assert_eq!(client.get(b"absent").expect("get of a missing key"), None);
        client.ping().expect("ping over the fallback poller");
        server.shutdown();
    }
}
