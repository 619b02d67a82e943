//! Open-loop load over raw sockets: requests leave on a fixed burst
//! schedule whether or not earlier replies are back, and every latency
//! is timed from the instant the request was *due*, not from when it
//! was actually written. A stall therefore shows up in the latency of
//! every request scheduled behind it (no coordinated omission).
//!
//! One sender thread and one receiver thread share two connections;
//! frames are built with `proto::encode_request` and parsed with
//! `proto::decode_response_versioned` (no `AriaClient`, whose pipeline
//! call is closed-loop by construction).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aria_net::proto::{self, Decoded};
use aria_workload::Request;

use crate::gen::{Mix, Tally};
use crate::inproc::Lat;
use crate::ladder::{check_wire, to_wire};

/// One burst is due every this many nanoseconds.
pub const BURST_PERIOD_NS: u64 = 250_000;
/// A reply later than this (or missing) misses the latency limit.
pub const SLO_NS: u64 = 1_000_000;
const CONNS: usize = 2;

/// A fixed-rate burst schedule: request `seq` belongs to burst
/// `seq / per_burst`, due `BURST_PERIOD_NS` after the previous burst.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub per_burst: u64,
}

impl Schedule {
    pub fn for_rate(ops_per_s: u64) -> Schedule {
        Schedule { per_burst: (ops_per_s * BURST_PERIOD_NS / 1_000_000_000).max(1) }
    }

    /// Nanoseconds after the schedule's start at which `seq` is due.
    pub fn due_ns(&self, seq: u64) -> u64 {
        seq / self.per_burst * BURST_PERIOD_NS
    }

    /// Latency of `seq` given when its reply arrived. The send time is
    /// deliberately not an input.
    pub fn latency_ns(&self, seq: u64, reply_ns: u64) -> u64 {
        reply_ns.saturating_sub(self.due_ns(seq))
    }
}

pub struct Outcome {
    pub lat: Lat,
    /// How late each burst left, nanoseconds past its due time.
    pub late: Vec<u32>,
    pub tally: Tally,
    /// Replies later than [`SLO_NS`], plus ops that never completed.
    pub slo_misses: u64,
    /// Largest number of requests sent but not yet answered.
    pub backlog_max: u64,
    /// The same, over the first and the second half of the schedule: a
    /// backlog that keeps growing shows as second ≫ first.
    pub backlog_halves: [u64; 2],
}

impl Outcome {
    /// Print sample counts and the schedule's own health: the other
    /// numbers of a phase are only as good as its generator.
    pub fn describe(&mut self, rate: u64) {
        let mut all: Vec<u32> = self.lat.get.iter().chain(&self.lat.put).copied().collect();
        let p = |v: &mut [u32], q| crate::stats::percentile_us(v, q).unwrap_or(f64::NAN);
        println!(
            "# open loop at {rate} ops/s: {} GET + {} PUT samples, p50 {:.0} us p99 {:.0} us; \
             bursts late p50 {:.0} us p99 {:.0} us; backlog max {} ({} then {}); {} missed 1 ms",
            self.lat.get.len(),
            self.lat.put.len(),
            p(&mut all, 0.50),
            p(&mut all, 0.99),
            p(&mut self.late, 0.50),
            p(&mut self.late, 0.99),
            self.backlog_max,
            self.backlog_halves[0],
            self.backlog_halves[1],
            self.slo_misses,
        );
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Block until one of `socks` is readable (or `timeout_ms` passes);
/// returns which are.
fn readable(socks: &[TcpStream; CONNS], timeout_ms: i32) -> [bool; CONNS] {
    let mut fds: [PollFd; CONNS] =
        std::array::from_fn(|i| PollFd { fd: socks[i].as_raw_fd(), events: POLLIN, revents: 0 });
    // SAFETY: `fds` is a live, properly aligned array of CONNS `pollfd`
    // structs (`#[repr(C)]`, the layout poll(2) documents), the count
    // passed is its length, and the descriptors stay open for the call
    // because `socks` is borrowed across it. poll writes only `revents`.
    let n = unsafe { poll(fds.as_mut_ptr(), CONNS as std::ffi::c_ulong, timeout_ms) };
    // Any event (data, hang-up, error) is handed to read(), which
    // reports it properly.
    std::array::from_fn(|i| n > 0 && fds[i].revents != 0)
}

/// Offer `rate` ops/s for `seconds` against the server at `addr`.
pub fn run(addr: SocketAddr, mix: &Mix, seed: u64, rate: u64, seconds: f64) -> Outcome {
    let schedule = Schedule::for_rate(rate);
    let bursts = (seconds * 1e9 / BURST_PERIOD_NS as f64) as u64;
    let total = bursts * schedule.per_burst;
    // Generated up front: the sender's critical path is encode + write.
    let ops: Vec<Request> = mix.stream(seed, 0).take(total as usize).collect();

    let connect = || {
        let sock = TcpStream::connect(addr)
            .unwrap_or_else(|e| crate::fatal(&format!("open-loop connect: {e}")));
        sock.set_nodelay(true).expect("set_nodelay");
        sock
    };
    let rx: [TcpStream; CONNS] = std::array::from_fn(|_| connect());
    let mut tx: [TcpStream; CONNS] =
        std::array::from_fn(|i| rx[i].try_clone().expect("clone socket"));
    let sent = AtomicU64::new(0);
    let epoch = Instant::now() + Duration::from_millis(5);

    let mut out = Outcome {
        lat: Lat::default(),
        late: Vec::new(),
        tally: Tally::default(),
        slo_misses: 0,
        backlog_max: 0,
        backlog_halves: [0; 2],
    };
    let late = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(bursts as usize);
            let mut frames: [Vec<u8>; CONNS] = std::array::from_fn(|_| Vec::with_capacity(4096));
            for burst in 0..bursts {
                let due = epoch + Duration::from_nanos(burst * BURST_PERIOD_NS);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(Instant::now().saturating_duration_since(due).as_nanos() as u32);
                let first = burst * schedule.per_burst;
                for seq in first..first + schedule.per_burst {
                    // Request id 0 is the protocol's control id.
                    let frame = &mut frames[seq as usize % CONNS];
                    proto::encode_request(frame, seq + 1, &to_wire(&ops[seq as usize]))
                        .expect("encode");
                }
                for (sock, frame) in tx.iter_mut().zip(&mut frames) {
                    if sock.write_all(frame).is_err() {
                        return late; // the receiver counts what is missing
                    }
                    frame.clear();
                }
                sent.store(first + schedule.per_burst, Ordering::Relaxed);
            }
            late
        });

        // Receiver (this thread).
        let give_up = epoch + Duration::from_secs_f64(seconds) + Duration::from_secs(5);
        let mut pending: [Vec<u8>; CONNS] = std::array::from_fn(|_| Vec::with_capacity(1 << 16));
        let mut chunk = vec![0u8; 1 << 16];
        let mut received = 0u64;
        'recv: while received < total && Instant::now() < give_up {
            let ready = readable(&rx, 100);
            for conn in 0..CONNS {
                if !ready[conn] {
                    continue;
                }
                let n = match (&rx[conn]).read(&mut chunk) {
                    Ok(0) | Err(_) => break 'recv,
                    Ok(n) => n,
                };
                let now_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
                let buf = &mut pending[conn];
                buf.extend_from_slice(&chunk[..n]);
                let mut pos = 0;
                loop {
                    // No HELLO was sent, so the server speaks the base version.
                    let (used, id, resp) = match proto::decode_response_versioned(
                        &buf[pos..],
                        proto::BASE_PROTOCOL_VERSION,
                    ) {
                        Ok(Decoded::Frame(used, id, resp)) => (used, id, resp),
                        Ok(Decoded::Incomplete) => break,
                        Err(e) => crate::fatal(&format!("open loop: undecodable reply: {e}")),
                    };
                    pos += used;
                    let seq = id.wrapping_sub(1);
                    let Some(req) = ops.get(seq as usize) else {
                        crate::fatal(&format!("open loop: reply for unknown request id {id}"));
                    };
                    let ns = schedule.latency_ns(seq, now_ns);
                    out.slo_misses += u64::from(ns > SLO_NS);
                    let ns = ns.min(u64::from(u32::MAX)) as u32;
                    if req.is_get() {
                        out.lat.get.push(ns);
                    } else {
                        out.lat.put.push(ns);
                    }
                    check_wire(&mut out.tally, req, mix.value_len, resp);
                    received += 1;
                }
                buf.drain(..pos);
            }
            let backlog = sent.load(Ordering::Relaxed).saturating_sub(received);
            out.backlog_max = out.backlog_max.max(backlog);
            let half = usize::from(received >= total / 2);
            out.backlog_halves[half] = out.backlog_halves[half].max(backlog);
        }
        // Unblock a sender stuck in write_all on a dead connection.
        if received < total {
            for sock in &rx {
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
        }
        let missing = total - received;
        out.tally.attempted += missing;
        out.tally.failed += missing;
        out.slo_misses += missing;
        sender.join().expect("open-loop sender panicked")
    });
    out.late = late;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_bursts_at_the_fixed_rate() {
        let lo = Schedule::for_rate(20_000);
        assert_eq!(lo.per_burst, 5);
        assert_eq!(Schedule::for_rate(80_000).per_burst, 20);
        assert_eq!(lo.due_ns(0), 0);
        assert_eq!(lo.due_ns(4), 0);
        assert_eq!(lo.due_ns(5), BURST_PERIOD_NS);
        // 20 000 ops are due over exactly one second.
        assert_eq!(lo.due_ns(20_000), 1_000_000_000);
    }

    /// A receiver that stalls for 10 ms hands over every queued reply
    /// at once. Timed from the due instant, each of those requests
    /// carries the part of the stall it sat through — the earliest the
    /// most — instead of all looking instantaneous, which is what
    /// timing from the (equally stalled) send would report.
    #[test]
    fn a_stall_inflates_the_latency_of_everything_due_behind_it() {
        let s = Schedule::for_rate(20_000);
        let stall_ends = 10_000_000; // ns
        let due_during_stall = s.per_burst * (stall_ends / BURST_PERIOD_NS);
        let lats: Vec<u64> =
            (0..due_during_stall).map(|seq| s.latency_ns(seq, stall_ends)).collect();
        assert_eq!(lats[0], stall_ends);
        assert!(lats.windows(2).all(|w| w[0] >= w[1]), "earlier-due requests waited longer");
        assert_eq!(*lats.last().unwrap(), BURST_PERIOD_NS);
        assert!(lats.iter().all(|&ns| ns >= BURST_PERIOD_NS));
        // A sender that was itself blocked and wrote request `seq` late
        // changes nothing: only the due time and the reply time count.
        let seq = 3 * s.per_burst;
        assert_eq!(s.latency_ns(seq, stall_ends), stall_ends - 3 * BURST_PERIOD_NS);
        // A reply cannot be early.
        assert_eq!(s.latency_ns(seq, 0), 0);
    }
}
