//! End-to-end request spans: per-stage monotonic timestamps recorded
//! into per-shard lock-free ring buffers.
//!
//! A request that carries a *sampled* trace context (in the data-op
//! wire trailer) gets one [`SpanCell`] allocated at decode time. Every stage
//! the request passes — decode, admission verdict, shard-queue
//! enqueue/dequeue, execute, encode, flush — is one relaxed atomic
//! store of [`clock_nanos`] into the cell; unsampled requests never
//! allocate a cell, so their cost is a branch on an empty `Option`.
//! When the response is flushed the net layer folds the cell into a
//! plain [`Span`] and publishes it into the owning shard's
//! [`TraceRing`], a fixed-capacity multi-writer ring readable without
//! consuming (cursors are reader-side), so the `TRACE` opcode, the
//! flight recorder, and `ariatrace` can all stream the same spans.
//!
//! Like every other telemetry structure, spans are **untrusted state**:
//! they live in ordinary host memory, are not MAC-protected, and are
//! never consulted by verification or admission logic (DESIGN.md §17).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::{Counter, Histogram};

/// Nanoseconds on the process-wide monotonic clock (anchored at the
/// first call). All span stamps share this clock, so cross-thread stage
/// deltas are directly comparable; 0 is reserved for "not stamped".
pub fn clock_nanos() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    (Instant::now().duration_since(anchor).as_nanos() as u64).max(1)
}

/// Span stage indexes, in causal order along the request path.
pub mod stage {
    /// Frame fully decoded off the connection's read buffer.
    pub const DECODE: usize = 0;
    /// Admission verdict reached (admit or shed).
    pub const ADMIT: usize = 1;
    /// Ops submitted to their shard: the wait for its slot lock starts.
    pub const ENQUEUE: usize = 2;
    /// The submitter holds the shard's slot lock.
    pub const DEQUEUE: usize = 3;
    /// Store execution started.
    pub const EXEC_START: usize = 4;
    /// Store execution finished (replies produced).
    pub const EXEC_END: usize = 5;
    /// Response frame encoded into the write buffer.
    pub const ENCODE: usize = 6;
    /// Response bytes flushed to the socket.
    pub const FLUSH: usize = 7;
    /// Number of stages.
    pub const COUNT: usize = 8;
}

/// Stable display names for the stages, index = stage constant.
pub const STAGE_NAMES: [&str; stage::COUNT] =
    ["decode", "admit", "enqueue", "dequeue", "exec_start", "exec_end", "encode", "flush"];

/// Span outcomes (stable `u8` encoding).
pub mod outcome {
    /// Served normally.
    pub const OK: u8 = 0;
    /// Refused by admission control / sojourn shedding.
    pub const SHED: u8 = 1;
    /// Answered with a typed error.
    pub const ERROR: u8 = 2;
}

/// Live stamp target for one sampled in-flight request. The net layer
/// owns the `Arc`; the store borrows it just long enough to stamp the
/// store-side stages. Store-side stamps use `fetch_max` so a request
/// whose ops ran on several shards keeps the *latest* stamp and
/// per-span monotonicity is preserved.
#[derive(Debug)]
pub struct SpanCell {
    /// Wire trace id (client-chosen, nonzero for sampled requests).
    pub trace_id: u64,
    /// Executing shard (set at routing time; first group for
    /// multi-shard batches).
    shard: AtomicU64,
    /// Request op-index (see `aria_net::proto::request_op_index`).
    kind: u8,
    /// Outcome byte (see [`outcome`]).
    outcome: AtomicU64,
    /// Ops covered by this request (1 for point ops, n for batches).
    ops: AtomicU64,
    stages: [AtomicU64; stage::COUNT],
    /// Merkle levels walked during execution (counter delta).
    verify_depth: AtomicU64,
    /// Cold-tier segment reads during execution (counter delta).
    cold_reads: AtomicU64,
    /// Hot-tier cache hits during execution (counter delta).
    hot_hits: AtomicU64,
}

impl SpanCell {
    /// New cell for a sampled request of the given op kind.
    pub fn new(trace_id: u64, kind: u8) -> SpanCell {
        SpanCell {
            trace_id,
            shard: AtomicU64::new(0),
            kind,
            outcome: AtomicU64::new(outcome::OK as u64),
            ops: AtomicU64::new(1),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
            verify_depth: AtomicU64::new(0),
            cold_reads: AtomicU64::new(0),
            hot_hits: AtomicU64::new(0),
        }
    }

    /// Stamp `stage` with "now". One relaxed `fetch_max`, so repeated
    /// stamps (one span can ride several shards' batches) keep the
    /// latest time and a re-stamp can never move a stage backwards.
    #[inline]
    pub fn stamp(&self, stage: usize) {
        self.stages[stage].fetch_max(clock_nanos(), Ordering::Relaxed);
    }

    /// Record which shard executes this request.
    #[inline]
    pub fn set_shard(&self, shard: u32) {
        self.shard.store(shard as u64, Ordering::Relaxed);
    }

    /// Record the op count this request covers.
    #[inline]
    pub fn set_ops(&self, n: u64) {
        self.ops.store(n, Ordering::Relaxed);
    }

    /// Record the outcome byte (see [`outcome`]).
    #[inline]
    pub fn set_outcome(&self, o: u8) {
        self.outcome.store(o as u64, Ordering::Relaxed);
    }

    /// Add execution attribution deltas (accumulating across the
    /// coalesced runs of one batch).
    #[inline]
    pub fn add_attribution(&self, verify_depth: u64, cold_reads: u64, hot_hits: u64) {
        self.verify_depth.fetch_add(verify_depth, Ordering::Relaxed);
        self.cold_reads.fetch_add(cold_reads, Ordering::Relaxed);
        self.hot_hits.fetch_add(hot_hits, Ordering::Relaxed);
    }

    /// Fold the cell into a plain [`Span`] (relaxed loads).
    pub fn to_span(&self) -> Span {
        Span {
            trace_id: self.trace_id,
            shard: self.shard.load(Ordering::Relaxed) as u32,
            kind: self.kind,
            outcome: self.outcome.load(Ordering::Relaxed) as u8,
            ops: self.ops.load(Ordering::Relaxed) as u32,
            stages: std::array::from_fn(|i| self.stages[i].load(Ordering::Relaxed)),
            verify_depth: self.verify_depth.load(Ordering::Relaxed),
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
        }
    }
}

/// One completed request span: plain data, wire-encodable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Wire trace id.
    pub trace_id: u64,
    /// Executing shard.
    pub shard: u32,
    /// Request op-index.
    pub kind: u8,
    /// Outcome byte (see [`outcome`]).
    pub outcome: u8,
    /// Ops covered (1 for point ops).
    pub ops: u32,
    /// [`clock_nanos`] at each stage, index = [`stage`] constant;
    /// 0 = the stage was never reached (e.g. shed before enqueue).
    pub stages: [u64; stage::COUNT],
    /// Merkle levels walked during execution.
    pub verify_depth: u64,
    /// Cold-tier segment reads during execution.
    pub cold_reads: u64,
    /// Hot-tier cache hits during execution.
    pub hot_hits: u64,
}

impl Span {
    /// Whether every stamped stage is in causal order (later stages,
    /// when present, never precede earlier ones). Unstamped stages (0)
    /// are skipped.
    pub fn stages_monotone(&self) -> bool {
        let mut prev = 0u64;
        for &s in &self.stages {
            if s == 0 {
                continue;
            }
            if s < prev {
                return false;
            }
            prev = s;
        }
        true
    }

    /// Nanoseconds spent between `from` and `to` (0 if either stage is
    /// unstamped or out of order).
    pub fn stage_delta(&self, from: usize, to: usize) -> u64 {
        let (a, b) = (self.stages[from], self.stages[to]);
        if a == 0 || b == 0 {
            0
        } else {
            b.saturating_sub(a)
        }
    }

    /// End-to-end nanoseconds (decode → flush; falls back to the last
    /// stamped stage when flush is missing).
    pub fn total_nanos(&self) -> u64 {
        let first = self.stages.iter().copied().find(|&s| s != 0).unwrap_or(0);
        let last = self.stages.iter().copied().filter(|&s| s != 0).max().unwrap_or(0);
        last.saturating_sub(first)
    }

    /// Whether the executing shard read from the cold tier.
    pub fn is_cold(&self) -> bool {
        self.cold_reads > 0
    }
}

/// Words a span packs into inside a ring slot.
const SPAN_WORDS: usize = 2 + stage::COUNT + 3;

fn span_to_words(s: &Span) -> [u64; SPAN_WORDS] {
    let mut w = [0u64; SPAN_WORDS];
    w[0] = s.trace_id;
    w[1] = (s.shard as u64)
        | ((s.kind as u64) << 32)
        | ((s.outcome as u64) << 40)
        | (((s.ops.min(u16::MAX as u32)) as u64) << 48);
    w[2..2 + stage::COUNT].copy_from_slice(&s.stages);
    w[2 + stage::COUNT] = s.verify_depth;
    w[3 + stage::COUNT] = s.cold_reads;
    w[4 + stage::COUNT] = s.hot_hits;
    w
}

fn span_from_words(w: &[u64; SPAN_WORDS]) -> Span {
    Span {
        trace_id: w[0],
        shard: w[1] as u32,
        kind: (w[1] >> 32) as u8,
        outcome: (w[1] >> 40) as u8,
        ops: ((w[1] >> 48) & 0xFFFF) as u32,
        stages: std::array::from_fn(|i| w[2 + i]),
        verify_depth: w[2 + stage::COUNT],
        cold_reads: w[3 + stage::COUNT],
        hot_hits: w[4 + stage::COUNT],
    }
}

struct RingSlot {
    /// Seqlock word: `2*ticket + 1` while the claiming writer is mid
    /// write, `2*ticket + 2` once the payload for `ticket` is complete.
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

/// Fixed-capacity, multi-writer, non-consuming span ring. Writers claim
/// a ticket with one `fetch_add` and publish under a per-slot seqlock
/// (atomics + fences only — the crate forbids `unsafe`); readers keep
/// their own cursor and tolerate being lapped (overwritten spans are
/// simply skipped). Diagnostics-grade: a reader racing a writer drops
/// the torn span rather than returning it.
pub struct TraceRing {
    head: AtomicU64,
    slots: Vec<RingSlot>,
}

/// Default per-shard span ring capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

impl TraceRing {
    /// Ring holding the most recent `capacity` spans.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| RingSlot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Tickets issued so far (== the cursor just past the newest span).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Publish one completed span (lock-free; one `fetch_add` plus the
    /// slot stores).
    pub fn publish(&self, span: &Span) {
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        fence(Ordering::SeqCst);
        for (w, v) in slot.words.iter().zip(span_to_words(span)) {
            w.store(v, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Read every span with ticket in `[cursor, head)` still resident
    /// in the ring, oldest first, without consuming. Returns the spans
    /// and the cursor to resume from. Spans overwritten since `cursor`
    /// (reader lapped) or caught mid-write are skipped.
    pub fn read_since(&self, cursor: u64) -> (Vec<Span>, u64) {
        let head = self.head();
        let cap = self.slots.len() as u64;
        let start = cursor.max(head.saturating_sub(cap));
        let mut spans = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let want = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let mut w = [0u64; SPAN_WORDS];
            for (dst, src) in w.iter_mut().zip(&slot.words) {
                *dst = src.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == want {
                spans.push(span_from_words(&w));
            }
        }
        (spans, head)
    }
}

/// Per-shard span rings plus publish-time aggregates: stage-latency
/// histograms over the *deltas* between consecutive stamped stages, and
/// hot/cold execution counters. Owned by the
/// [`TelemetryHub`](crate::TelemetryHub).
pub struct TraceHub {
    rings: Vec<TraceRing>,
    /// Spans published since start.
    pub spans_recorded: Counter,
    /// Stage-to-stage latency histograms (nanos); index = the *ending*
    /// stage (`stage_nanos[stage::ADMIT]` is decode→admit time, …).
    /// Index [`stage::DECODE`] is unused and stays empty.
    pub stage_nanos: Vec<Histogram>,
    /// Sampled requests that executed with at least one cold read.
    pub cold_spans: Counter,
    /// Sampled requests that executed entirely from the hot tier.
    pub hot_spans: Counter,
}

impl TraceHub {
    /// Hub with one ring of `capacity` spans per shard.
    pub fn new(shards: usize, capacity: usize) -> TraceHub {
        TraceHub {
            rings: (0..shards.max(1)).map(|_| TraceRing::new(capacity)).collect(),
            spans_recorded: Counter::new(),
            stage_nanos: (0..stage::COUNT).map(|_| Histogram::new()).collect(),
            cold_spans: Counter::new(),
            hot_spans: Counter::new(),
        }
    }

    /// Number of rings (== shards).
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// The ring for `shard` (modulo the ring count, so a routing layer
    /// with more groups than rings still lands somewhere).
    pub fn ring(&self, shard: u32) -> &TraceRing {
        &self.rings[shard as usize % self.rings.len()]
    }

    /// Publish a completed span into its shard's ring and fold its
    /// stage deltas into the aggregate histograms. Not a hot path: only
    /// sampled requests reach it.
    pub fn publish(&self, span: &Span) {
        if !crate::enabled() {
            return;
        }
        self.ring(span.shard).publish(span);
        self.spans_recorded.inc();
        let mut prev = 0u64;
        for (i, &s) in span.stages.iter().enumerate() {
            if s == 0 {
                continue;
            }
            if prev != 0 {
                self.stage_nanos[i].observe(s.saturating_sub(prev));
            }
            prev = s;
        }
        if span.stages[stage::EXEC_END] != 0 {
            if span.is_cold() {
                self.cold_spans.inc();
            } else {
                self.hot_spans.inc();
            }
        }
    }

    /// Read every ring since the matching cursor (missing/extra cursors
    /// are treated as 0), returning all spans plus the new cursors.
    pub fn read_since(&self, cursors: &[u64]) -> (Vec<Span>, Vec<u64>) {
        let mut spans = Vec::new();
        let mut next = Vec::with_capacity(self.rings.len());
        for (i, ring) in self.rings.iter().enumerate() {
            let (mut s, n) = ring.read_since(cursors.get(i).copied().unwrap_or(0));
            spans.append(&mut s);
            next.push(n);
        }
        (spans, next)
    }

    /// Plain-data summary for the METRICS snapshot.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            spans_recorded: self.spans_recorded.get(),
            cold_spans: self.cold_spans.get(),
            hot_spans: self.hot_spans.get(),
            stage_nanos: self.stage_nanos.iter().map(|h| h.snapshot()).collect(),
        }
    }
}

/// Plain-data aggregate of the tracing plane, carried in the `traces`
/// section of [`TelemetrySnapshot`](crate::TelemetrySnapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Spans published since start.
    pub spans_recorded: u64,
    /// Sampled requests whose execution touched the cold tier.
    pub cold_spans: u64,
    /// Sampled requests served entirely from the hot tier.
    pub hot_spans: u64,
    /// Stage-to-stage latency histograms (nanos), one per stage; the
    /// histogram at index `i` holds the time from the previous stamped
    /// stage to stage `i` (index 0 unused).
    pub stage_nanos: Vec<crate::HistSnapshot>,
}

impl Default for TraceSummary {
    fn default() -> Self {
        TraceSummary {
            spans_recorded: 0,
            cold_spans: 0,
            hot_spans: 0,
            stage_nanos: (0..stage::COUNT).map(|_| crate::HistSnapshot::empty()).collect(),
        }
    }
}

impl TraceSummary {
    /// Spans recorded since `earlier` (saturating field-wise delta).
    pub fn delta(&self, earlier: &TraceSummary) -> TraceSummary {
        TraceSummary {
            spans_recorded: self.spans_recorded.saturating_sub(earlier.spans_recorded),
            cold_spans: self.cold_spans.saturating_sub(earlier.cold_spans),
            hot_spans: self.hot_spans.saturating_sub(earlier.hot_spans),
            stage_nanos: self
                .stage_nanos
                .iter()
                .zip(&earlier.stage_nanos)
                .map(|(a, b)| a.delta(b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(trace_id: u64, shard: u32) -> Span {
        let mut stages = [0u64; stage::COUNT];
        for (i, s) in stages.iter_mut().enumerate() {
            *s = 100 + i as u64 * 10;
        }
        Span {
            trace_id,
            shard,
            kind: 1,
            outcome: outcome::OK,
            ops: 1,
            stages,
            verify_depth: 3,
            cold_reads: 0,
            hot_hits: 1,
        }
    }

    #[test]
    fn clock_is_monotone_and_nonzero() {
        let a = clock_nanos();
        let b = clock_nanos();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn cell_stamps_are_monotone_and_fold_to_span() {
        let cell = SpanCell::new(42, 1);
        cell.set_shard(3);
        for st in 0..stage::COUNT {
            cell.stamp(st);
        }
        cell.add_attribution(5, 0, 2);
        let s = cell.to_span();
        assert_eq!(s.trace_id, 42);
        assert_eq!(s.shard, 3);
        assert!(s.stages.iter().all(|&v| v != 0));
        assert!(s.stages_monotone(), "{:?}", s.stages);
        assert_eq!(s.verify_depth, 5);
        assert_eq!(s.hot_hits, 2);
        // A racing re-stamp can only move a stage forward.
        let frozen = s.stages[stage::ADMIT];
        cell.stamp(stage::ADMIT);
        assert!(cell.to_span().stages[stage::ADMIT] >= frozen);
    }

    #[test]
    fn ring_round_trips_and_laps() {
        let ring = TraceRing::new(4);
        for i in 0..3 {
            ring.publish(&span(i, 0));
        }
        let (spans, cur) = ring.read_since(0);
        assert_eq!(spans.len(), 3);
        assert_eq!(cur, 3);
        assert_eq!(spans[0], span(0, 0));
        // Nothing new: the cursor holds.
        let (spans, cur2) = ring.read_since(cur);
        assert!(spans.is_empty());
        assert_eq!(cur2, cur);
        // Lap the ring: only the newest `capacity` survive.
        for i in 3..11 {
            ring.publish(&span(i, 0));
        }
        let (spans, cur3) = ring.read_since(cur);
        assert_eq!(cur3, 11);
        assert_eq!(spans.len(), 4, "lapped reader sees only resident spans");
        assert_eq!(spans.last().unwrap().trace_id, 10);
    }

    #[test]
    fn concurrent_publishers_never_yield_torn_spans() {
        let ring = Arc::new(TraceRing::new(8));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        // Every word of a writer's span encodes the
                        // writer id, so a torn mix is detectable.
                        let mut s = span(w * 10_000 + i, w as u32);
                        s.stages = [w * 10_000 + i + 1; stage::COUNT];
                        s.verify_depth = w * 10_000 + i + 1;
                        ring.publish(&s);
                    }
                })
            })
            .collect();
        let mut cursor = 0;
        for _ in 0..200 {
            let (spans, next) = ring.read_since(cursor);
            cursor = next;
            for s in spans {
                assert_eq!(
                    s.stages[0], s.verify_depth,
                    "torn span: stages from one writer, attribution from another"
                );
                assert_eq!(s.trace_id + 1, s.verify_depth, "torn span header");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn hub_publishes_aggregates_and_reads_all_rings() {
        let hub = TraceHub::new(2, 8);
        let mut cold = span(1, 0);
        cold.cold_reads = 2;
        hub.publish(&cold);
        hub.publish(&span(2, 1));
        let (spans, cursors) = hub.read_since(&[]);
        if crate::enabled() {
            assert_eq!(spans.len(), 2);
            assert_eq!(cursors, vec![1, 1]);
            let sum = hub.summary();
            assert_eq!(sum.spans_recorded, 2);
            assert_eq!(sum.cold_spans, 1);
            assert_eq!(sum.hot_spans, 1);
            // Consecutive stamps are 10ns apart in the fixture.
            assert_eq!(sum.stage_nanos[stage::ADMIT].count(), 2);
            assert_eq!(sum.stage_nanos[stage::ADMIT].percentile(0.5), bucket_mid_of(10));
            let d = sum.delta(&sum);
            assert_eq!(d.spans_recorded, 0);
            assert_eq!(d.stage_nanos[stage::ADMIT].count(), 0);
        } else {
            assert!(spans.is_empty());
        }
    }

    fn bucket_mid_of(v: u64) -> u64 {
        crate::bucket_mid(crate::bucket_of(v))
    }

    #[test]
    fn monotonicity_helpers() {
        let mut s = span(1, 0);
        assert!(s.stages_monotone());
        assert_eq!(s.stage_delta(stage::DECODE, stage::FLUSH), 70);
        assert_eq!(s.total_nanos(), 70);
        s.stages[stage::DEQUEUE] = 0; // unstamped stages are skipped
        assert!(s.stages_monotone());
        s.stages[stage::ENCODE] = 5;
        assert!(!s.stages_monotone());
    }
}
