//! Bounded ring-buffer tracer for slow operations.
//!
//! The fast path touches the tracer exactly once: a relaxed load of the
//! threshold to decide whether an op was slow. Only slow ops (by
//! construction rare) take the ring's mutex. The per-stage breakdown is
//! attributed from per-shard metric deltas taken around the op — index
//! probes walked, counters fetched, Merkle levels verified, cache
//! admissions/evictions, and bytes decrypted — which keeps the hot path
//! free of per-stage clock reads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Counter;

/// Operation kinds recorded in a [`SlowOp`]. Stable `u8` encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Point lookup (or a coalesced run of lookups).
    Get = 0,
    /// Insert/update (or a coalesced run of them).
    Put = 1,
    /// Deletion.
    Delete = 2,
    /// Anything else (recovery, audits).
    Other = 3,
}

impl OpKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Delete => "delete",
            OpKind::Other => "other",
        }
    }

    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> OpKind {
        match v {
            0 => OpKind::Get,
            1 => OpKind::Put,
            2 => OpKind::Delete,
            _ => OpKind::Other,
        }
    }
}

/// One traced slow operation with its per-stage breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Monotonic sequence number (tracer-global), for delta filtering.
    pub seq: u64,
    /// Shard the op ran on.
    pub shard: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Hash of the (first) key involved — never the key itself.
    pub key_hash: u64,
    /// Number of ops in the coalesced run this span covers (>= 1).
    pub batch: u32,
    /// Wall time for the run, nanoseconds.
    pub total_nanos: u64,
    /// Index cells (bucket heads / chain `next` pointers) probed.
    pub index_probes: u64,
    /// Counter-cache fetches (hits + misses) performed.
    pub counter_fetches: u64,
    /// Merkle levels walked before verification stopped.
    pub verify_depth: u64,
    /// Cache admissions plus evictions triggered.
    pub cache_admit_evict: u64,
    /// Bytes run through the cipher (seal + open).
    pub crypt_bytes: u64,
}

/// Bounded ring of [`SlowOp`]s. `record` drops the oldest entry once
/// `capacity` is reached and counts the drop.
pub struct SlowOpTracer {
    threshold_nanos: AtomicU64,
    capacity: usize,
    seq: AtomicU64,
    dropped: Counter,
    ring: Mutex<VecDeque<SlowOp>>,
}

/// Default slow-op threshold: 200µs of wall time per (amortized) op.
pub const DEFAULT_SLOW_OP_NANOS: u64 = 200_000;

/// Default ring capacity.
pub const DEFAULT_SLOW_OP_CAPACITY: usize = 256;

impl Default for SlowOpTracer {
    fn default() -> Self {
        Self::new(DEFAULT_SLOW_OP_NANOS, DEFAULT_SLOW_OP_CAPACITY)
    }
}

impl SlowOpTracer {
    /// Tracer keeping the last `capacity` ops slower than
    /// `threshold_nanos`.
    pub fn new(threshold_nanos: u64, capacity: usize) -> Self {
        SlowOpTracer {
            threshold_nanos: AtomicU64::new(threshold_nanos),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: Counter::new(),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Threshold in nanoseconds; ops at or above it should be
    /// [`SlowOpTracer::record`]ed. Returns `u64::MAX` under
    /// `telemetry-off` so the comparison is never true.
    #[inline]
    pub fn threshold_nanos(&self) -> u64 {
        if crate::enabled() {
            self.threshold_nanos.load(Ordering::Relaxed)
        } else {
            u64::MAX
        }
    }

    /// Adjust the threshold at runtime.
    pub fn set_threshold_nanos(&self, nanos: u64) {
        self.threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Append a slow op (slow path only). Never blocks a shard's batch:
    /// if another thread holds the ring mutex the op is dropped and
    /// counted, rather than stalling execution on a diagnostics buffer.
    pub fn record(&self, mut op: SlowOp) {
        if !crate::enabled() {
            return;
        }
        op.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = match self.ring.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.dropped.inc();
                return;
            }
        };
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(op);
    }

    /// Copy of the ring, oldest first, plus the drop count.
    pub fn snapshot(&self) -> (Vec<SlowOp>, u64) {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        (ring.iter().cloned().collect(), self.dropped.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(nanos: u64) -> SlowOp {
        SlowOp {
            seq: 0,
            shard: 0,
            kind: OpKind::Get,
            key_hash: 7,
            batch: 1,
            total_nanos: nanos,
            index_probes: 2,
            counter_fetches: 1,
            verify_depth: 3,
            cache_admit_evict: 1,
            crypt_bytes: 64,
        }
    }

    #[test]
    fn ring_bounds_and_seq() {
        let t = SlowOpTracer::new(100, 3);
        for i in 0..5 {
            t.record(op(1000 + i));
        }
        let (ops, dropped) = t.snapshot();
        if crate::enabled() {
            assert_eq!(ops.len(), 3);
            assert_eq!(dropped, 2);
            assert!(ops.windows(2).all(|w| w[0].seq < w[1].seq));
            assert_eq!(ops.last().unwrap().total_nanos, 1004);
        } else {
            assert!(ops.is_empty());
            assert_eq!(t.threshold_nanos(), u64::MAX);
        }
    }

    #[test]
    fn contended_record_drops_and_counts_instead_of_blocking() {
        if !crate::enabled() {
            return;
        }
        let t = SlowOpTracer::new(100, 8);
        t.record(op(1000));
        // Hold the ring mutex from this thread; a record from another
        // thread must return promptly (drop) rather than deadlock.
        let guard = t.ring.lock().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| t.record(op(2000))).join().unwrap();
        });
        drop(guard);
        let (ops, dropped) = t.snapshot();
        assert_eq!(ops.len(), 1, "contended record must not enqueue");
        assert_eq!(dropped, 1, "contended record must be counted as dropped");
        // Seq still advanced for the dropped op, so later entries sort after it.
        t.record(op(3000));
        let (ops, _) = t.snapshot();
        assert_eq!(ops.last().unwrap().seq, 2);
    }
}
