//! Versioned binary encoding of [`TelemetrySnapshot`] for the wire
//! (`METRICS` opcode).
//!
//! Layout: little-endian, magic `ATEL`, `u32` version, then the
//! sections in a fixed order. Histograms are encoded with trailing
//! zero buckets trimmed (`u32` count then that many `u64`s, then the
//! `u64` sum). The layout carries no self-describing field tags —
//! [`SNAPSHOT_VERSION`](crate::SNAPSHOT_VERSION) must be bumped on any
//! change, and decoders reject unknown versions.

use crate::hub::{
    CacheSnapshot, ChaosSnapshot, HealthTransition, MemSnapshot, MerkleSnapshot, NetSnapshot,
    ReplicaServing, ServingSnapshot, ShardSnapshot, StoreSnapshot, TelemetrySnapshot, FAULT_SITES,
    NET_OPS, SNAPSHOT_VERSION, VIOLATION_CLASSES,
};
use crate::metrics::{HistSnapshot, BUCKETS};
use crate::span::{stage, Attribution, Span, TraceSummary};

/// Magic prefix of an encoded snapshot.
pub const MAGIC: [u8; 4] = *b"ATEL";

/// Magic prefix of an encoded span stream (`TRACE` opcode payload).
pub const SPANS_MAGIC: [u8; 4] = *b"ATRC";

/// Version of the span-stream layout. v2 carries all seven
/// [`Attribution`] counters per span (v1 carried three).
const SPANS_VERSION: u32 = 2;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the layout did.
    Truncated,
    /// Magic prefix missing.
    BadMagic,
    /// Unknown snapshot version.
    BadVersion(u32),
    /// Bytes left over after the layout ended, or a length field
    /// exceeded sane bounds.
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "telemetry snapshot truncated"),
            CodecError::BadMagic => write!(f, "telemetry snapshot magic mismatch"),
            CodecError::BadVersion(v) => write!(f, "unknown telemetry snapshot version {v}"),
            CodecError::Malformed => write!(f, "malformed telemetry snapshot"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_hist(b: &mut Vec<u8>, h: &HistSnapshot) {
    let n = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    put_u32(b, n as u32);
    for &c in &h.buckets[..n] {
        put_u64(b, c);
    }
    put_u64(b, h.sum);
}

fn put_counters(b: &mut Vec<u8>, cs: &[u64]) {
    put_u32(b, cs.len() as u32);
    for &c in cs {
        put_u64(b, c);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.at + n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn hist(&mut self) -> Result<HistSnapshot, CodecError> {
        let n = self.u32()? as usize;
        if n > BUCKETS {
            return Err(CodecError::Malformed);
        }
        let mut buckets = vec![0u64; BUCKETS];
        for slot in buckets.iter_mut().take(n) {
            *slot = self.u64()?;
        }
        let sum = self.u64()?;
        Ok(HistSnapshot { buckets, sum })
    }

    fn counters(&mut self, expect: usize) -> Result<Vec<u64>, CodecError> {
        let n = self.u32()? as usize;
        if n != expect {
            return Err(CodecError::Malformed);
        }
        (0..n).map(|_| self.u64()).collect()
    }

    fn finished(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Sanity ceiling on decoded collection lengths (shards, events).
const MAX_LIST: usize = 1 << 20;

impl TelemetrySnapshot {
    /// Encode to the versioned wire form. Debug builds validate the
    /// counter invariants first.
    pub fn encode(&self) -> Vec<u8> {
        self.debug_validate();
        let mut b = Vec::with_capacity(4096);
        b.extend_from_slice(&MAGIC);
        put_u32(&mut b, self.version);
        put_u64(&mut b, self.unix_millis);
        put_u32(&mut b, self.shards.len() as u32);
        for s in &self.shards {
            encode_shard(&mut b, s);
        }
        encode_net(&mut b, &self.net);
        put_counters(&mut b, &self.chaos.injected);
        encode_traces(&mut b, &self.traces);
        encode_serving(&mut b, &self.serving);
        b
    }

    /// Decode the versioned wire form.
    pub fn decode(buf: &[u8]) -> Result<TelemetrySnapshot, CodecError> {
        let mut c = Cursor { buf, at: 0 };
        if c.take(4)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = c.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let unix_millis = c.u64()?;
        let nshards = c.u32()? as usize;
        if nshards > MAX_LIST {
            return Err(CodecError::Malformed);
        }
        let shards = (0..nshards).map(|_| decode_shard(&mut c)).collect::<Result<Vec<_>, _>>()?;
        let net = decode_net(&mut c)?;
        let chaos = ChaosSnapshot { injected: c.counters(FAULT_SITES)? };
        let traces = decode_traces(&mut c)?;
        let serving = decode_serving(&mut c)?;
        if !c.finished() {
            return Err(CodecError::Malformed);
        }
        Ok(TelemetrySnapshot { version, unix_millis, shards, net, chaos, traces, serving })
    }
}

fn encode_traces(b: &mut Vec<u8>, t: &TraceSummary) {
    put_u64(b, t.spans_recorded);
    put_u64(b, t.tail_spans);
    put_u64(b, t.cold_spans);
    put_u64(b, t.hot_spans);
    put_u32(b, t.stage_nanos.len() as u32);
    for h in &t.stage_nanos {
        put_hist(b, h);
    }
}

fn decode_traces(c: &mut Cursor<'_>) -> Result<TraceSummary, CodecError> {
    let spans_recorded = c.u64()?;
    let tail_spans = c.u64()?;
    let cold_spans = c.u64()?;
    let hot_spans = c.u64()?;
    let nstages = c.u32()? as usize;
    if nstages != stage::COUNT {
        return Err(CodecError::Malformed);
    }
    let stage_nanos = (0..nstages).map(|_| c.hist()).collect::<Result<Vec<_>, _>>()?;
    Ok(TraceSummary { spans_recorded, tail_spans, cold_spans, hot_spans, stage_nanos })
}

fn encode_serving(b: &mut Vec<u8>, s: &ServingSnapshot) {
    for v in [s.ops_served, s.open_connections, s.accepted_connections, s.len_estimate] {
        put_u64(b, v);
    }
    b.push(s.degraded as u8);
    put_u64(b, s.shed_ops_total);
    put_u32(b, s.replicas.len() as u32);
    for r in &s.replicas {
        b.push(r.state);
        b.push(r.role);
        for v in [r.lag, r.violations, r.recoveries] {
            put_u64(b, v);
        }
    }
}

fn decode_serving(c: &mut Cursor<'_>) -> Result<ServingSnapshot, CodecError> {
    let (ops_served, open_connections, accepted_connections) = (c.u64()?, c.u64()?, c.u64()?);
    let (len_estimate, degraded, shed_ops_total) = (c.u64()?, c.u8()? != 0, c.u64()?);
    let n = c.u32()? as usize;
    if n > MAX_LIST {
        return Err(CodecError::Malformed);
    }
    let replicas = (0..n)
        .map(|_| {
            Ok(ReplicaServing {
                state: c.u8()?,
                role: c.u8()?,
                lag: c.u64()?,
                violations: c.u64()?,
                recoveries: c.u64()?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(ServingSnapshot {
        ops_served,
        open_connections,
        accepted_connections,
        len_estimate,
        degraded,
        shed_ops_total,
        replicas,
    })
}

fn encode_span(b: &mut Vec<u8>, s: &Span) {
    put_u64(b, s.trace_id);
    put_u32(b, s.shard);
    b.push(s.kind);
    b.push(s.outcome);
    put_u32(b, s.ops);
    for v in s.stages.into_iter().chain(s.attribution.to_words()) {
        put_u64(b, v);
    }
}

fn decode_span(c: &mut Cursor<'_>) -> Result<Span, CodecError> {
    let trace_id = c.u64()?;
    let shard = c.u32()?;
    let kind = c.u8()?;
    let outcome = c.u8()?;
    let ops = c.u32()?;
    let mut stages = [0u64; stage::COUNT];
    for st in stages.iter_mut() {
        *st = c.u64()?;
    }
    let mut attribution = [0u64; Attribution::WORDS];
    for a in attribution.iter_mut() {
        *a = c.u64()?;
    }
    Ok(Span {
        trace_id,
        shard,
        kind,
        outcome,
        ops,
        stages,
        attribution: Attribution::from_words(attribution),
    })
}

/// Encode a span stream plus the per-ring resume cursors (the `TRACE`
/// opcode's mode-0 payload).
pub fn encode_spans(spans: &[Span], cursors: &[u64]) -> Vec<u8> {
    let mut b = Vec::with_capacity(16 + spans.len() * 128);
    b.extend_from_slice(&SPANS_MAGIC);
    put_u32(&mut b, SPANS_VERSION);
    put_u32(&mut b, cursors.len() as u32);
    for &cur in cursors {
        put_u64(&mut b, cur);
    }
    put_u32(&mut b, spans.len() as u32);
    for s in spans {
        encode_span(&mut b, s);
    }
    b
}

/// Decode a span stream: the spans and the per-ring resume cursors.
pub fn decode_spans(buf: &[u8]) -> Result<(Vec<Span>, Vec<u64>), CodecError> {
    let mut c = Cursor { buf, at: 0 };
    if c.take(4)? != SPANS_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = c.u32()?;
    if version != SPANS_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let ncur = c.u32()? as usize;
    if ncur > MAX_LIST {
        return Err(CodecError::Malformed);
    }
    let cursors = (0..ncur).map(|_| c.u64()).collect::<Result<Vec<_>, _>>()?;
    let nspans = c.u32()? as usize;
    if nspans > MAX_LIST {
        return Err(CodecError::Malformed);
    }
    let spans = (0..nspans).map(|_| decode_span(&mut c)).collect::<Result<Vec<_>, _>>()?;
    if !c.finished() {
        return Err(CodecError::Malformed);
    }
    Ok((spans, cursors))
}

fn encode_shard(b: &mut Vec<u8>, s: &ShardSnapshot) {
    let c = &s.cache;
    for v in [
        c.hits,
        c.misses,
        c.inserts,
        c.evictions,
        c.writebacks,
        c.clean_discards,
        c.swap_bytes_in,
        c.swap_bytes_out,
        c.swap_stops,
        c.swap_starts,
    ] {
        put_u64(b, v);
    }
    put_hist(b, &c.verify_depth);
    put_u64(b, s.merkle.hash_ops);
    put_u64(b, s.merkle.verified_nodes);
    let m = &s.mem;
    for v in [m.allocs, m.frees, m.alloc_bytes, m.freed_bytes, m.live_bytes, m.free_buffer_bytes] {
        put_u64(b, v);
    }
    let st = &s.store;
    put_hist(b, &st.get_latency);
    put_hist(b, &st.put_latency);
    put_hist(b, &st.delete_latency);
    put_hist(b, &st.batch_size);
    for v in [st.index_probes, st.keys_live, st.counter_live, st.counter_capacity] {
        put_u64(b, v);
    }
    put_counters(b, &st.violations);
    put_u64(b, st.failovers);
    put_u64(b, st.resyncs);
    put_hist(b, &st.resync_bytes);
    put_u64(b, st.hot_entries);
    put_u64(b, st.cold_entries);
    put_u64(b, st.migrations);
    put_u64(b, st.compactions);
    put_u64(b, st.checkpoints);
    put_hist(b, &st.cold_read_latency);
    put_u64(b, st.admission_shed);
    put_u64(b, st.watchdog_quarantines);
    put_u64(b, st.queue_delay_ns);
    put_u64(b, st.routing_epoch);
    put_u64(b, st.migration_state);
    put_u64(b, st.reshards_started);
    put_u64(b, st.reshards_committed);
    put_u64(b, st.reshards_aborted);
    put_u32(b, st.health_events.len() as u32);
    for e in &st.health_events {
        put_u64(b, e.seq);
        put_u64(b, e.unix_millis);
        b.push(e.from);
        b.push(e.to);
    }
}

fn decode_shard(c: &mut Cursor<'_>) -> Result<ShardSnapshot, CodecError> {
    let cache = CacheSnapshot {
        hits: c.u64()?,
        misses: c.u64()?,
        inserts: c.u64()?,
        evictions: c.u64()?,
        writebacks: c.u64()?,
        clean_discards: c.u64()?,
        swap_bytes_in: c.u64()?,
        swap_bytes_out: c.u64()?,
        swap_stops: c.u64()?,
        swap_starts: c.u64()?,
        verify_depth: c.hist()?,
    };
    let merkle = MerkleSnapshot { hash_ops: c.u64()?, verified_nodes: c.u64()? };
    let mem = MemSnapshot {
        allocs: c.u64()?,
        frees: c.u64()?,
        alloc_bytes: c.u64()?,
        freed_bytes: c.u64()?,
        live_bytes: c.u64()?,
        free_buffer_bytes: c.u64()?,
    };
    let get_latency = c.hist()?;
    let put_latency = c.hist()?;
    let delete_latency = c.hist()?;
    let batch_size = c.hist()?;
    let index_probes = c.u64()?;
    let keys_live = c.u64()?;
    let counter_live = c.u64()?;
    let counter_capacity = c.u64()?;
    let violations = c.counters(VIOLATION_CLASSES)?;
    let failovers = c.u64()?;
    let resyncs = c.u64()?;
    let resync_bytes = c.hist()?;
    let hot_entries = c.u64()?;
    let cold_entries = c.u64()?;
    let migrations = c.u64()?;
    let compactions = c.u64()?;
    let checkpoints = c.u64()?;
    let cold_read_latency = c.hist()?;
    let admission_shed = c.u64()?;
    let watchdog_quarantines = c.u64()?;
    let queue_delay_ns = c.u64()?;
    let routing_epoch = c.u64()?;
    let migration_state = c.u64()?;
    let reshards_started = c.u64()?;
    let reshards_committed = c.u64()?;
    let reshards_aborted = c.u64()?;
    let nev = c.u32()? as usize;
    if nev > MAX_LIST {
        return Err(CodecError::Malformed);
    }
    let mut health_events = Vec::with_capacity(nev);
    for _ in 0..nev {
        health_events.push(HealthTransition {
            seq: c.u64()?,
            unix_millis: c.u64()?,
            from: c.u8()?,
            to: c.u8()?,
        });
    }
    Ok(ShardSnapshot {
        cache,
        merkle,
        mem,
        store: StoreSnapshot {
            get_latency,
            put_latency,
            delete_latency,
            batch_size,
            index_probes,
            keys_live,
            counter_live,
            counter_capacity,
            violations,
            failovers,
            resyncs,
            resync_bytes,
            hot_entries,
            cold_entries,
            migrations,
            compactions,
            checkpoints,
            cold_read_latency,
            admission_shed,
            watchdog_quarantines,
            queue_delay_ns,
            routing_epoch,
            migration_state,
            reshards_started,
            reshards_committed,
            reshards_aborted,
            health_events,
        },
    })
}

fn encode_net(b: &mut Vec<u8>, n: &NetSnapshot) {
    put_u32(b, n.op_latency.len() as u32);
    for h in &n.op_latency {
        put_hist(b, h);
    }
    for v in [
        n.inflight,
        n.frame_bytes_in,
        n.frame_bytes_out,
        n.rejected_connections,
        n.timed_out_connections,
        n.reactor_conns,
    ] {
        put_u64(b, v);
    }
    put_hist(b, &n.tick_batch_size);
    put_u64(b, n.reactor_ops);
    put_u64(b, n.reactor_submissions);
    put_u64(b, n.conns_disconnected_slow);
    put_u64(b, n.ops_shed_deadline);
    put_u64(b, n.ops_shed_overload);
}

fn decode_net(c: &mut Cursor<'_>) -> Result<NetSnapshot, CodecError> {
    let nops = c.u32()? as usize;
    if nops != NET_OPS {
        return Err(CodecError::Malformed);
    }
    let op_latency = (0..nops).map(|_| c.hist()).collect::<Result<Vec<_>, _>>()?;
    Ok(NetSnapshot {
        op_latency,
        inflight: c.u64()?,
        frame_bytes_in: c.u64()?,
        frame_bytes_out: c.u64()?,
        rejected_connections: c.u64()?,
        timed_out_connections: c.u64()?,
        reactor_conns: c.u64()?,
        tick_batch_size: c.hist()?,
        reactor_ops: c.u64()?,
        reactor_submissions: c.u64()?,
        conns_disconnected_slow: c.u64()?,
        ops_shed_deadline: c.u64()?,
        ops_shed_overload: c.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryHub;

    fn busy_snapshot() -> TelemetrySnapshot {
        let hub = TelemetryHub::with_shards(2);
        hub.shards[0].cache.hits.add(100);
        hub.shards[0].cache.misses.add(7);
        hub.shards[0].cache.verify_depth.observe(3);
        hub.shards[0].cache.verify_depth.observe(5);
        hub.shards[1].store.get_latency.observe(1234);
        hub.shards[1].store.record_health_transition(0, 1);
        hub.shards[1].store.record_violation(2);
        hub.shards[1].store.failovers.inc();
        hub.shards[1].store.resyncs.inc();
        hub.shards[1].store.resync_bytes.observe(8192);
        hub.shards[1].store.hot_entries.set(100);
        hub.shards[1].store.cold_entries.set(900);
        hub.shards[1].store.migrations.add(40);
        hub.shards[1].store.compactions.inc();
        hub.shards[1].store.checkpoints.add(3);
        hub.shards[1].store.cold_read_latency.observe(45_000);
        hub.shards[1].store.admission_shed.add(23);
        hub.shards[1].store.watchdog_quarantines.inc();
        hub.shards[1].store.queue_delay_ns.set(2_500_000);
        hub.shards[1].store.routing_epoch.set(3);
        hub.shards[1].store.migration_state.set(1);
        hub.shards[1].store.reshards_started.add(2);
        hub.shards[1].store.reshards_committed.inc();
        hub.shards[1].store.reshards_aborted.inc();
        hub.net.op_latency[1].observe(999);
        hub.net.frame_bytes_in.add(4096);
        hub.net.reactor_conns.set(3);
        hub.net.tick_batch_size.observe(17);
        hub.net.reactor_ops.add(17);
        hub.net.reactor_submissions.add(2);
        hub.net.conns_disconnected_slow.inc();
        hub.net.ops_shed_deadline.add(4);
        hub.net.ops_shed_overload.add(9);
        hub.chaos.record_injection(3);
        hub.chaos.record_injection(7);
        hub.traces.publish(&sample_span(7, 1));
        hub.traces.publish_tail(&Span::tail(1, 2, 4, 10, 500_010, sample_attribution()));
        let mut snap = hub.snapshot();
        snap.serving = ServingSnapshot {
            ops_served: 77,
            open_connections: 2,
            accepted_connections: 5,
            len_estimate: 1_000,
            degraded: true,
            shed_ops_total: 23,
            replicas: vec![
                ReplicaServing { state: 0, role: 0, lag: 0, violations: 0, recoveries: 0 },
                ReplicaServing { state: 2, role: 1, lag: 12, violations: 1, recoveries: 3 },
            ],
        };
        snap
    }

    fn sample_span(trace_id: u64, shard: u32) -> Span {
        let mut stages = [0u64; stage::COUNT];
        for (i, s) in stages.iter_mut().enumerate() {
            *s = 1_000 + i as u64 * 250;
        }
        Span {
            trace_id,
            shard,
            kind: 2,
            outcome: 0,
            ops: 3,
            stages,
            attribution: sample_attribution(),
        }
    }

    fn sample_attribution() -> Attribution {
        Attribution {
            index_probes: 9,
            counter_fetches: 4,
            verify_depth: 6,
            cache_admit_evict: 2,
            crypt_bytes: 256,
            cold_reads: 1,
            hot_hits: 2,
        }
    }

    #[test]
    fn round_trip() {
        let s = busy_snapshot();
        let bytes = s.encode();
        let back = TelemetrySnapshot::decode(&bytes).expect("decode");
        assert_eq!(back, s);
        // The serving section is filled by the server, not a recorder:
        // it round-trips under `telemetry-off` too.
        assert_eq!(back.serving.replicas[1].lag, 12);
        if crate::enabled() {
            assert_eq!(back.traces.tail_spans, 1);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(TelemetrySnapshot::decode(b"nope").unwrap_err(), CodecError::BadMagic);
        let s = busy_snapshot();
        let mut bytes = s.encode();
        bytes[4] = 99; // version
        assert!(matches!(
            TelemetrySnapshot::decode(&bytes).unwrap_err(),
            CodecError::BadVersion(_)
        ));
        let mut truncated = s.encode();
        truncated.truncate(truncated.len() - 3);
        assert_eq!(TelemetrySnapshot::decode(&truncated).unwrap_err(), CodecError::Truncated);
        let mut trailing = s.encode();
        trailing.push(0);
        assert_eq!(TelemetrySnapshot::decode(&trailing).unwrap_err(), CodecError::Malformed);
    }

    #[test]
    fn spans_round_trip() {
        let mut spans: Vec<Span> = (0..5).map(|i| sample_span(i + 1, i as u32 % 2)).collect();
        spans.push(Span::tail(0, 1, 70_000, 10, 20, sample_attribution()));
        let cursors = vec![3u64, 2, 1];
        let bytes = encode_spans(&spans, &cursors);
        let (back, cur) = decode_spans(&bytes).expect("decode");
        assert_eq!(back, spans);
        assert_eq!(cur, cursors);
        // Empty stream round-trips too.
        let (back, cur) = decode_spans(&encode_spans(&[], &[])).expect("decode empty");
        assert!(back.is_empty());
        assert!(cur.is_empty());
    }

    #[test]
    fn spans_reject_garbage() {
        assert_eq!(decode_spans(b"nope").unwrap_err(), CodecError::BadMagic);
        let bytes = encode_spans(&[sample_span(1, 0)], &[1]);
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(decode_spans(&bad_version).unwrap_err(), CodecError::BadVersion(_)));
        let mut truncated = bytes.clone();
        truncated.truncate(truncated.len() - 1);
        assert_eq!(decode_spans(&truncated).unwrap_err(), CodecError::Truncated);
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(decode_spans(&trailing).unwrap_err(), CodecError::Malformed);
    }
}
