//! Black-box flight recorder: a bounded ring of recent system events
//! (quarantines, failovers, re-syncs, shed spikes, watchdog fires,
//! checkpoints) plus a JSON post-mortem renderer that bundles those
//! events with the most recent spans (head-sampled and tail).
//!
//! The recorder never touches a request hot path. A watcher (the
//! server's recorder thread) polls [`TelemetrySnapshot`]s at a coarse
//! interval and feeds consecutive pairs to [`FlightRecorder::observe`];
//! counter *deltas* between the two snapshots become events, and the
//! anomalous ones become triggers. When a trigger fires (or an operator
//! asks via `SIGUSR1` / the `TRACE` wire opcode), the owner renders a
//! [`FlightRecorder::render_dump`] — the last N seconds of causality as
//! one JSON document — and, for triggers, writes it to the configured
//! dump directory, rate-limited so a flapping shard cannot flood disk.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hub::{unix_millis, TelemetrySnapshot};
use crate::metrics::Counter;
use crate::span::{Attribution, Span, STAGE_NAMES};

/// Kinds of system events the recorder tracks. Stable `u8` encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightEventKind {
    /// A shard replica entered quarantine (violations detected).
    Quarantine = 0,
    /// A backup was promoted to primary (failover).
    Promotion = 1,
    /// A replica completed a verified anti-entropy re-sync.
    Resync = 2,
    /// Data ops were shed (admission refusals + sojourn sheds).
    Shed = 3,
    /// The stuck-shard watchdog quarantined a shard.
    Watchdog = 4,
    /// A shard checkpointed its cold log.
    Checkpoint = 5,
    /// Operator-requested dump (SIGUSR1 or wire request).
    Manual = 6,
    /// A reshard migration started (routine, never an anomaly).
    ReshardStart = 7,
    /// A reshard migration committed its epoch flip (routine).
    ReshardCommit = 8,
    /// A reshard migration aborted — the old routing epoch keeps
    /// serving; the abort's post-mortem is the dump trigger.
    ReshardAbort = 9,
}

impl FlightEventKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Quarantine => "quarantine",
            FlightEventKind::Promotion => "promotion",
            FlightEventKind::Resync => "resync",
            FlightEventKind::Shed => "shed",
            FlightEventKind::Watchdog => "watchdog",
            FlightEventKind::Checkpoint => "checkpoint",
            FlightEventKind::Manual => "manual",
            FlightEventKind::ReshardStart => "reshard_start",
            FlightEventKind::ReshardCommit => "reshard_commit",
            FlightEventKind::ReshardAbort => "reshard_abort",
        }
    }

    /// Whether this event should trigger an automatic dump.
    pub fn is_anomaly(self) -> bool {
        !matches!(
            self,
            FlightEventKind::Checkpoint
                | FlightEventKind::ReshardStart
                | FlightEventKind::ReshardCommit
        )
    }
}

/// One recorded system event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Wall-clock time of the observation window that caught the event.
    pub unix_millis: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Shard it happened on (`u32::MAX` for server-wide events).
    pub shard: u32,
    /// Magnitude: counter delta over the observation window (ops shed,
    /// re-syncs completed, …) or 1 for one-shot transitions.
    pub count: u64,
}

/// Shard index used for server-wide (not per-shard) events.
pub const SHARD_NONE: u32 = u32::MAX;

/// Default bound on remembered events.
pub const DEFAULT_FLIGHT_EVENTS: usize = 256;

/// Default shed-spike trigger: data ops shed within one observation
/// window before the recorder calls it an anomaly. Small drips of
/// shedding are normal near saturation; a spike is the signal.
pub const DEFAULT_SHED_SPIKE: u64 = 32;

/// Default minimum milliseconds between automatic dumps.
pub const DEFAULT_DUMP_INTERVAL_MS: u64 = 5_000;

/// Bounded event ring + anomaly triggers + dump rendering.
pub struct FlightRecorder {
    events: Mutex<VecDeque<FlightEvent>>,
    capacity: usize,
    prev: Mutex<Option<TelemetrySnapshot>>,
    shed_spike: AtomicU64,
    min_dump_interval_ms: AtomicU64,
    last_dump_millis: AtomicU64,
    /// Automatic dumps written by the owner (observer increments via
    /// [`FlightRecorder::note_dump`]).
    pub dumps: Counter,
    /// Events discarded because the ring was full.
    pub events_dropped: Counter,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_EVENTS)
    }
}

impl FlightRecorder {
    /// Recorder remembering the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            prev: Mutex::new(None),
            shed_spike: AtomicU64::new(DEFAULT_SHED_SPIKE),
            min_dump_interval_ms: AtomicU64::new(DEFAULT_DUMP_INTERVAL_MS),
            last_dump_millis: AtomicU64::new(0),
            dumps: Counter::new(),
            events_dropped: Counter::new(),
        }
    }

    /// Adjust the shed-spike trigger threshold (ops per window).
    pub fn set_shed_spike(&self, ops: u64) {
        self.shed_spike.store(ops.max(1), Ordering::Relaxed);
    }

    /// Adjust the automatic-dump rate limit.
    pub fn set_dump_interval_ms(&self, ms: u64) {
        self.min_dump_interval_ms.store(ms, Ordering::Relaxed);
    }

    /// Append one event (bounded; oldest dropped and counted).
    pub fn record(&self, event: FlightEvent) {
        let mut ring = match self.events.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if ring.len() == self.capacity {
            ring.pop_front();
            self.events_dropped.inc();
        }
        ring.push_back(event);
    }

    /// Copy of the event ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let ring = match self.events.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        ring.iter().copied().collect()
    }

    /// Feed one fresh telemetry snapshot. Counter deltas against the
    /// previous observation become events; the returned list is the
    /// anomalies among them (empty on the very first call — there is no
    /// window to diff yet). The caller decides whether a non-empty
    /// return becomes a dump (see [`FlightRecorder::dump_permitted`]).
    pub fn observe(&self, snap: &TelemetrySnapshot) -> Vec<FlightEvent> {
        let mut prev_guard = match self.prev.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let Some(prev) = prev_guard.as_ref() else {
            *prev_guard = Some(snap.clone());
            return Vec::new();
        };
        let now = unix_millis();
        let mut anomalies = Vec::new();
        let mut emit = |kind: FlightEventKind, shard: u32, count: u64| {
            if count == 0 {
                return;
            }
            let ev = FlightEvent { unix_millis: now, kind, shard, count };
            self.record(ev);
            if kind.is_anomaly() {
                anomalies.push(ev);
            }
        };
        for (i, (cur, old)) in snap.shards.iter().zip(&prev.shards).enumerate() {
            let shard = i as u32;
            let (cur, old) = (&cur.store, &old.store);
            let watchdog = cur.watchdog_quarantines.saturating_sub(old.watchdog_quarantines);
            emit(FlightEventKind::Watchdog, shard, watchdog);
            // Watchdog quarantines also count as health-state
            // quarantines; report the non-watchdog remainder so one
            // incident does not read as two.
            let quarantines: u64 = cur
                .health_events
                .iter()
                .filter(|t| !old.health_events.contains(t) && t.to == 1)
                .count() as u64;
            emit(FlightEventKind::Quarantine, shard, quarantines.saturating_sub(watchdog));
            emit(FlightEventKind::Promotion, shard, cur.failovers.saturating_sub(old.failovers));
            emit(FlightEventKind::Resync, shard, cur.resyncs.saturating_sub(old.resyncs));
            emit(
                FlightEventKind::Checkpoint,
                shard,
                cur.checkpoints.saturating_sub(old.checkpoints),
            );
            emit(
                FlightEventKind::ReshardStart,
                shard,
                cur.reshards_started.saturating_sub(old.reshards_started),
            );
            emit(
                FlightEventKind::ReshardCommit,
                shard,
                cur.reshards_committed.saturating_sub(old.reshards_committed),
            );
            emit(
                FlightEventKind::ReshardAbort,
                shard,
                cur.reshards_aborted.saturating_sub(old.reshards_aborted),
            );
        }
        let shed: u64 = snap
            .shards
            .iter()
            .zip(&prev.shards)
            .map(|(c, o)| c.store.admission_shed.saturating_sub(o.store.admission_shed))
            .sum::<u64>()
            + snap.net.ops_shed_overload.saturating_sub(prev.net.ops_shed_overload)
            + snap.net.ops_shed_deadline.saturating_sub(prev.net.ops_shed_deadline);
        if shed >= self.shed_spike.load(Ordering::Relaxed) {
            emit(FlightEventKind::Shed, SHARD_NONE, shed);
        } else if shed > 0 {
            // Below the spike threshold: remember it, don't trigger.
            let ev = FlightEvent {
                unix_millis: now,
                kind: FlightEventKind::Shed,
                shard: SHARD_NONE,
                count: shed,
            };
            self.record(ev);
        }
        *prev_guard = Some(snap.clone());
        anomalies
    }

    /// Whether an automatic dump is allowed now (rate limit); claims
    /// the slot when it is.
    pub fn dump_permitted(&self) -> bool {
        let now = unix_millis();
        let min = self.min_dump_interval_ms.load(Ordering::Relaxed);
        let last = self.last_dump_millis.load(Ordering::Relaxed);
        if now.saturating_sub(last) < min {
            return false;
        }
        self.last_dump_millis
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Count one written dump.
    pub fn note_dump(&self) {
        self.dumps.inc();
    }

    /// Render the post-mortem JSON: the trigger reason, the event ring,
    /// and the supplied recent spans (typically the full contents of
    /// every trace ring). Hand-written JSON, like every exporter in
    /// this crate.
    pub fn render_dump(&self, reason: &str, triggers: &[FlightEvent], spans: &[Span]) -> String {
        let mut o = String::with_capacity(4096 + spans.len() * 256);
        o.push_str(&format!(
            "{{\"kind\":\"aria-flight-dump\",\"unix_millis\":{},\"reason\":{},\"triggers\":[",
            unix_millis(),
            json_escape(reason),
        ));
        for (i, t) in triggers.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            event_json(&mut o, t);
        }
        o.push_str("],\"events\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            event_json(&mut o, e);
        }
        o.push_str(&format!(
            "],\"events_dropped\":{},\"stage_names\":[",
            self.events_dropped.get()
        ));
        for (i, n) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("\"{n}\""));
        }
        o.push_str("],\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            span_json(&mut o, s);
        }
        o.push_str("]}");
        o
    }
}

fn event_json(o: &mut String, e: &FlightEvent) {
    o.push_str(&format!(
        "{{\"unix_millis\":{},\"kind\":\"{}\",\"shard\":{},\"count\":{}}}",
        e.unix_millis,
        e.kind.name(),
        if e.shard == SHARD_NONE { -1i64 } else { e.shard as i64 },
        e.count
    ));
}

/// One span as JSON (shared with `ariatrace`'s dump renderer).
pub fn span_json(o: &mut String, s: &Span) {
    o.push_str(&format!(
        "{{\"trace_id\":{},\"shard\":{},\"kind\":{},\"outcome\":{},\"ops\":{},\"stages\":[",
        s.trace_id, s.shard, s.kind, s.outcome, s.ops
    ));
    for (i, &v) in s.stages.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&v.to_string());
    }
    o.push_str(&format!(
        "],\"monotone\":{},\"total_nanos\":{}",
        s.stages_monotone(),
        s.total_nanos()
    ));
    for (name, v) in Attribution::NAMES.iter().zip(s.attribution.to_words()) {
        o.push_str(&format!(",\"{name}\":{v}"));
    }
    o.push('}');
}

fn json_escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryHub;
    use crate::span::{outcome, stage, TraceHub};

    fn sample_span() -> Span {
        let mut stages = [0u64; stage::COUNT];
        for (i, s) in stages.iter_mut().enumerate() {
            *s = 1000 + i as u64;
        }
        Span {
            trace_id: 7,
            shard: 0,
            kind: 1,
            outcome: outcome::OK,
            ops: 1,
            stages,
            attribution: Attribution { verify_depth: 2, cold_reads: 1, ..Attribution::default() },
        }
    }

    #[test]
    fn ring_bounds_and_drop_count() {
        let r = FlightRecorder::new(2);
        for i in 0..4 {
            r.record(FlightEvent {
                unix_millis: i,
                kind: FlightEventKind::Checkpoint,
                shard: 0,
                count: 1,
            });
        }
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].unix_millis, 2);
        if crate::enabled() {
            assert_eq!(r.events_dropped.get(), 2);
        }
    }

    #[test]
    fn observe_diffs_counters_into_events_and_triggers() {
        let hub = TelemetryHub::with_shards(2);
        let r = FlightRecorder::default();
        // First observation just primes the window.
        assert!(r.observe(&hub.snapshot()).is_empty());
        if !crate::enabled() {
            return; // counters are no-ops without the plane
        }
        hub.shards[1].store.watchdog_quarantines.inc();
        hub.shards[0].store.checkpoints.inc();
        hub.net.ops_shed_overload.add(DEFAULT_SHED_SPIKE);
        let anomalies = r.observe(&hub.snapshot());
        let kinds: Vec<_> = anomalies.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FlightEventKind::Watchdog), "{kinds:?}");
        assert!(kinds.contains(&FlightEventKind::Shed), "{kinds:?}");
        // Checkpoints are events but never anomalies.
        assert!(!kinds.contains(&FlightEventKind::Checkpoint));
        assert!(r.events().iter().any(|e| e.kind == FlightEventKind::Checkpoint));
        // A quiet window triggers nothing.
        assert!(r.observe(&hub.snapshot()).is_empty());
        // Sub-threshold shedding is recorded but does not trigger.
        hub.net.ops_shed_deadline.inc();
        assert!(r.observe(&hub.snapshot()).is_empty());
        assert!(r.events().iter().any(|e| e.kind == FlightEventKind::Shed && e.count == 1));
    }

    #[test]
    fn reshard_events_and_abort_anomaly() {
        let hub = TelemetryHub::with_shards(2);
        let r = FlightRecorder::default();
        assert!(r.observe(&hub.snapshot()).is_empty());
        if !crate::enabled() {
            return;
        }
        // Start + commit are recorded but routine.
        hub.shards[0].store.reshards_started.inc();
        hub.shards[0].store.reshards_committed.inc();
        assert!(r.observe(&hub.snapshot()).is_empty());
        assert!(r.events().iter().any(|e| e.kind == FlightEventKind::ReshardStart));
        assert!(r.events().iter().any(|e| e.kind == FlightEventKind::ReshardCommit));
        // An abort is the post-mortem trigger.
        hub.shards[0].store.reshards_aborted.inc();
        let anomalies = r.observe(&hub.snapshot());
        assert!(anomalies.iter().any(|e| e.kind == FlightEventKind::ReshardAbort));
    }

    #[test]
    fn dump_rate_limit() {
        let r = FlightRecorder::default();
        r.set_dump_interval_ms(1_000_000);
        assert!(r.dump_permitted(), "first dump always allowed");
        assert!(!r.dump_permitted(), "second dump inside the window refused");
        r.set_dump_interval_ms(0);
        assert!(r.dump_permitted(), "zero interval disables the limit");
    }

    #[test]
    fn dump_json_is_balanced_and_complete() {
        let r = FlightRecorder::default();
        let t =
            FlightEvent { unix_millis: 1, kind: FlightEventKind::Quarantine, shard: 1, count: 1 };
        r.record(t);
        let j = r.render_dump("test \"quoted\" reason", &[t], &[sample_span()]);
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "unbalanced: {j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for needle in [
            "\"kind\":\"aria-flight-dump\"",
            "\"reason\":\"test \\\"quoted\\\" reason\"",
            "\"kind\":\"quarantine\"",
            "\"stage_names\":[\"decode\"",
            "\"trace_id\":7",
            "\"monotone\":true",
            "\"cold_reads\":1",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn dump_carries_a_slow_run_with_its_attribution() {
        let hub = TraceHub::new(2, 8);
        hub.publish(&sample_span());
        let attribution = Attribution {
            index_probes: 11,
            counter_fetches: 5,
            verify_depth: 7,
            cache_admit_evict: 3,
            crypt_bytes: 512,
            cold_reads: 2,
            hot_hits: 4,
        };
        hub.publish_tail(&Span::tail(1, 2, 70_000, 5_000, 905_000, attribution));
        let (spans, _) = hub.read_since(&[]);
        let j = FlightRecorder::default().render_dump("request", &[], &spans);
        if !crate::enabled() {
            assert!(j.contains("\"spans\":[]"), "{j}");
            return;
        }
        for needle in [
            "\"trace_id\":0,\"shard\":1,\"kind\":2,\"outcome\":0,\"ops\":70000",
            "\"stages\":[0,0,0,0,5000,905000,0,0]",
            "\"total_nanos\":900000,\"index_probes\":11,\"counter_fetches\":5,\
             \"verify_depth\":7,\"cache_admit_evict\":3,\"crypt_bytes\":512,\"cold_reads\":2,\
             \"hot_hits\":4}",
            "\"trace_id\":7",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }
}
