//! # aria-telemetry
//!
//! Low-overhead observability plane for the Aria store: lock-free
//! counters/gauges and log2-bucketed histograms with mergeable
//! snapshot-and-delta semantics, one tracing plane (head-sampled
//! request spans plus tail spans for slow store runs), and three
//! exports — a versioned binary snapshot (for the `METRICS` wire
//! opcode), a Prometheus-style text exposition, and hand-written JSON
//! for bench result rows.
//!
//! Design rules:
//!
//! * **The hot path is one relaxed atomic add.** Recording a counter
//!   never locks, allocates, or fences; histograms are two relaxed
//!   adds. Slow paths (health transitions, snapshots) may take a
//!   mutex; span rings never do.
//! * **Telemetry is untrusted state.** Nothing here is security
//!   metadata: counters live in ordinary host memory, are not
//!   MAC-protected, and are never consulted by verification logic. A
//!   tampered metric can mislead an operator but cannot forge a value
//!   or hide an integrity violation (see DESIGN.md §12).
//! * **`telemetry-off` compiles the plane away.** With the feature
//!   enabled every recorder is a zero-sized no-op; the overhead
//!   guardrail bench diffs the two builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod export;
mod hub;
mod metrics;
mod recorder;
mod span;

pub use codec::{decode_spans, encode_spans, CodecError, MAGIC, SPANS_MAGIC};
pub use hub::{
    health_name, unix_millis, CacheSnapshot, CacheTelemetry, ChaosSnapshot, ChaosTelemetry,
    HealthTransition, MemSnapshot, MemTelemetry, MerkleSnapshot, MerkleTelemetry, NetSnapshot,
    NetTelemetry, ReplicaServing, ServingSnapshot, ShardSnapshot, ShardTelemetry, StoreSnapshot,
    StoreTelemetry, TelemetryHub, TelemetrySnapshot, FAULT_SITES, FAULT_SITE_NAMES,
    HEALTH_EVENT_CAP, NET_OPS, NET_OP_NAMES, SNAPSHOT_VERSION, VIOLATION_CLASSES, VIOLATION_NAMES,
};
pub use metrics::{
    bucket_bound, bucket_mid, bucket_of, Counter, Gauge, HistSnapshot, Histogram, BUCKETS,
};
pub use recorder::{
    span_json, FlightEvent, FlightEventKind, FlightRecorder, DEFAULT_DUMP_INTERVAL_MS,
    DEFAULT_FLIGHT_EVENTS, DEFAULT_SHED_SPIKE, SHARD_NONE,
};
pub use span::{
    clock_nanos, outcome, stage, Attribution, Span, SpanCell, TraceHub, TraceRing, TraceSummary,
    DEFAULT_TRACE_CAPACITY, STAGE_NAMES,
};

/// `true` when the telemetry plane is compiled in (the `telemetry-off`
/// feature is **not** active).
pub const fn enabled() -> bool {
    cfg!(not(feature = "telemetry-off"))
}
