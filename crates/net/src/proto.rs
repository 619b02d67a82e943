//! The Aria wire protocol: compact length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 frame_len][u8 opcode][u64 request_id][body...]
//! ```
//!
//! `frame_len` counts everything after itself (opcode + id + body), all
//! integers are little-endian, and bodies nest `[u32 len][bytes]` items.
//! Request ids are chosen by the client and echoed verbatim by the
//! server, which is what makes pipelining safe: a client may have any
//! number of requests in flight and match responses by id (the server
//! additionally answers in request order per connection).
//!
//! Store failures travel as stable [`ErrorCode`]s, not strings, so
//! clients can react to e.g. an integrity violation without parsing
//! log text. Code values are part of the protocol and must never be
//! renumbered.
//!
//! There is one frame layout, [`PROTOCOL_VERSION`]. Every data request
//! (GET/PUT/DELETE/MULTI_GET/PUT_BATCH) ends with the same 25-byte
//! trailer — deadline, trace context, routing epoch — and every
//! response carries its full field set. `HELLO` is the gate for the
//! next layout: the server acks its own version and refuses any other
//! with [`ErrorCode::UnsupportedVersion`]. A peer that never sends
//! `HELLO` is served at [`PROTOCOL_VERSION`] all the same.

use aria_store::{StoreError, Violation};

/// Frames larger than this are rejected as malformed — a defense against
/// garbage (or hostile) length prefixes allocating unbounded memory.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Fixed bytes before the body: opcode (1) + request id (8).
pub const FRAME_HEADER_LEN: usize = 9;

/// The request id the server uses for unsolicited, connection-level
/// errors (e.g. rejecting a connection over the limit).
pub const CONTROL_ID: u64 = 0;

/// The protocol version this build speaks — the only one it serves.
/// `HELLO` offering any other version is refused with
/// [`ErrorCode::UnsupportedVersion`]; a peer that skips `HELLO` is
/// served at this version.
pub const PROTOCOL_VERSION: u16 = 7;

/// Alias of [`PROTOCOL_VERSION`], the version a `HELLO`-less peer is
/// served at. Its only caller is `benchmark/src/openloop.rs`.
#[doc(hidden)]
pub const BASE_PROTOCOL_VERSION: u16 = PROTOCOL_VERSION;

/// Feature bits a client may request in `HELLO`. The server answers
/// with the intersection of what was asked and what it supports, so
/// unknown bits degrade to "off" instead of failing the handshake.
/// Bits are protocol surface: never renumber them (bit 0 is unused).
pub mod features {
    /// Routing-epoch exchange: the server publishes its routing epoch
    /// via `RESHARD` mode 0 and honors the client's claimed epoch on
    /// data ops, answering stale claims with `WRONG_SHARD` instead of
    /// an opaque retryable error.
    pub const ROUTING_EPOCH: u64 = 1 << 1;
    /// Every feature bit this build understands.
    pub const SUPPORTED: u64 = ROUTING_EPOCH;
}

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_PUT: u8 = 0x03;
const OP_DELETE: u8 = 0x04;
const OP_MULTI_GET: u8 = 0x05;
const OP_PUT_BATCH: u8 = 0x06;
// 0x07 and 0x08 are retired (STATS and HEALTH before v7): never reuse
// them, so an old peer's frame fails as an unknown opcode.
const OP_METRICS: u8 = 0x09;
const OP_HELLO: u8 = 0x0A;
const OP_TRACE: u8 = 0x0B;
const OP_RESHARD: u8 = 0x0C;

// Response opcodes (high bit set).
const OP_PONG: u8 = 0x81;
const OP_VALUE: u8 = 0x82;
const OP_PUT_OK: u8 = 0x83;
const OP_DELETED: u8 = 0x84;
const OP_VALUES: u8 = 0x85;
const OP_BATCH_STATUS: u8 = 0x86;
const OP_METRICS_REPLY: u8 = 0x89;
const OP_HELLO_REPLY: u8 = 0x8A;
const OP_TRACE_REPLY: u8 = 0x8B;
const OP_RESHARD_REPLY: u8 = 0x8C;
const OP_WRONG_SHARD: u8 = 0x8D;
const OP_ERROR: u8 = 0xFF;

/// Number of request opcodes (`0x01..=0x0C` less the two retired
/// ones), for per-opcode telemetry tables.
pub const REQUEST_OPCODES: usize = 10;

// The server indexes `aria_telemetry`'s per-opcode tables with
// `request_op_index`, so the two counts must agree.
const _: () = assert!(REQUEST_OPCODES == aria_telemetry::NET_OPS);

/// Telemetry table index of a request, `0..REQUEST_OPCODES`.
pub fn request_op_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Get { .. } => 1,
        Request::Put { .. } => 2,
        Request::Delete { .. } => 3,
        Request::MultiGet { .. } => 4,
        Request::PutBatch { .. } => 5,
        Request::Metrics => 6,
        Request::Hello { .. } => 7,
        Request::Trace { .. } => 8,
        Request::Reshard { .. } => 9,
    }
}

/// Trace context carried in the data-request trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Client-chosen trace id (nonzero for sampled requests).
    pub id: u64,
    /// Whether the client sampled this request for span capture.
    pub sampled: bool,
}

impl TraceContext {
    /// The unsampled context.
    pub const NONE: TraceContext = TraceContext { id: 0, sampled: false };
}

/// The trailer every data request carries, in wire order:
/// `u64 deadline_ns`, `u64 trace_id`, a flags byte (bit 0 = sampled,
/// bits 1–7 reserved and rejected on decode), `u64 routing_epoch`.
/// Control ops carry no trailer and decode to the zero values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestMeta {
    /// The client's remaining time budget in nanoseconds, relative so
    /// no clock synchronization is assumed (0 = none).
    pub deadline_ns: u64,
    /// The trace context ([`TraceContext::NONE`] = unsampled).
    pub trace: TraceContext,
    /// The routing epoch the client believes current (0 = no claim,
    /// the server routes without a staleness check). A server whose
    /// table moved the key's slot after this epoch refuses the op with
    /// [`Response::WrongShard`] instead of serving it.
    pub routing_epoch: u64,
}

/// Stable numeric error codes carried on the wire.
///
/// Groups: `1..=15` integrity violations (detected attacks), `16..=31`
/// resource/validation failures, `32..=47` protocol/transport faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// Merkle node verification failed (counter tamper/replay).
    MerkleMismatch = 1,
    /// Entry MAC mismatch (value tamper or replay).
    EntryMacMismatch = 2,
    /// Counter-reuse attack detected.
    CounterReuse = 3,
    /// Unauthorized deletion detected.
    UnauthorizedDeletion = 4,
    /// Untrusted allocator metadata inconsistent.
    AllocatorMetadata = 5,
    /// Corrupt untrusted pointer.
    CorruptPointer = 6,
    /// The key's data was destroyed by a contained attack; reads fail
    /// closed instead of answering "not found".
    DataDestroyed = 7,
    /// Enclave EPC exhausted.
    EpcExhausted = 16,
    /// Counter area exhausted.
    CountersExhausted = 17,
    /// Untrusted heap failure.
    Heap = 18,
    /// Key exceeds the on-wire limit.
    KeyTooLong = 19,
    /// Value exceeds the on-wire limit.
    ValueTooLong = 20,
    /// A shard's store is gone; the op could not be served.
    ShardUnavailable = 21,
    /// The shard is quarantined after a detected violation; retry once
    /// recovery re-admits it.
    ShardQuarantined = 22,
    /// Anti-entropy re-sync found mismatching content roots; the
    /// rejoining replica was refused re-admission.
    ReplicaDiverged = 23,
    /// The store cannot stream verified contents for re-sync.
    ExportUnsupported = 24,
    /// Verified crash recovery refused to serve: the replayed log does
    /// not reproduce the sealed checkpoint (corruption, tampering, or
    /// rollback below the attested epoch floor).
    RecoveryDiverged = 25,
    /// The durability log failed at the I/O layer (disk error, not a
    /// detected attack).
    LogIo = 26,
    /// The shard's estimated queue delay exceeds its admission budget;
    /// the op was refused *before* execution (nothing was applied).
    /// The `ERROR` reply carries a retry-after hint.
    Overloaded = 27,
    /// The op's propagated deadline had already expired when the server
    /// would have admitted it; it was refused *before* execution
    /// (nothing was applied). Retrying is pointless — the caller
    /// already gave up.
    DeadlineExceeded = 28,
    /// The key's slot moved to another shard after the routing epoch
    /// the client claimed: refresh routing and retry. On the wire the
    /// refusal is the typed `WRONG_SHARD` reply (epoch + owner hint);
    /// the client surfaces this code when its refresh rounds run out.
    WrongShard = 29,
    /// The request frame could not be decoded.
    BadRequest = 32,
    /// Unknown request opcode.
    UnknownOpcode = 33,
    /// Frame exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge = 34,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown = 35,
    /// The connection limit is reached; try again later.
    TooManyConnections = 36,
    /// `HELLO` offered a protocol version other than
    /// [`PROTOCOL_VERSION`], the only one this server speaks.
    UnsupportedVersion = 37,
}

impl ErrorCode {
    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => MerkleMismatch,
            2 => EntryMacMismatch,
            3 => CounterReuse,
            4 => UnauthorizedDeletion,
            5 => AllocatorMetadata,
            6 => CorruptPointer,
            7 => DataDestroyed,
            16 => EpcExhausted,
            17 => CountersExhausted,
            18 => Heap,
            19 => KeyTooLong,
            20 => ValueTooLong,
            21 => ShardUnavailable,
            22 => ShardQuarantined,
            23 => ReplicaDiverged,
            24 => ExportUnsupported,
            25 => RecoveryDiverged,
            26 => LogIo,
            27 => Overloaded,
            28 => DeadlineExceeded,
            29 => WrongShard,
            32 => BadRequest,
            33 => UnknownOpcode,
            34 => FrameTooLarge,
            35 => ShuttingDown,
            36 => TooManyConnections,
            37 => UnsupportedVersion,
            _ => return None,
        })
    }

    /// The stable protocol code of a [`StoreError`].
    pub fn from_store_error(e: &StoreError) -> ErrorCode {
        match e {
            StoreError::Integrity(v) => match v {
                Violation::MerkleMismatch { .. } => ErrorCode::MerkleMismatch,
                Violation::EntryMacMismatch => ErrorCode::EntryMacMismatch,
                Violation::CounterReuse { .. } => ErrorCode::CounterReuse,
                Violation::UnauthorizedDeletion => ErrorCode::UnauthorizedDeletion,
                Violation::AllocatorMetadata => ErrorCode::AllocatorMetadata,
                Violation::CorruptPointer => ErrorCode::CorruptPointer,
                Violation::DataDestroyed => ErrorCode::DataDestroyed,
            },
            StoreError::EpcExhausted => ErrorCode::EpcExhausted,
            StoreError::CountersExhausted => ErrorCode::CountersExhausted,
            StoreError::Heap(_) => ErrorCode::Heap,
            StoreError::KeyTooLong { .. } => ErrorCode::KeyTooLong,
            StoreError::ValueTooLong { .. } => ErrorCode::ValueTooLong,
            StoreError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
            StoreError::ShardQuarantined { .. } => ErrorCode::ShardQuarantined,
            StoreError::ReplicaDiverged { .. } => ErrorCode::ReplicaDiverged,
            StoreError::ExportUnsupported => ErrorCode::ExportUnsupported,
            StoreError::RecoveryDiverged { .. } => ErrorCode::RecoveryDiverged,
            StoreError::Log { .. } => ErrorCode::LogIo,
            StoreError::Overloaded { .. } => ErrorCode::Overloaded,
            StoreError::WrongShard { .. } => ErrorCode::WrongShard,
        }
    }

    /// Whether this code reports a detected attack on store integrity.
    pub fn is_integrity_violation(&self) -> bool {
        (*self as u16) < 16
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?} ({})", *self as u16)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Fetch one key.
    Get {
        /// The key.
        key: Vec<u8>,
    },
    /// Insert or update one key.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove one key.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
    /// Fetch several keys in one request.
    MultiGet {
        /// The keys, answered in order.
        keys: Vec<Vec<u8>>,
    },
    /// Insert or update several pairs in one request.
    PutBatch {
        /// The pairs, applied in order.
        pairs: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Full telemetry snapshot: the recorders, span counts (the spans
    /// themselves stream through `Trace`) and the serving section —
    /// connections, ops served, size, degradation, sheds and
    /// per-replica health, role and lag. The one control-plane read.
    Metrics,
    /// Versioned handshake, carrying the client's protocol version and
    /// the feature bits it would like enabled. Optional — a client that
    /// never sends it is served at [`PROTOCOL_VERSION`]; any other
    /// version is refused with [`ErrorCode::UnsupportedVersion`].
    Hello {
        /// The protocol version the client speaks.
        version: u16,
        /// Feature bits the client requests (see [`features`]).
        features: u64,
    },
    /// Fetch tracing data. Mode 0 streams spans (head-sampled requests,
    /// then tail spans for slow store runs) newer than the supplied
    /// per-ring cursors (the reply carries new cursors to
    /// resume from); mode 1 requests a flight-recorder post-mortem
    /// dump. Control-plane: answerable while shedding, never carries
    /// the data-op trailers.
    Trace {
        /// 0 = stream spans, 1 = flight-recorder dump. Unknown modes
        /// are answered with [`ErrorCode::BadRequest`].
        mode: u8,
        /// Per-ring resume cursors for mode 0 (empty = from the
        /// oldest resident span); ignored for mode 1.
        cursors: Vec<u64>,
    },
    /// Observe or drive elastic resharding. Mode 0 queries the routing
    /// state (current epoch, per-slot owners, migration status); mode
    /// 1 starts a shard *split* (move half of `source`'s slots to
    /// `target`); mode 2 starts a *merge* (move all of `source`'s
    /// slots into `target`). Starting is asynchronous — the reply is
    /// the status at accept time; poll mode 0 for progress.
    /// Control-plane: answerable while shedding, never carries the
    /// data-op trailers.
    Reshard {
        /// 0 = query, 1 = split, 2 = merge. Unknown modes are answered
        /// with [`ErrorCode::BadRequest`].
        mode: u8,
        /// Source shard for modes 1/2 (ignored for mode 0).
        source: u32,
        /// Target shard for modes 1/2 (ignored for mode 0).
        target: u32,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Get`].
    Value(Option<Vec<u8>>),
    /// Answer to a successful [`Request::Put`].
    PutOk,
    /// Answer to [`Request::Delete`]; `true` if the key existed.
    Deleted(bool),
    /// Answer to [`Request::MultiGet`], one entry per key in order.
    Values(Vec<Result<Option<Vec<u8>>, ErrorCode>>),
    /// Answer to [`Request::PutBatch`], one entry per pair in order.
    BatchStatus(Vec<Result<(), ErrorCode>>),
    /// Answer to [`Request::Metrics`]: an `aria-telemetry` snapshot in
    /// its own versioned encoding (see
    /// [`aria_telemetry::TelemetrySnapshot::decode`]), kept opaque here
    /// so the snapshot layout can evolve without renumbering opcodes.
    Metrics(Vec<u8>),
    /// Answer to [`Request::Trace`]: for mode 0, an encoded span stream
    /// (see [`aria_telemetry::decode_spans`]); for mode 1, a
    /// flight-recorder dump as UTF-8 JSON. Kept opaque here — like
    /// [`Response::Metrics`] — so the span layout can evolve without
    /// renumbering opcodes.
    Trace(Vec<u8>),
    /// Answer to an accepted [`Request::Hello`]: the version the
    /// connection speaks (always [`PROTOCOL_VERSION`]) and the
    /// negotiated feature bits (the intersection of requested and
    /// supported).
    HelloAck {
        /// Negotiated protocol version for this connection.
        version: u16,
        /// Negotiated feature bits (see [`features`]).
        features: u64,
    },
    /// Answer to [`Request::Reshard`]: the routing table's current
    /// view. For modes 1/2 this is the state right after the start was
    /// accepted (the migration itself runs in the background).
    Reshard {
        /// Current routing epoch (bumped once per committed move).
        epoch: u64,
        /// Per-slot owner shard, one entry per routing slot.
        slots: Vec<u32>,
        /// Encoded migration state (`aria_store::ReshardState` as u8:
        /// 0 idle, 1 running, 2 committed, 3 aborted).
        state: u8,
        /// Migrations started since the server came up.
        started: u64,
        /// Migrations committed since the server came up.
        committed: u64,
        /// Migrations aborted since the server came up.
        aborted: u64,
    },
    /// Typed refusal: the key's slot moved after the routing epoch the
    /// client claimed. Carries the server's current epoch — at or
    /// above it the client's refreshed routing cannot be refused again
    /// for the same move — plus the slot's owner as a hint.
    WrongShard {
        /// The server's current routing epoch.
        epoch: u64,
        /// The shard that owns the refused key's slot now.
        hint: u32,
    },
    /// The request (or, with id [`CONTROL_ID`], the connection) failed.
    Error {
        /// Stable error code.
        code: ErrorCode,
        /// Human-readable detail for logs; never required for handling.
        message: String,
        /// Server hint: wait this many milliseconds before retrying
        /// (0 = no hint). Only [`ErrorCode::Overloaded`] replies set it
        /// today.
        retry_after_ms: u64,
    },
}

/// Why a frame could not be decoded (or encoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame declared a length over [`MAX_FRAME_LEN`] — on decode,
    /// a hostile/garbage prefix; on encode, a message too large to ever
    /// be accepted by a peer.
    FrameTooLarge {
        /// Declared length.
        len: usize,
    },
    /// The frame body did not parse as its opcode's layout.
    Malformed,
    /// The opcode is not part of the protocol (version mismatch?).
    UnknownOpcode(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte limit")
            }
            WireError::Malformed => write!(f, "malformed frame body"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append one framed message; `body` writes everything after the id.
///
/// The [`MAX_FRAME_LEN`] cap is enforced on *encode* too: a message
/// that would exceed it is rolled back (no partial bytes reach `out`,
/// which may already hold earlier pipelined frames) and reported, since
/// any conforming peer would reject it anyway.
fn frame(
    out: &mut Vec<u8>,
    opcode: u8,
    id: u64,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    out.push(opcode);
    put_u64(out, id);
    body(out);
    let frame_len = out.len() - len_at - 4;
    if frame_len > MAX_FRAME_LEN {
        out.truncate(len_at);
        return Err(WireError::FrameTooLarge { len: frame_len });
    }
    out[len_at..len_at + 4].copy_from_slice(&(frame_len as u32).to_le_bytes());
    Ok(())
}

/// Whether a request is a data op (GET/PUT/DELETE/MULTI_GET/PUT_BATCH)
/// as opposed to a control-plane op. Only data ops carry the
/// [`RequestMeta`] trailer, and only data ops are subject to admission
/// control — PING/METRICS/HELLO/TRACE/RESHARD must stay answerable
/// while a server is shedding load.
pub fn is_data_request(req: &Request) -> bool {
    matches!(
        req,
        Request::Get { .. }
            | Request::Put { .. }
            | Request::Delete { .. }
            | Request::MultiGet { .. }
            | Request::PutBatch { .. }
    )
}

/// Append `req` as one frame to `out` with the zero trailer: no
/// deadline, unsampled, no routing claim. On
/// [`WireError::FrameTooLarge`], `out` is left exactly as it was.
pub fn encode_request(out: &mut Vec<u8>, id: u64, req: &Request) -> Result<(), WireError> {
    encode_request_meta(out, id, req, &RequestMeta::default())
}

/// Append `req` as one frame to `out`. Data-op bodies end with `meta`
/// as the [`RequestMeta`] trailer; control ops carry no trailer and
/// ignore `meta`. On [`WireError::FrameTooLarge`], `out` is left
/// exactly as it was.
pub fn encode_request_meta(
    out: &mut Vec<u8>,
    id: u64,
    req: &Request,
    meta: &RequestMeta,
) -> Result<(), WireError> {
    let tail = |b: &mut Vec<u8>| {
        put_u64(b, meta.deadline_ns);
        put_u64(b, meta.trace.id);
        b.push(meta.trace.sampled as u8);
        put_u64(b, meta.routing_epoch);
    };
    match req {
        Request::Ping => frame(out, OP_PING, id, |_| {}),
        Request::Get { key } => frame(out, OP_GET, id, |b| {
            put_bytes(b, key);
            tail(b);
        }),
        Request::Put { key, value } => frame(out, OP_PUT, id, |b| {
            put_bytes(b, key);
            put_bytes(b, value);
            tail(b);
        }),
        Request::Delete { key } => frame(out, OP_DELETE, id, |b| {
            put_bytes(b, key);
            tail(b);
        }),
        Request::MultiGet { keys } => frame(out, OP_MULTI_GET, id, |b| {
            put_u32(b, keys.len() as u32);
            for key in keys {
                put_bytes(b, key);
            }
            tail(b);
        }),
        Request::PutBatch { pairs } => frame(out, OP_PUT_BATCH, id, |b| {
            put_u32(b, pairs.len() as u32);
            for (key, value) in pairs {
                put_bytes(b, key);
                put_bytes(b, value);
            }
            tail(b);
        }),
        Request::Metrics => frame(out, OP_METRICS, id, |_| {}),
        Request::Hello { version, features } => frame(out, OP_HELLO, id, |b| {
            put_u16(b, *version);
            put_u64(b, *features);
        }),
        Request::Trace { mode, cursors } => frame(out, OP_TRACE, id, |b| {
            b.push(*mode);
            put_u32(b, cursors.len() as u32);
            for &cur in cursors {
                put_u64(b, cur);
            }
        }),
        Request::Reshard { mode, source, target } => frame(out, OP_RESHARD, id, |b| {
            b.push(*mode);
            put_u32(b, *source);
            put_u32(b, *target);
        }),
    }
}

/// Append `resp` as one frame to `out`. On [`WireError::FrameTooLarge`],
/// `out` is left exactly as it was.
pub fn encode_response(out: &mut Vec<u8>, id: u64, resp: &Response) -> Result<(), WireError> {
    match resp {
        Response::Pong => frame(out, OP_PONG, id, |_| {}),
        Response::Value(v) => frame(out, OP_VALUE, id, |b| match v {
            Some(v) => {
                b.push(1);
                put_bytes(b, v);
            }
            None => b.push(0),
        }),
        Response::PutOk => frame(out, OP_PUT_OK, id, |_| {}),
        Response::Deleted(existed) => frame(out, OP_DELETED, id, |b| b.push(*existed as u8)),
        Response::Values(items) => frame(out, OP_VALUES, id, |b| {
            put_u32(b, items.len() as u32);
            for item in items {
                match item {
                    Ok(None) => b.push(0),
                    Ok(Some(v)) => {
                        b.push(1);
                        put_bytes(b, v);
                    }
                    Err(code) => {
                        b.push(2);
                        put_u16(b, *code as u16);
                    }
                }
            }
        }),
        Response::BatchStatus(items) => frame(out, OP_BATCH_STATUS, id, |b| {
            put_u32(b, items.len() as u32);
            for item in items {
                put_u16(b, item.as_ref().err().map(|c| *c as u16).unwrap_or(0));
            }
        }),
        Response::Metrics(snapshot) => frame(out, OP_METRICS_REPLY, id, |b| put_bytes(b, snapshot)),
        Response::Trace(payload) => frame(out, OP_TRACE_REPLY, id, |b| put_bytes(b, payload)),
        Response::HelloAck { version, features } => frame(out, OP_HELLO_REPLY, id, |b| {
            put_u16(b, *version);
            put_u64(b, *features);
        }),
        Response::Reshard { epoch, slots, state, started, committed, aborted } => {
            frame(out, OP_RESHARD_REPLY, id, |b| {
                put_u64(b, *epoch);
                put_u32(b, slots.len() as u32);
                for &s in slots {
                    put_u32(b, s);
                }
                b.push(*state);
                put_u64(b, *started);
                put_u64(b, *committed);
                put_u64(b, *aborted);
            })
        }
        Response::WrongShard { epoch, hint } => frame(out, OP_WRONG_SHARD, id, |b| {
            put_u64(b, *epoch);
            put_u32(b, *hint);
        }),
        Response::Error { code, message, retry_after_ms } => frame(out, OP_ERROR, id, |b| {
            put_u16(b, *code as u16);
            put_bytes(b, message.as_bytes());
            put_u64(b, *retry_after_ms);
        }),
    }
}

// ---------------------------------------------------------------- decode

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    fn finished(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed)
        }
    }
}

/// Result of trying to peel one frame off a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<T> {
    /// A complete frame: (bytes consumed, request id, message).
    Frame(usize, u64, T),
    /// Not enough bytes buffered for a complete frame yet.
    Incomplete,
}

/// (bytes consumed, opcode, request id, body).
type RawFrame<'a> = (usize, u8, u64, &'a [u8]);

fn split_frame(buf: &[u8]) -> Result<Option<RawFrame<'_>>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let frame_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if frame_len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: frame_len });
    }
    if frame_len < FRAME_HEADER_LEN {
        return Err(WireError::Malformed);
    }
    if buf.len() < 4 + frame_len {
        return Ok(None);
    }
    let opcode = buf[4];
    let id = u64::from_le_bytes(buf[5..13].try_into().unwrap());
    Ok(Some((4 + frame_len, opcode, id, &buf[13..4 + frame_len])))
}

/// A request decoded *in place*: key and value fields borrow straight
/// out of the connection's read buffer instead of copying into owned
/// `Vec`s. This is the reactor's hot-path decode — bytes are copied at
/// most once, when an op is handed to the store — while
/// [`decode_request`] remains the owned convenience form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Liveness probe.
    Ping,
    /// Fetch one key.
    Get {
        /// The key, borrowed from the frame.
        key: &'a [u8],
    },
    /// Insert or update one key.
    Put {
        /// The key, borrowed from the frame.
        key: &'a [u8],
        /// The value, borrowed from the frame.
        value: &'a [u8],
    },
    /// Remove one key.
    Delete {
        /// The key, borrowed from the frame.
        key: &'a [u8],
    },
    /// Fetch several keys in one request.
    MultiGet {
        /// The keys, borrowed from the frame, answered in order.
        keys: Vec<&'a [u8]>,
    },
    /// Insert or update several pairs in one request.
    PutBatch {
        /// The pairs, borrowed from the frame, applied in order.
        pairs: Vec<(&'a [u8], &'a [u8])>,
    },
    /// Full telemetry snapshot.
    Metrics,
    /// Versioned handshake (see [`Request::Hello`]).
    Hello {
        /// The protocol version the client speaks.
        version: u16,
        /// Feature bits the client requests.
        features: u64,
    },
    /// Fetch tracing data (see [`Request::Trace`]).
    Trace {
        /// 0 = stream spans, 1 = flight-recorder dump.
        mode: u8,
        /// Per-ring resume cursors for mode 0.
        cursors: Vec<u64>,
    },
    /// Observe or drive elastic resharding (see [`Request::Reshard`]).
    Reshard {
        /// 0 = query, 1 = split, 2 = merge.
        mode: u8,
        /// Source shard for modes 1/2.
        source: u32,
        /// Target shard for modes 1/2.
        target: u32,
    },
}

impl RequestRef<'_> {
    /// Telemetry table index, `0..REQUEST_OPCODES`; matches
    /// [`request_op_index`] on the owned form.
    pub fn op_index(&self) -> usize {
        match self {
            RequestRef::Ping => 0,
            RequestRef::Get { .. } => 1,
            RequestRef::Put { .. } => 2,
            RequestRef::Delete { .. } => 3,
            RequestRef::MultiGet { .. } => 4,
            RequestRef::PutBatch { .. } => 5,
            RequestRef::Metrics => 6,
            RequestRef::Hello { .. } => 7,
            RequestRef::Trace { .. } => 8,
            RequestRef::Reshard { .. } => 9,
        }
    }

    /// Whether this is a data op (see [`is_data_request`]): subject to
    /// admission control and followed by the [`RequestMeta`] trailer
    /// on the wire.
    pub fn is_data_op(&self) -> bool {
        matches!(
            self,
            RequestRef::Get { .. }
                | RequestRef::Put { .. }
                | RequestRef::Delete { .. }
                | RequestRef::MultiGet { .. }
                | RequestRef::PutBatch { .. }
        )
    }

    /// Copy the borrowed fields into an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        match self {
            RequestRef::Ping => Request::Ping,
            RequestRef::Get { key } => Request::Get { key: key.to_vec() },
            RequestRef::Put { key, value } => {
                Request::Put { key: key.to_vec(), value: value.to_vec() }
            }
            RequestRef::Delete { key } => Request::Delete { key: key.to_vec() },
            RequestRef::MultiGet { keys } => {
                Request::MultiGet { keys: keys.iter().map(|k| k.to_vec()).collect() }
            }
            RequestRef::PutBatch { pairs } => Request::PutBatch {
                pairs: pairs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect(),
            },
            RequestRef::Metrics => Request::Metrics,
            RequestRef::Hello { version, features } => {
                Request::Hello { version: *version, features: *features }
            }
            RequestRef::Trace { mode, cursors } => {
                Request::Trace { mode: *mode, cursors: cursors.clone() }
            }
            RequestRef::Reshard { mode, source, target } => {
                Request::Reshard { mode: *mode, source: *source, target: *target }
            }
        }
    }
}

/// Decode one request frame from the front of `buf` without copying
/// key/value bytes — they borrow from `buf` for the lifetime of the
/// returned [`RequestRef`]. A data op's trailer comes back as its
/// [`RequestMeta`]; control ops decode to the zero meta. A data frame
/// without the full trailer, or with a reserved trace flag bit set, is
/// [`WireError::Malformed`].
pub fn decode_request_ref(buf: &[u8]) -> Result<Decoded<(RequestRef<'_>, RequestMeta)>, WireError> {
    let Some((consumed, opcode, id, body)) = split_frame(buf)? else {
        return Ok(Decoded::Incomplete);
    };
    let mut c = Cursor { buf: body, pos: 0 };
    let req = match opcode {
        OP_PING => RequestRef::Ping,
        OP_GET => RequestRef::Get { key: c.bytes_ref()? },
        OP_PUT => RequestRef::Put { key: c.bytes_ref()?, value: c.bytes_ref()? },
        OP_DELETE => RequestRef::Delete { key: c.bytes_ref()? },
        OP_MULTI_GET => {
            let n = c.u32()? as usize;
            // A count can't promise more items than bytes remain.
            if n > body.len() {
                return Err(WireError::Malformed);
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(c.bytes_ref()?);
            }
            RequestRef::MultiGet { keys }
        }
        OP_PUT_BATCH => {
            let n = c.u32()? as usize;
            if n > body.len() {
                return Err(WireError::Malformed);
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((c.bytes_ref()?, c.bytes_ref()?));
            }
            RequestRef::PutBatch { pairs }
        }
        OP_METRICS => RequestRef::Metrics,
        OP_HELLO => RequestRef::Hello { version: c.u16()?, features: c.u64()? },
        OP_TRACE => {
            let mode = c.u8()?;
            let n = c.u32()? as usize;
            if n * 8 > body.len() {
                return Err(WireError::Malformed);
            }
            let mut cursors = Vec::with_capacity(n);
            for _ in 0..n {
                cursors.push(c.u64()?);
            }
            RequestRef::Trace { mode, cursors }
        }
        OP_RESHARD => RequestRef::Reshard { mode: c.u8()?, source: c.u32()?, target: c.u32()? },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    let mut meta = RequestMeta::default();
    if req.is_data_op() {
        meta.deadline_ns = c.u64()?;
        let trace_id = c.u64()?;
        let flags = c.u8()?;
        if flags & !1 != 0 {
            return Err(WireError::Malformed);
        }
        meta.trace = TraceContext { id: trace_id, sampled: flags & 1 != 0 };
        meta.routing_epoch = c.u64()?;
    }
    c.finished()?;
    Ok(Decoded::Frame(consumed, id, (req, meta)))
}

/// Decode one request frame from the front of `buf` into an owned
/// [`Request`], dropping its trailer (see [`decode_request_ref`]).
pub fn decode_request(buf: &[u8]) -> Result<Decoded<Request>, WireError> {
    Ok(match decode_request_ref(buf)? {
        Decoded::Frame(consumed, id, (req, _meta)) => Decoded::Frame(consumed, id, req.to_owned()),
        Decoded::Incomplete => Decoded::Incomplete,
    })
}

/// Forwards to [`decode_response`]; `version` is ignored. Its only
/// caller is `benchmark/src/openloop.rs`.
#[doc(hidden)]
pub fn decode_response_versioned(
    buf: &[u8],
    _version: u16,
) -> Result<Decoded<Response>, WireError> {
    decode_response(buf)
}

/// Decode one response frame from the front of `buf`.
pub fn decode_response(buf: &[u8]) -> Result<Decoded<Response>, WireError> {
    let Some((consumed, opcode, id, body)) = split_frame(buf)? else {
        return Ok(Decoded::Incomplete);
    };
    let mut c = Cursor { buf: body, pos: 0 };
    let resp = match opcode {
        OP_PONG => Response::Pong,
        OP_VALUE => match c.u8()? {
            0 => Response::Value(None),
            1 => Response::Value(Some(c.bytes()?)),
            _ => return Err(WireError::Malformed),
        },
        OP_PUT_OK => Response::PutOk,
        OP_DELETED => Response::Deleted(c.u8()? != 0),
        OP_VALUES => {
            let n = c.u32()? as usize;
            if n > body.len() {
                return Err(WireError::Malformed);
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(match c.u8()? {
                    0 => Ok(None),
                    1 => Ok(Some(c.bytes()?)),
                    2 => Err(ErrorCode::from_u16(c.u16()?).ok_or(WireError::Malformed)?),
                    _ => return Err(WireError::Malformed),
                });
            }
            Response::Values(items)
        }
        OP_BATCH_STATUS => {
            let n = c.u32()? as usize;
            if n > body.len() {
                return Err(WireError::Malformed);
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(match c.u16()? {
                    0 => Ok(()),
                    code => Err(ErrorCode::from_u16(code).ok_or(WireError::Malformed)?),
                });
            }
            Response::BatchStatus(items)
        }
        OP_METRICS_REPLY => Response::Metrics(c.bytes()?),
        OP_TRACE_REPLY => Response::Trace(c.bytes()?),
        OP_HELLO_REPLY => Response::HelloAck { version: c.u16()?, features: c.u64()? },
        OP_RESHARD_REPLY => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            if n * 4 > body.len() {
                return Err(WireError::Malformed);
            }
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                slots.push(c.u32()?);
            }
            Response::Reshard {
                epoch,
                slots,
                state: c.u8()?,
                started: c.u64()?,
                committed: c.u64()?,
                aborted: c.u64()?,
            }
        }
        OP_WRONG_SHARD => Response::WrongShard { epoch: c.u64()?, hint: c.u32()? },
        OP_ERROR => Response::Error {
            code: ErrorCode::from_u16(c.u16()?).ok_or(WireError::Malformed)?,
            message: String::from_utf8_lossy(&c.bytes()?).into_owned(),
            retry_after_ms: c.u64()?,
        },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finished()?;
    Ok(Decoded::Frame(consumed, id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&mut buf, 7, &req).unwrap();
        match decode_request(&buf).unwrap() {
            Decoded::Frame(consumed, id, got) => {
                assert_eq!(consumed, buf.len());
                assert_eq!(id, 7);
                assert_eq!(got, req);
            }
            Decoded::Incomplete => panic!("complete frame decoded as incomplete"),
        }
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&mut buf, 99, &resp).unwrap();
        match decode_response(&buf).unwrap() {
            Decoded::Frame(consumed, id, got) => {
                assert_eq!(consumed, buf.len());
                assert_eq!(id, 99);
                assert_eq!(got, resp);
            }
            Decoded::Incomplete => panic!("complete frame decoded as incomplete"),
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Get { key: b"k".to_vec() });
        round_trip_request(Request::Put { key: b"k".to_vec(), value: b"v".to_vec() });
        round_trip_request(Request::Delete { key: vec![] });
        round_trip_request(Request::MultiGet { keys: vec![b"a".to_vec(), vec![], b"c".to_vec()] });
        round_trip_request(Request::PutBatch {
            pairs: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), vec![0u8; 300])],
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Hello { version: PROTOCOL_VERSION, features: 0b101 });
        round_trip_request(Request::Reshard { mode: 0, source: 0, target: 0 });
        round_trip_request(Request::Reshard { mode: 1, source: 2, target: 6 });
    }

    #[test]
    fn ref_decode_matches_owned_and_borrows_in_place() {
        let reqs = [
            Request::Ping,
            Request::Get { key: b"k".to_vec() },
            Request::Put { key: b"key".to_vec(), value: vec![9u8; 64] },
            Request::Delete { key: b"gone".to_vec() },
            Request::MultiGet { keys: vec![b"a".to_vec(), vec![], b"c".to_vec()] },
            Request::PutBatch { pairs: vec![(b"a".to_vec(), b"1".to_vec())] },
            Request::Metrics,
            Request::Hello { version: 2, features: 3 },
        ];
        let mut buf = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            encode_request(&mut buf, i as u64 + 1, req).unwrap();
        }
        let mut offset = 0;
        for (i, want) in reqs.iter().enumerate() {
            match decode_request_ref(&buf[offset..]).unwrap() {
                Decoded::Frame(consumed, id, (got, meta)) => {
                    assert_eq!(id, i as u64 + 1);
                    assert_eq!(meta, RequestMeta::default());
                    assert_eq!(&got.to_owned(), want, "ref decode diverged for {want:?}");
                    assert_eq!(got.op_index(), request_op_index(want));
                    // The borrowed form must point into the frame buffer,
                    // not at a copy.
                    if let RequestRef::Put { key, .. } = got {
                        let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
                        assert!(buf_range.contains(&(key.as_ptr() as usize)));
                    }
                    offset += consumed;
                }
                Decoded::Incomplete => panic!("complete frame decoded as incomplete"),
            }
        }
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Value(None));
        round_trip_response(Response::Value(Some(b"v".to_vec())));
        round_trip_response(Response::PutOk);
        round_trip_response(Response::Deleted(true));
        round_trip_response(Response::Values(vec![
            Ok(None),
            Ok(Some(b"x".to_vec())),
            Err(ErrorCode::EntryMacMismatch),
        ]));
        round_trip_response(Response::BatchStatus(vec![Ok(()), Err(ErrorCode::ShardUnavailable)]));
        round_trip_response(Response::Metrics(vec![1, 2, 3, 4, 5]));
        round_trip_response(Response::HelloAck { version: 2, features: 0 });
        round_trip_response(Response::Reshard {
            epoch: 3,
            slots: (0..64u32).map(|s| s % 4).collect(),
            state: 2,
            started: 4,
            committed: 2,
            aborted: 1,
        });
        round_trip_response(Response::WrongShard { epoch: 9, hint: 5 });
        round_trip_response(Response::Error {
            code: ErrorCode::TooManyConnections,
            message: "busy".to_string(),
            retry_after_ms: 0,
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "shard 3 overloaded".to_string(),
            retry_after_ms: 125,
        });
    }

    /// The one frame layout, pinned byte for byte: a GET carrying a
    /// full trailer, a PUT with the zero trailer, a METRICS request and
    /// reply, and an ERROR reply. Any change here is a wire break that needs a new
    /// `PROTOCOL_VERSION`.
    #[test]
    fn golden_frames_pin_the_wire_layout() {
        #[rustfmt::skip]
        let get: &[u8] = &[
            39, 0, 0, 0,                    // frame_len
            0x02,                           // GET
            1, 0, 0, 0, 0, 0, 0, 0,         // request id
            1, 0, 0, 0, b'k',               // key
            0x02, 0x01, 0, 0, 0, 0, 0, 0,   // deadline_ns = 0x0102
            0xAB, 0, 0, 0, 0, 0, 0, 0,      // trace id
            1,                              // flags: sampled
            3, 0, 0, 0, 0, 0, 0, 0,         // routing epoch
        ];
        #[rustfmt::skip]
        let put: &[u8] = &[
            44, 0, 0, 0,
            0x03,                           // PUT
            2, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, b'k',               // key
            1, 0, 0, 0, b'v',               // value
            0, 0, 0, 0, 0, 0, 0, 0,         // zero trailer: deadline,
            0, 0, 0, 0, 0, 0, 0, 0,         // trace id,
            0,                              // flags,
            0, 0, 0, 0, 0, 0, 0, 0,         // routing epoch
        ];
        #[rustfmt::skip]
        let metrics: &[u8] = &[
            17, 0, 0, 0,
            0x89,                           // METRICS_REPLY
            3, 0, 0, 0, 0, 0, 0, 0,
            4, 0, 0, 0, b'A', b'T', b'E', b'L', // opaque snapshot bytes
        ];
        #[rustfmt::skip]
        let error: &[u8] = &[
            27, 0, 0, 0,
            0xFF,                           // ERROR
            4, 0, 0, 0, 0, 0, 0, 0,
            27, 0,                          // code: Overloaded
            4, 0, 0, 0, b'b', b'u', b's', b'y',
            250, 0, 0, 0, 0, 0, 0, 0,       // retry_after_ms
        ];

        let meta = RequestMeta {
            deadline_ns: 0x0102,
            trace: TraceContext { id: 0xAB, sampled: true },
            routing_epoch: 3,
        };
        let get_req = Request::Get { key: b"k".to_vec() };
        let mut buf = Vec::new();
        encode_request_meta(&mut buf, 1, &get_req, &meta).unwrap();
        assert_eq!(buf, get);
        match decode_request_ref(get).unwrap() {
            Decoded::Frame(consumed, 1, (got, got_meta)) => {
                assert_eq!(consumed, get.len());
                assert_eq!(got.to_owned(), get_req);
                assert_eq!(got_meta, meta);
            }
            other => panic!("GET did not decode: {other:?}"),
        }

        let put_req = Request::Put { key: b"k".to_vec(), value: b"v".to_vec() };
        buf.clear();
        encode_request(&mut buf, 2, &put_req).unwrap();
        assert_eq!(buf, put);
        assert_eq!(decode_request(put).unwrap(), Decoded::Frame(put.len(), 2, put_req));

        let metrics_resp = Response::Metrics(b"ATEL".to_vec());
        buf.clear();
        encode_response(&mut buf, 3, &metrics_resp).unwrap();
        assert_eq!(buf, metrics);
        assert_eq!(
            decode_response(metrics).unwrap(),
            Decoded::Frame(metrics.len(), 3, metrics_resp)
        );

        let error_resp = Response::Error {
            code: ErrorCode::Overloaded,
            message: "busy".to_string(),
            retry_after_ms: 250,
        };
        buf.clear();
        encode_response(&mut buf, 4, &error_resp).unwrap();
        assert_eq!(buf, error);
        assert_eq!(decode_response(error).unwrap(), Decoded::Frame(error.len(), 4, error_resp));

        // Control ops carry no trailer, whatever meta the caller holds.
        let (mut plain, mut with_meta) = (Vec::new(), Vec::new());
        encode_request(&mut plain, 5, &Request::Metrics).unwrap();
        encode_request_meta(&mut with_meta, 5, &Request::Metrics, &meta).unwrap();
        assert_eq!(plain, with_meta);
        assert_eq!(plain, [9, 0, 0, 0, 0x09, 5, 0, 0, 0, 0, 0, 0, 0]);

        // The retired STATS and HEALTH opcodes are unknown, requests
        // and replies alike.
        for op in [0x07, 0x08] {
            let mut frame_buf = Vec::new();
            frame(&mut frame_buf, op, 6, |_| {}).unwrap();
            assert_eq!(decode_request(&frame_buf), Err(WireError::UnknownOpcode(op)));
            frame_buf.clear();
            frame(&mut frame_buf, op | 0x80, 6, |_| {}).unwrap();
            assert_eq!(decode_response(&frame_buf), Err(WireError::UnknownOpcode(op | 0x80)));
        }
    }

    /// The TRACE opcode round-trips its mode and cursor list, and the
    /// TRACE_REPLY payload comes back byte-identical.
    #[test]
    fn trace_request_and_reply_round_trip() {
        let req = Request::Trace { mode: 0, cursors: vec![3, 0, u64::MAX] };
        let mut buf = Vec::new();
        encode_request(&mut buf, 11, &req).unwrap();
        match decode_request(&buf).unwrap() {
            Decoded::Frame(consumed, id, got) => {
                assert_eq!(consumed, buf.len());
                assert_eq!(id, 11);
                assert_eq!(got, req);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        let resp = Response::Trace(vec![0xA5; 32]);
        let mut out = Vec::new();
        encode_response(&mut out, 11, &resp).unwrap();
        match decode_response(&out).unwrap() {
            Decoded::Frame(_, _, got) => assert_eq!(got, resp),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_encode_is_refused_and_rolled_back() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::Ping).unwrap();
        let before = buf.clone();
        // One frame over 4 MiB of aggregate key bytes.
        let keys = vec![vec![0u8; 1 << 20]; 5];
        assert!(matches!(
            encode_request(&mut buf, 2, &Request::MultiGet { keys }),
            Err(WireError::FrameTooLarge { .. })
        ));
        // Earlier pipelined bytes are intact, nothing partial appended.
        assert_eq!(buf, before);

        let mut buf = Vec::new();
        assert!(matches!(
            encode_response(&mut buf, 3, &Response::Value(Some(vec![0u8; MAX_FRAME_LEN]))),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frames_are_incomplete_not_errors() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::Put { key: b"key".to_vec(), value: b"val".to_vec() })
            .unwrap();
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), Decoded::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        for id in 1..=5u64 {
            encode_request(&mut buf, id, &Request::Get { key: vec![id as u8] }).unwrap();
        }
        let mut offset = 0;
        for want in 1..=5u64 {
            match decode_request(&buf[offset..]).unwrap() {
                Decoded::Frame(consumed, id, Request::Get { key }) => {
                    assert_eq!(id, want);
                    assert_eq!(key, vec![want as u8]);
                    offset += consumed;
                }
                other => panic!("unexpected decode {other:?}"),
            }
        }
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn oversized_and_garbage_frames_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_FRAME_LEN + 1) as u32);
        assert!(matches!(decode_request(&buf), Err(WireError::FrameTooLarge { .. })));

        let mut buf = Vec::new();
        frame(&mut buf, 0x6F, 3, |_| {}).unwrap();
        assert_eq!(decode_request(&buf), Err(WireError::UnknownOpcode(0x6F)));

        // A truncated body inside a complete frame is malformed.
        let mut buf = Vec::new();
        frame(&mut buf, OP_GET, 3, |b| put_u32(b, 100)).unwrap();
        assert_eq!(decode_request(&buf), Err(WireError::Malformed));

        // So is a data frame one byte short of its trailer.
        let mut buf = Vec::new();
        frame(&mut buf, OP_DELETE, 3, |b| {
            put_bytes(b, b"k");
            b.extend_from_slice(&[0; 24]);
        })
        .unwrap();
        assert_eq!(decode_request(&buf), Err(WireError::Malformed));

        // Trailing junk after a valid body is malformed too.
        let mut buf = Vec::new();
        frame(&mut buf, OP_PING, 3, |b| b.push(0)).unwrap();
        assert_eq!(decode_request(&buf), Err(WireError::Malformed));
    }

    #[test]
    fn error_codes_are_stable_and_reversible() {
        let mut decodable = 0;
        for v in 0..=u16::MAX {
            if let Some(c) = ErrorCode::from_u16(v) {
                assert_eq!(c as u16, v, "{c:?} decodes from the wrong value");
                decodable += 1;
            }
        }
        // 1..=7 integrity, 16..=29 resource, 32..=37 protocol.
        assert_eq!(decodable, 7 + 14 + 6);
    }

    #[test]
    fn store_errors_map_to_codes() {
        assert_eq!(
            ErrorCode::from_store_error(&StoreError::Integrity(Violation::EntryMacMismatch)),
            ErrorCode::EntryMacMismatch
        );
        assert!(ErrorCode::from_store_error(&StoreError::Integrity(Violation::CounterReuse {
            counter: 9
        }))
        .is_integrity_violation());
        let shard = StoreError::ShardUnavailable { shard: 3 };
        assert_eq!(ErrorCode::from_store_error(&shard), ErrorCode::ShardUnavailable);
        assert!(!ErrorCode::from_store_error(&shard).is_integrity_violation());
        assert_eq!(
            ErrorCode::from_store_error(&StoreError::ShardQuarantined { shard: 1 }),
            ErrorCode::ShardQuarantined
        );
        assert_eq!(
            ErrorCode::from_store_error(&StoreError::Integrity(Violation::DataDestroyed)),
            ErrorCode::DataDestroyed
        );
        assert_eq!(
            ErrorCode::from_store_error(&StoreError::ReplicaDiverged { shard: 2 }),
            ErrorCode::ReplicaDiverged
        );
        assert_eq!(
            ErrorCode::from_store_error(&StoreError::ExportUnsupported),
            ErrorCode::ExportUnsupported
        );
        let overload = StoreError::Overloaded { shard: 2, retry_after_ms: 40 };
        assert_eq!(ErrorCode::from_store_error(&overload), ErrorCode::Overloaded);
        assert!(!ErrorCode::from_store_error(&overload).is_integrity_violation());
    }
}
