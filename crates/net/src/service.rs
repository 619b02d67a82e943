//! Request service machinery the reactor ([`crate::reactor`]) drives:
//! planning a decoded request into store ops plus a response [`Slot`],
//! assembling the response from store replies, HELLO negotiation, and
//! frame-cap-safe encoding.
//!
//! The contract: a request is *planned* exactly once (its store ops
//! are appended to some batch, its slot remembers what to take back),
//! the batch runs through the sharded store, and [`build_response`]
//! consumes exactly [`Slot::store_ops`] replies per slot, in plan
//! order.

use std::sync::atomic::Ordering;

use aria_store::sharded::{BatchOp, BatchReply, ShardedStore};
use aria_store::{KvStore, ReshardMode, ShardHealth};
use aria_telemetry::{outcome, stage, ReplicaServing, ServingSnapshot, SpanCell, TelemetryHub};

use crate::proto::{self, ErrorCode, RequestRef, Response};
use crate::server::Shared;

/// What one request expects back from the flattened store batch.
pub(crate) enum Slot {
    Pong,
    Metrics,
    Hello {
        version: u16,
        features: u64,
    },
    Trace {
        mode: u8,
        cursors: Vec<u64>,
    },
    Reshard {
        mode: u8,
        source: u32,
        target: u32,
    },
    /// Refused before planning: the client's claimed routing epoch is
    /// stale for at least one key of the request (its slot moved after
    /// that epoch). No store ops were appended; the reply is the typed
    /// WRONG_SHARD refusal carrying the server's current epoch and the
    /// slot's owner.
    WrongShard {
        epoch: u64,
        hint: u32,
    },
    Get,
    Put,
    Delete,
    MultiGet(usize),
    PutBatch(usize),
    /// Refused before planning (expired deadline or net-layer overload
    /// shedding): no store ops were appended, the reply is a typed
    /// error carrying an optional retry-after hint.
    Shed(ErrorCode, u64),
}

impl Slot {
    /// How many store replies this slot consumes from the batch.
    pub(crate) fn store_ops(&self) -> usize {
        match self {
            Slot::Pong
            | Slot::Metrics
            | Slot::Hello { .. }
            | Slot::Trace { .. }
            | Slot::Reshard { .. }
            | Slot::WrongShard { .. }
            | Slot::Shed(..) => 0,
            Slot::Get | Slot::Put | Slot::Delete => 1,
            Slot::MultiGet(n) | Slot::PutBatch(n) => *n,
        }
    }

    /// Operations this request counts as in `ops_served`: store ops for
    /// data requests, one for control requests (and sheds) answered
    /// in-line.
    pub(crate) fn served_units(&self) -> u64 {
        match self {
            Slot::Pong
            | Slot::Metrics
            | Slot::Hello { .. }
            | Slot::Trace { .. }
            | Slot::Reshard { .. }
            | Slot::WrongShard { .. }
            | Slot::Shed(..) => 1,
            _ => self.store_ops() as u64,
        }
    }
}

/// Whether the client's per-op time budget had already elapsed while
/// the request sat in server-side buffers. Control-plane ops never
/// carry a deadline (they bypass admission entirely), and a zero
/// deadline means "no deadline".
pub(crate) fn deadline_expired(deadline_ns: u64, sojourn_ns: u64) -> bool {
    deadline_ns > 0 && sojourn_ns >= deadline_ns
}

/// Per-key stale-routing probe: `Some((owner_hint, current_epoch))`
/// when the key's slot moved after the client's claimed epoch.
pub(crate) type StaleProbe<'a> = &'a dyn Fn(&[u8]) -> Option<(usize, u64)>;

/// Net-layer shedding gate: a *data* op whose deadline already expired
/// (or that sat in server buffers past the CoDel-style sojourn bound)
/// is refused before any store op is planned. Control-plane ops
/// (PING/METRICS/HELLO/TRACE/RESHARD) always pass — observability and
/// failover stay responsive during brownout.
#[allow(clippy::too_many_arguments)] // one per admission input
pub(crate) fn shed_or_plan(
    req: &RequestRef<'_>,
    deadline_ns: u64,
    sojourn_ns: u64,
    shed_sojourn: Option<std::time::Duration>,
    tele: &TelemetryHub,
    span: Option<&SpanCell>,
    stale: StaleProbe<'_>,
    sink: &mut impl FnMut(BatchOp),
) -> Slot {
    if req.is_data_op() {
        let verdict = if deadline_expired(deadline_ns, sojourn_ns) {
            tele.net.ops_shed_deadline.inc();
            Some(Slot::Shed(ErrorCode::DeadlineExceeded, 0))
        } else {
            shed_sojourn.map(|b| b.as_nanos() as u64).filter(|&bound_ns| sojourn_ns > bound_ns).map(
                |bound_ns| {
                    tele.net.ops_shed_overload.inc();
                    let retry_after_ms = ((sojourn_ns - bound_ns) / 1_000_000).clamp(1, 1_000);
                    Slot::Shed(ErrorCode::Overloaded, retry_after_ms)
                },
            )
        };
        if let Some(cell) = span {
            cell.stamp(stage::ADMIT);
            if verdict.is_some() {
                cell.set_outcome(outcome::SHED);
            }
        }
        if let Some(shed) = verdict {
            return shed;
        }
        // Routing-epoch admission: a client that claimed an epoch is
        // refused (whole request, nothing planned) if any of its keys'
        // slots moved after that epoch — serving it could honor routing
        // the client no longer holds. A claim of 0 never refuses.
        if let Some((hint, epoch)) = first_stale_key(req, stale) {
            return Slot::WrongShard { epoch, hint: hint as u32 };
        }
    }
    plan_request(req, sink)
}

/// The first key of a data request whose routing claim is stale, if
/// any, as `(owner_hint, current_epoch)`.
fn first_stale_key(req: &RequestRef<'_>, stale: StaleProbe<'_>) -> Option<(usize, u64)> {
    match req {
        RequestRef::Get { key } | RequestRef::Put { key, .. } | RequestRef::Delete { key } => {
            stale(key)
        }
        RequestRef::MultiGet { keys } => keys.iter().find_map(|k| stale(k)),
        RequestRef::PutBatch { pairs } => pairs.iter().find_map(|(k, _)| stale(k)),
        _ => None,
    }
}

/// Plan one decoded request: append its store ops (copied out of the
/// read buffer here — the single copy on the request path) through
/// `sink`, and return the [`Slot`] that will consume the replies.
pub(crate) fn plan_request(req: &RequestRef<'_>, sink: &mut impl FnMut(BatchOp)) -> Slot {
    match req {
        RequestRef::Ping => Slot::Pong,
        RequestRef::Metrics => Slot::Metrics,
        RequestRef::Hello { version, features } => {
            Slot::Hello { version: *version, features: *features }
        }
        RequestRef::Trace { mode, cursors } => {
            Slot::Trace { mode: *mode, cursors: cursors.clone() }
        }
        RequestRef::Reshard { mode, source, target } => {
            Slot::Reshard { mode: *mode, source: *source, target: *target }
        }
        RequestRef::Get { key } => {
            sink(BatchOp::Get(key.to_vec()));
            Slot::Get
        }
        RequestRef::Put { key, value } => {
            sink(BatchOp::Put(key.to_vec(), value.to_vec()));
            Slot::Put
        }
        RequestRef::Delete { key } => {
            sink(BatchOp::Delete(key.to_vec()));
            Slot::Delete
        }
        RequestRef::MultiGet { keys } => {
            for key in keys {
                sink(BatchOp::Get(key.to_vec()));
            }
            Slot::MultiGet(keys.len())
        }
        RequestRef::PutBatch { pairs } => {
            for (key, value) in pairs {
                sink(BatchOp::Put(key.to_vec(), value.to_vec()));
            }
            Slot::PutBatch(pairs.len())
        }
    }
}

/// HELLO negotiation: ack [`proto::PROTOCOL_VERSION`], granting only
/// the feature bits both sides know, and refuse any other version. The
/// refusal needs no connection state: a peer that keeps talking in
/// another layout fails to decode and the connection closes.
pub(crate) fn negotiate_hello(version: u16, features: u64) -> Response {
    if version != proto::PROTOCOL_VERSION {
        return Response::Error {
            code: ErrorCode::UnsupportedVersion,
            message: format!(
                "protocol version {version} is not supported; this server speaks {}",
                proto::PROTOCOL_VERSION
            ),
            retry_after_ms: 0,
        };
    }
    Response::HelloAck {
        version: proto::PROTOCOL_VERSION,
        features: features & proto::features::SUPPORTED,
    }
}

/// Assemble the response for one planned slot, consuming exactly
/// [`Slot::store_ops`] replies from `replies`.
pub(crate) fn build_response<S: KvStore + Send + 'static>(
    slot: Slot,
    replies: &mut impl Iterator<Item = BatchReply>,
    store: &ShardedStore<S>,
    shared: &Shared,
) -> Response {
    let tele = &shared.tele;
    match slot {
        Slot::Pong => Response::Pong,
        Slot::Hello { version, features } => negotiate_hello(version, features),
        Slot::Metrics => {
            // Serving state first: reading the queue delays refreshes
            // their gauges for the recorder snapshot taken after.
            let serving = serving_section(store, shared);
            let mut snap = tele.snapshot();
            snap.serving = serving;
            Response::Metrics(snap.encode())
        }
        Slot::Trace { mode, cursors } => match mode {
            0 => {
                let (spans, next) = tele.traces.read_since(&cursors);
                Response::Trace(aria_telemetry::encode_spans(&spans, &next))
            }
            1 => {
                // On-request post-mortem: recent events + resident
                // spans, regardless of whether an anomaly fired.
                let (spans, _) = tele.traces.read_since(&[]);
                tele.recorder.note_dump();
                Response::Trace(tele.recorder.render_dump("request", &[], &spans).into_bytes())
            }
            _ => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("unknown TRACE mode {mode}"),
                retry_after_ms: 0,
            },
        },
        Slot::WrongShard { epoch, hint } => Response::WrongShard { epoch, hint },
        Slot::Reshard { mode, source, target } => match mode {
            0 => reshard_reply(store),
            1 | 2 => {
                let m = ReshardMode::from_u8(mode).expect("modes 1 and 2 decode");
                // Starting is asynchronous: the driver runs in the
                // background and the reply is the accept-time status.
                match store.start_reshard(m, source as usize, target as usize) {
                    Ok(()) => reshard_reply(store),
                    Err(e) => error_response(&e),
                }
            }
            _ => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("unknown RESHARD mode {mode}"),
                retry_after_ms: 0,
            },
        },
        Slot::Get => match next_get(replies) {
            Ok(v) => Response::Value(v),
            Err(e) => error_response(&e),
        },
        Slot::Put => match next_put(replies) {
            Ok(()) => Response::PutOk,
            Err(e) => error_response(&e),
        },
        Slot::Delete => match next_delete(replies) {
            Ok(existed) => Response::Deleted(existed),
            Err(e) => error_response(&e),
        },
        Slot::MultiGet(n) => Response::Values(
            (0..n)
                .map(|_| next_get(replies).map_err(|e| ErrorCode::from_store_error(&e)))
                .collect(),
        ),
        Slot::PutBatch(n) => Response::BatchStatus(
            (0..n)
                .map(|_| next_put(replies).map_err(|e| ErrorCode::from_store_error(&e)))
                .collect(),
        ),
        Slot::Shed(code, retry_after_ms) => {
            let message = match code {
                ErrorCode::DeadlineExceeded => {
                    "deadline expired before execution; op was not applied".to_string()
                }
                _ => "server overloaded; op was not applied".to_string(),
            };
            Response::Error { code, message, retry_after_ms }
        }
    }
}

/// The METRICS serving section, read from the server's and the store's
/// own atomics (never a recorder), so it is exact under `telemetry-off`
/// and never waits for a slot lock. Unhealthy groups still count
/// toward `len_estimate` at their last-known size; `degraded` flags
/// that, and also a shard over its queue-delay budget.
fn serving_section<S: KvStore + Send + 'static>(
    store: &ShardedStore<S>,
    shared: &Shared,
) -> ServingSnapshot {
    let unhealthy = store.healths().iter().any(|h| h.health != ShardHealth::Healthy);
    let worst_delay_ns = store.queue_delay_estimates().into_iter().max().unwrap_or(0);
    let over_budget =
        store.queue_delay_budget().is_some_and(|b| worst_delay_ns > b.as_nanos() as u64);
    ServingSnapshot {
        ops_served: shared.ops_served.load(Ordering::Relaxed),
        open_connections: shared.active.load(Ordering::SeqCst) as u64,
        accepted_connections: shared.accepted.load(Ordering::SeqCst),
        len_estimate: store.len_estimate(),
        degraded: unhealthy || over_budget,
        shed_ops_total: store.shed_ops_total(),
        replicas: store
            .replica_healths()
            .into_iter()
            .map(|r| ReplicaServing {
                state: r.health.as_u8(),
                role: r.role.as_u8(),
                lag: r.lag,
                violations: r.violations,
                recoveries: r.recoveries,
            })
            .collect(),
    }
}

/// The RESHARD reply: current routing view + driver status. Also the
/// answer to a successfully accepted start, so the caller immediately
/// learns the epoch it raced against.
fn reshard_reply<S: KvStore + Send + 'static>(store: &ShardedStore<S>) -> Response {
    let status = store.reshard_status();
    Response::Reshard {
        epoch: status.epoch,
        slots: store.routing().owners_snapshot(),
        state: status.state.as_u8(),
        started: status.started,
        committed: status.committed,
        aborted: status.aborted,
    }
}

pub(crate) fn error_response(e: &aria_store::StoreError) -> Response {
    // A stale routing claim gets the typed refusal so clients can
    // refresh-and-retry in one round.
    if let aria_store::StoreError::WrongShard { epoch, hint, .. } = e {
        return Response::WrongShard { epoch: *epoch, hint: *hint as u32 };
    }
    let retry_after_ms = match e {
        aria_store::StoreError::Overloaded { retry_after_ms, .. } => *retry_after_ms,
        _ => 0,
    };
    Response::Error { code: ErrorCode::from_store_error(e), message: e.to_string(), retry_after_ms }
}

/// Encode `resp`; if it exceeds the wire frame cap, send a typed error
/// frame under the same request id instead — the client always gets an
/// answer for every id, never a silently dropped response.
pub(crate) fn encode_or_substitute(wbuf: &mut Vec<u8>, id: u64, resp: &Response) {
    if let Err(e) = proto::encode_response(wbuf, id, resp) {
        let fallback = Response::Error {
            code: ErrorCode::FrameTooLarge,
            message: e.to_string(),
            retry_after_ms: 0,
        };
        proto::encode_response(wbuf, id, &fallback).expect("error frames are tiny");
    }
}

/// Map a framing failure on the inbound stream to the error frame that
/// is sent (under [`proto::CONTROL_ID`]) before the connection closes.
pub(crate) fn wire_failure_response(e: &proto::WireError) -> Response {
    let code = match e {
        proto::WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
        proto::WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        proto::WireError::Malformed => ErrorCode::BadRequest,
    };
    Response::Error { code, message: e.to_string(), retry_after_ms: 0 }
}

/// Record one window/tick worth of per-opcode service latency: the
/// whole window was one store submission, so the amortized per-request
/// figure is the honest number a pipelined client experiences.
pub(crate) fn observe_amortized(tele: &TelemetryHub, elapsed_nanos: u64, op_idxs: &[usize]) {
    let per_req = elapsed_nanos / op_idxs.len().max(1) as u64;
    for &idx in op_idxs {
        tele.net.op_latency[idx].observe(per_req);
    }
}

fn next_get(
    replies: &mut impl Iterator<Item = BatchReply>,
) -> Result<Option<Vec<u8>>, aria_store::StoreError> {
    match replies.next() {
        Some(BatchReply::Get(r)) => r,
        _ => unreachable!("store answered a get slot with a non-get reply"),
    }
}

fn next_put(replies: &mut impl Iterator<Item = BatchReply>) -> Result<(), aria_store::StoreError> {
    match replies.next() {
        Some(BatchReply::Put(r)) => r,
        _ => unreachable!("store answered a put slot with a non-put reply"),
    }
}

fn next_delete(
    replies: &mut impl Iterator<Item = BatchReply>,
) -> Result<bool, aria_store::StoreError> {
    match replies.next() {
        Some(BatchReply::Delete(r)) => r,
        _ => unreachable!("store answered a delete slot with a non-delete reply"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_acks_only_our_version_and_masks_features() {
        assert_eq!(
            negotiate_hello(proto::PROTOCOL_VERSION, u64::MAX),
            Response::HelloAck {
                version: proto::PROTOCOL_VERSION,
                features: proto::features::SUPPORTED
            }
        );
        // Older, newer and zero versions are all refused, typed.
        for v in [0, 1, proto::PROTOCOL_VERSION - 1, proto::PROTOCOL_VERSION + 1, u16::MAX] {
            match negotiate_hello(v, 0) {
                Response::Error { code: ErrorCode::UnsupportedVersion, .. } => {}
                other => panic!("v{v}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn plan_counts_store_ops_and_served_units() {
        let mut ops = Vec::new();
        let slot =
            plan_request(&RequestRef::MultiGet { keys: vec![b"a", b"b", b"c"] }, &mut |op| {
                ops.push(op)
            });
        assert_eq!(slot.store_ops(), 3);
        assert_eq!(slot.served_units(), 3);
        assert_eq!(ops.len(), 3);
        let slot =
            plan_request(&RequestRef::Hello { version: 2, features: 0 }, &mut |op| ops.push(op));
        assert_eq!(slot.store_ops(), 0);
        assert_eq!(slot.served_units(), 1);
        assert_eq!(ops.len(), 3, "control requests push no store ops");
    }
}
