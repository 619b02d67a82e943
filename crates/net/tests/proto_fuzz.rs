//! Wire-decoder fuzzing: the decoder sits on the untrusted network
//! edge, so arbitrary, truncated and oversized byte soup must produce
//! typed decode results — `Frame`, `Incomplete` or a `WireError` —
//! and never panic, over-read, or accept a frame beyond the 4 MiB cap.

use aria_net::proto::{
    self, decode_request, decode_request_ref, decode_response, Decoded, ErrorCode, Request,
    RequestMeta, Response, TraceContext, WireError, MAX_FRAME_LEN,
};
use proptest::prelude::*;

fn key() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(any::<u8>(), 0..24)
}

fn val() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(any::<u8>(), 0..48)
}

/// Data ops — the requests that carry the trailer — with short
/// keys/values so many frames fit a case.
fn arb_data_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        key().prop_map(|key| Request::Get { key }),
        (key(), val()).prop_map(|(key, value)| Request::Put { key, value }),
        key().prop_map(|key| Request::Delete { key }),
        collection::vec(key(), 0..4).prop_map(|keys| Request::MultiGet { keys }),
        collection::vec((key(), val()), 0..4).prop_map(|pairs| Request::PutBatch { pairs }),
    ]
}

/// Control ops: every other opcode.
fn arb_control_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Metrics),
        (any::<u16>(), any::<u64>())
            .prop_map(|(version, features)| Request::Hello { version, features }),
        (any::<u8>(), collection::vec(any::<u64>(), 0..8))
            .prop_map(|(mode, cursors)| Request::Trace { mode, cursors }),
        (any::<u8>(), any::<u32>(), any::<u32>())
            .prop_map(|(mode, source, target)| Request::Reshard { mode, source, target }),
    ]
}

/// Every opcode the wire speaks, for stream-level properties.
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![5 => arb_data_request(), 7 => arb_control_request()]
}

/// `resp` must round-trip, and every truncation must stay `Incomplete`.
fn check_response_round_trip(id: u64, resp: Response) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    proto::encode_response(&mut buf, id, &resp).expect("small frame encodes");
    prop_assert_eq!(decode_response(&buf), Ok(Decoded::Frame(buf.len(), id, resp)));
    for cut in 0..buf.len() {
        prop_assert!(
            matches!(decode_response(&buf[..cut]), Ok(Decoded::Incomplete)),
            "truncated response at {} must be Incomplete",
            cut
        );
    }
    Ok(())
}

/// Exercise one decoder over a buffer and sanity-check what comes back.
fn check_decode<T>(
    buf: &[u8],
    decode: impl Fn(&[u8]) -> Result<Decoded<T>, WireError>,
) -> Result<(), TestCaseError> {
    match decode(buf) {
        Ok(Decoded::Frame(consumed, _id, _msg)) => {
            prop_assert!(consumed <= buf.len(), "consumed {} > {} buffered", consumed, buf.len());
            prop_assert!(consumed >= 13, "a frame is at least header-sized");
        }
        Ok(Decoded::Incomplete) => {
            // Incomplete must only be claimed when the declared frame
            // really extends past the buffer.
            if buf.len() >= 4 {
                let declared = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
                prop_assert!(4 + declared > buf.len(), "complete frame reported Incomplete");
            }
        }
        Err(WireError::FrameTooLarge { len }) => {
            prop_assert!(len > MAX_FRAME_LEN, "FrameTooLarge for a {len}-byte frame");
        }
        Err(WireError::Malformed) | Err(WireError::UnknownOpcode(_)) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pure garbage: both decoders must return a typed result.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        check_decode(&bytes, decode_request)?;
        check_decode(&bytes, decode_response)?;
    }

    /// A valid frame truncated at every possible point must come back
    /// `Incomplete` (or a typed error once the header itself is cut),
    /// and the full buffer must round-trip.
    #[test]
    fn truncated_valid_frames_are_incomplete(id in any::<u64>(), klen in 0usize..64) {
        let req = Request::Get { key: vec![0xA5; klen] };
        let mut buf = Vec::new();
        proto::encode_request(&mut buf, id, &req).expect("small frame encodes");
        for cut in 0..buf.len() {
            match decode_request(&buf[..cut]) {
                Ok(Decoded::Incomplete) => {}
                other => prop_assert!(false, "cut at {cut}: unexpected {other:?}"),
            }
        }
        match decode_request(&buf) {
            Ok(Decoded::Frame(consumed, got_id, got)) => {
                prop_assert_eq!(consumed, buf.len());
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got, req);
            }
            other => prop_assert!(false, "full frame failed to decode: {other:?}"),
        }
    }

    /// A length prefix over the cap is rejected before any allocation,
    /// no matter what follows it.
    #[test]
    fn oversized_length_prefix_is_rejected(over in 1u64..1_000_000, tail in collection::vec(any::<u8>(), 0..32)) {
        let declared = (MAX_FRAME_LEN as u64 + over) as u32;
        let mut buf = declared.to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        prop_assert_eq!(
            decode_request(&buf),
            Err(WireError::FrameTooLarge { len: declared as usize })
        );
        prop_assert_eq!(
            decode_response(&buf),
            Err(WireError::FrameTooLarge { len: declared as usize })
        );
    }

    /// Corrupting one byte of a valid frame must still yield a typed
    /// result — decoded frame, Incomplete, or typed error.
    #[test]
    fn bit_flipped_frames_stay_typed(
        id in any::<u64>(),
        pos_pick in any::<usize>(),
        bit in 0u8..8,
    ) {
        let req = Request::Put { key: b"key".to_vec(), value: vec![7u8; 20] };
        let mut buf = Vec::new();
        proto::encode_request(&mut buf, id, &req).expect("small frame encodes");
        let pos = pos_pick % buf.len();
        buf[pos] ^= 1 << bit;
        check_decode(&buf, decode_request)?;
    }

    /// HELLO is version/feature negotiation — it must round-trip every
    /// possible (version, features) pair through both decoders, and the
    /// borrowed decode must agree with the owned one.
    #[test]
    fn hello_round_trips_all_versions(id in any::<u64>(), version in any::<u16>(), features in any::<u64>()) {
        let req = Request::Hello { version, features };
        let mut buf = Vec::new();
        proto::encode_request(&mut buf, id, &req).expect("hello frames are tiny");
        match decode_request(&buf) {
            Ok(Decoded::Frame(consumed, got_id, got)) => {
                prop_assert_eq!(consumed, buf.len());
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(&got, &req);
            }
            other => prop_assert!(false, "hello failed to decode: {other:?}"),
        }
        match decode_request_ref(&buf) {
            Ok(Decoded::Frame(_, got_id, (got, meta))) => {
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got.to_owned(), req);
                prop_assert_eq!(meta, RequestMeta::default());
            }
            other => prop_assert!(false, "borrowed hello decode failed: {other:?}"),
        }
        // Truncations stay Incomplete — never a bogus negotiation.
        for cut in 0..buf.len() {
            prop_assert!(
                matches!(decode_request(&buf[..cut]), Ok(Decoded::Incomplete)),
                "truncated hello at {} must be Incomplete", cut
            );
        }
    }

    /// Stream reassembly, the reactor's read path in miniature: several
    /// frames encoded back to back, delivered in arbitrary chunk splits,
    /// must decode to exactly the same sequence as one contiguous
    /// buffer — no frame lost, duplicated, reordered, or corrupted at a
    /// chunk boundary.
    #[test]
    fn split_reads_reassemble_identically(
        reqs in collection::vec(arb_request(), 1..8),
        splits in collection::vec(1usize..64, 0..16),
    ) {
        let mut stream = Vec::new();
        for (id, req) in reqs.iter().enumerate() {
            proto::encode_request(&mut stream, id as u64, req).expect("small frame encodes");
        }

        // Reference: decode the whole stream in one pass.
        let mut expect = Vec::new();
        let mut off = 0;
        while off < stream.len() {
            match decode_request(&stream[off..]) {
                Ok(Decoded::Frame(consumed, id, req)) => {
                    off += consumed;
                    expect.push((id, req));
                }
                other => prop_assert!(false, "contiguous decode failed: {other:?}"),
            }
        }
        prop_assert_eq!(expect.len(), reqs.len());

        // Replay through an incremental buffer, feeding one chunk at a
        // time (chunk sizes from `splits`, cycled; remainder at the
        // end), draining every complete frame after each arrival —
        // exactly what a reactor does with its per-connection rbuf.
        let mut got = Vec::new();
        let mut rbuf: Vec<u8> = Vec::new();
        let mut fed = 0;
        let mut split_idx = 0;
        while fed < stream.len() {
            let step = if splits.is_empty() {
                stream.len() - fed
            } else {
                splits[split_idx % splits.len()].min(stream.len() - fed)
            };
            split_idx += 1;
            rbuf.extend_from_slice(&stream[fed..fed + step]);
            fed += step;

            let mut roff = 0;
            loop {
                match decode_request_ref(&rbuf[roff..]) {
                    Ok(Decoded::Frame(consumed, id, (req, _meta))) => {
                        got.push((id, req.to_owned()));
                        roff += consumed;
                    }
                    Ok(Decoded::Incomplete) => break,
                    Err(e) => {
                        prop_assert!(false, "split decode failed: {e:?}");
                        break;
                    }
                }
            }
            rbuf.drain(..roff);
        }
        prop_assert!(rbuf.is_empty(), "stream ended with {} undecoded bytes", rbuf.len());
        prop_assert_eq!(got, expect);
    }

    /// Hostile batch counts (`MultiGet`/`PutBatch` claiming more items
    /// than bytes exist) must be rejected, not trusted as a capacity.
    #[test]
    fn hostile_batch_counts_are_malformed(count in 1_000_000u32..u32::MAX) {
        // Hand-build: opcode 0x05 (MULTI_GET), id 0, body = count only.
        let mut buf = Vec::new();
        let body_len = 9u32 + 4; // opcode + id + u32 count
        buf.extend_from_slice(&body_len.to_le_bytes());
        buf.push(0x05);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        prop_assert_eq!(decode_request(&buf), Err(WireError::Malformed));
    }

    /// Every data op ends with the deadline / trace / routing-epoch
    /// trailer: any (request, trailer) combination must round-trip and
    /// every truncation must stay `Incomplete`.
    #[test]
    fn request_trailer_round_trips(
        id in any::<u64>(),
        req in arb_data_request(),
        deadline_ns in any::<u64>(),
        trace_id in any::<u64>(),
        sampled in any::<bool>(),
        routing_epoch in any::<u64>(),
    ) {
        let meta = RequestMeta {
            deadline_ns,
            trace: TraceContext { id: trace_id, sampled },
            routing_epoch,
        };
        let mut buf = Vec::new();
        proto::encode_request_meta(&mut buf, id, &req, &meta).expect("small frame encodes");
        match decode_request_ref(&buf) {
            Ok(Decoded::Frame(consumed, got_id, (got, got_meta))) => {
                prop_assert_eq!(consumed, buf.len());
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got.to_owned(), req.clone());
                prop_assert_eq!(got_meta, meta);
            }
            other => prop_assert!(false, "data frame failed to decode: {other:?}"),
        }
        for cut in 0..buf.len() {
            prop_assert!(
                matches!(decode_request_ref(&buf[..cut]), Ok(Decoded::Incomplete)),
                "truncated data frame at {} must be Incomplete", cut
            );
        }
    }

    /// Control ops carry no trailer: whatever meta the caller holds, the
    /// frame is the zero-meta frame, it decodes with the zero meta, and
    /// every truncation stays `Incomplete`.
    #[test]
    fn control_ops_carry_no_trailer(
        id in any::<u64>(),
        req in arb_control_request(),
        deadline_ns in any::<u64>(),
        routing_epoch in any::<u64>(),
    ) {
        let meta = RequestMeta { deadline_ns, trace: TraceContext::NONE, routing_epoch };
        let (mut plain, mut with_meta) = (Vec::new(), Vec::new());
        proto::encode_request(&mut plain, id, &req).expect("small frame encodes");
        proto::encode_request_meta(&mut with_meta, id, &req, &meta).expect("small frame encodes");
        prop_assert_eq!(&plain, &with_meta, "control frame grew a trailer");
        match decode_request_ref(&plain) {
            Ok(Decoded::Frame(consumed, got_id, (got, got_meta))) => {
                prop_assert_eq!(consumed, plain.len());
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got.to_owned(), req.clone());
                prop_assert_eq!(got_meta, RequestMeta::default());
            }
            other => prop_assert!(false, "control frame failed to decode: {other:?}"),
        }
        for cut in 0..plain.len() {
            prop_assert!(
                matches!(decode_request_ref(&plain[..cut]), Ok(Decoded::Incomplete)),
                "truncated control frame at {} must be Incomplete", cut
            );
        }
    }

    /// The `retry_after_ms` field of error responses round-trips and
    /// every truncation stays `Incomplete`.
    #[test]
    fn retry_after_field_round_trips(
        id in any::<u64>(),
        retry_after_ms in any::<u64>(),
        mlen in 0usize..32,
    ) {
        let resp = Response::Error {
            code: ErrorCode::Overloaded,
            message: "x".repeat(mlen),
            retry_after_ms,
        };
        check_response_round_trip(id, resp)?;
    }

    /// The trace flags byte reserves bits 1–7: a frame whose flags byte
    /// has any reserved bit set is `Malformed`, so future flag bits
    /// cannot be smuggled past an old decoder as a sampled bit.
    #[test]
    fn reserved_trace_flag_bits_are_malformed(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        bad_flags in 2u8..=u8::MAX,
    ) {
        let req = Request::Get { key: b"k".to_vec() };
        let meta = RequestMeta {
            trace: TraceContext { id: trace_id, sampled: true },
            ..RequestMeta::default()
        };
        let mut buf = Vec::new();
        proto::encode_request_meta(&mut buf, id, &req, &meta).expect("small frame encodes");
        // The flags byte sits just before the trailing u64 epoch.
        let flags_at = buf.len() - 9;
        buf[flags_at] = bad_flags;
        prop_assert_eq!(
            decode_request_ref(&buf).map(|_| ()),
            Err(WireError::Malformed),
            "reserved flag bits must be rejected"
        );
    }

    /// The typed `WRONG_SHARD` refusal round-trips and every truncation
    /// stays `Incomplete`.
    #[test]
    fn wrong_shard_replies_round_trip(id in any::<u64>(), epoch in any::<u64>(), hint in any::<u32>()) {
        check_response_round_trip(id, Response::WrongShard { epoch, hint })?;
    }

    /// RESHARD replies round-trip any owner table, and every truncation
    /// stays `Incomplete`.
    #[test]
    fn reshard_replies_round_trip(
        id in any::<u64>(),
        epoch in any::<u64>(),
        slots in collection::vec(any::<u32>(), 0..80),
        state in any::<u8>(),
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (started, committed, aborted) = counters;
        let resp = Response::Reshard { epoch, slots, state, started, committed, aborted };
        check_response_round_trip(id, resp)?;
    }

    /// A hostile RESHARD-reply slot count that promises more owners
    /// than the body could hold is `Malformed`, not an allocation.
    #[test]
    fn hostile_reshard_slot_counts_are_malformed(id in any::<u64>(), count in 1_000_000u32..u32::MAX) {
        let reply = Response::Reshard {
            epoch: 1,
            slots: vec![0, 1],
            state: 0,
            started: 0,
            committed: 0,
            aborted: 0,
        };
        let mut buf = Vec::new();
        proto::encode_response(&mut buf, id, &reply).expect("small frame encodes");
        // The slot count is a u32 right after the u64 epoch in the body
        // (13-byte frame header, then epoch).
        buf[21..25].copy_from_slice(&count.to_le_bytes());
        prop_assert_eq!(decode_response(&buf).map(|_| ()), Err(WireError::Malformed));
    }

    /// A hostile TRACE cursor count that promises more cursors than the
    /// body could hold is `Malformed`, not an allocation.
    #[test]
    fn hostile_trace_cursor_counts_are_malformed(id in any::<u64>(), count in 4u32..u32::MAX) {
        let mut buf = Vec::new();
        proto::encode_request(
            &mut buf,
            id,
            &Request::Trace { mode: 0, cursors: vec![1, 2] },
        )
        .expect("small frame encodes");
        // Overwrite the cursor count (1 mode byte after the 13-byte
        // frame header) with one the 16-byte cursor area cannot satisfy.
        buf[14..18].copy_from_slice(&count.to_le_bytes());
        prop_assert_eq!(decode_request(&buf).map(|_| ()), Err(WireError::Malformed));
    }
}

/// The 4 MiB cap holds on the encode path too: a response that cannot
/// fit is refused and the output buffer is left exactly as it was.
#[test]
fn encode_cap_refuses_and_rolls_back() {
    let mut buf = Vec::new();
    proto::encode_response(&mut buf, 1, &Response::Pong).expect("pong fits");
    let before = buf.clone();
    let huge = Response::Value(Some(vec![0u8; MAX_FRAME_LEN]));
    let err = proto::encode_response(&mut buf, 2, &huge).expect_err("over-cap must refuse");
    assert!(matches!(err, WireError::FrameTooLarge { .. }));
    assert_eq!(buf, before, "failed encode must not leave partial bytes");

    let mut out = Vec::new();
    let huge_req = Request::Put { key: vec![1u8; 16], value: vec![2u8; MAX_FRAME_LEN] };
    assert!(matches!(
        proto::encode_request(&mut out, 3, &huge_req),
        Err(WireError::FrameTooLarge { .. })
    ));
    assert!(out.is_empty());
}
