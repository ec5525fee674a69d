//! Property tests for the service's network-facing codecs.
//!
//! Two guarantees the service makes to the open network:
//! 1. **No panic, ever**: arbitrary bytes thrown at the HTTP request
//!    parser and the JSON-RPC parser produce a verdict, never a crash.
//! 2. **Canonical round trip**: a well-formed JSON-RPC request
//!    re-encodes byte-identically after parsing.

use pda_svc::http::{parse_request, parse_response_bytes, HttpParse, RequestBuffer};
use pda_svc::rpc::{from_hex, to_hex, RpcRequest};
use pda_telemetry::json::Json;
use proptest::prelude::*;

/// Frame a well-formed request with the given body.
fn frame_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST /{path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// A strategy over JSON-RPC method parameter values (flat objects of
/// the shapes the service's methods actually take).
fn params_strategy() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<u64>().prop_map(|n| Json::Obj(vec![("nonce".to_string(), Json::UInt(n))])),
        "[a-z0-9]{0,64}".prop_map(|s| Json::Obj(vec![("records".to_string(), Json::Str(s))])),
        ("[a-z/0-9]{0,16}", any::<u64>()).prop_map(|(s, l)| Json::Obj(vec![
            ("subject".to_string(), Json::Str(s)),
            ("limit".to_string(), Json::UInt(l)),
        ])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The HTTP parser never panics on arbitrary input bytes.
    #[test]
    fn http_parser_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = parse_request(&buf);
    }

    /// Neither does it panic when the input *looks* like HTTP.
    #[test]
    fn http_parser_never_panics_on_http_like_input(
        method in "[A-Z]{1,8}",
        path in "[ -~]{0,64}",
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut wire = format!("{method} /{path} HTTP/1.1\r\n").into_bytes();
        wire.extend_from_slice(&garbage);
        let _ = parse_request(&wire);
    }

    /// A correctly framed request parses completely and faithfully.
    #[test]
    fn http_well_formed_requests_parse(body in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut wire = format!(
            "POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        ).into_bytes();
        wire.extend_from_slice(&body);
        let HttpParse::Complete(req, used) = parse_request(&wire) else {
            return Err(TestCaseError::fail("expected complete parse"));
        };
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(req.body, body);
    }

    /// Keep-alive framing: N well-formed requests concatenated into
    /// one stream and fed across an arbitrary split boundary parse to
    /// exactly N requests, whose consumed-byte counts tile the buffer
    /// with no gap, overlap, or leftover — the invariant pipelining
    /// rests on.
    #[test]
    fn pipelined_requests_tile_the_buffer(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256), 1..8),
        split_seed in any::<usize>(),
    ) {
        let wires: Vec<Vec<u8>> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| frame_request(&format!("r{i}"), b))
            .collect();
        let stream: Vec<u8> = wires.concat();
        let split = split_seed % (stream.len() + 1);

        let mut rb = RequestBuffer::new();
        let mut parsed = Vec::new();
        let mut consumed = 0usize;
        for part in [&stream[..split], &stream[split..]] {
            rb.extend(part);
            loop {
                match rb.next_request() {
                    HttpParse::Complete(req, used) => {
                        // Offsets tile: this request's bytes are exactly
                        // the next `used` bytes of the original stream.
                        let expect = &wires[parsed.len()];
                        prop_assert_eq!(used, expect.len(), "consumed-byte count");
                        prop_assert_eq!(
                            &stream[consumed..consumed + used],
                            expect.as_slice()
                        );
                        consumed += used;
                        parsed.push(req);
                    }
                    HttpParse::Incomplete => break,
                    HttpParse::Invalid(r) =>
                        return Err(TestCaseError::fail(format!("invalid: {r}"))),
                }
            }
        }
        prop_assert_eq!(parsed.len(), bodies.len(), "exactly N requests");
        prop_assert_eq!(consumed, stream.len(), "offsets tile the whole buffer");
        prop_assert!(rb.is_empty());
        for (req, body) in parsed.iter().zip(&bodies) {
            prop_assert_eq!(&req.body, body);
        }
        // And the scan never went quadratic: each byte is visited O(1)
        // times (the +3 backoff per read bounds the constant).
        prop_assert!(rb.bytes_scanned() <= 3 * stream.len() as u64 + 8);
    }

    /// The incremental buffer never panics on arbitrary bytes fed in
    /// arbitrary chunkings.
    #[test]
    fn request_buffer_never_panics(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 0..8),
    ) {
        let mut rb = RequestBuffer::new();
        for c in &chunks {
            rb.extend(c);
            // Drain until the buffer needs more bytes or goes invalid.
            while let HttpParse::Complete(_, _) = rb.next_request() {}
        }
    }

    /// The client-side response parser never panics on arbitrary
    /// bytes.
    #[test]
    fn response_parser_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = parse_response_bytes(&buf);
    }

    /// The JSON-RPC parser never panics on arbitrary text.
    #[test]
    fn rpc_parser_never_panics(text in "[ -~\\r\\n\\t]{0,512}") {
        let _ = RpcRequest::parse(&text);
    }

    /// Well-formed requests round-trip byte-identically:
    /// `encode(parse(encode(r))) == encode(r)`.
    #[test]
    fn rpc_round_trip_is_byte_identical(
        id in any::<u64>(),
        method in "[a-z-]{1,24}",
        params in params_strategy(),
        trace_nonce in any::<u64>(),
    ) {
        let mut req = RpcRequest::new(id, &method, params);
        // Half the cases carry a traceparent, half don't.
        if trace_nonce % 2 == 1 {
            req = req.with_traceparent(pda_telemetry::TraceCtx::for_nonce(trace_nonce).traceparent());
        }
        let wire = req.encode();
        let back = RpcRequest::parse(&wire)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.encode(), wire);
    }

    /// The traceparent parser never panics on arbitrary field
    /// contents — including multi-byte UTF-8 straddling the 32-byte
    /// trace field's split point — whether fed raw or through a full
    /// JSON-RPC round trip, the way `dispatch` receives it from the
    /// network.
    #[test]
    fn traceparent_parser_never_panics(
        raw in "[0-9a-f é☃-]{0,64}",
        head in "[0-9a-f]{0,20}",
        mid in "[0-9a-fé☃]",
        span in "[0-9a-f]{16}",
    ) {
        let _ = pda_telemetry::TraceCtx::parse_traceparent(&raw);
        // A correctly framed header whose trace field may contain a
        // multi-byte char at any byte offset, padded to 32 bytes so
        // the length check passes and the split point is exercised.
        let mut field = head;
        field.push_str(&mid);
        let used = field.len();
        if used <= 32 {
            field.push_str(&"0".repeat(32 - used));
        }
        let framed = format!("00-{field}-{span}-01");
        let _ = pda_telemetry::TraceCtx::parse_traceparent(&framed);
        // And via the RPC codec, as the service's dispatch path does.
        let req = RpcRequest::new(1, "appraise", Json::Null).with_traceparent(framed);
        let back = RpcRequest::parse(&req.encode())
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        if let Some(tp) = back.traceparent.as_deref() {
            let _ = pda_telemetry::TraceCtx::parse_traceparent(tp);
        }
    }

    /// Hex codec: encode∘decode is the identity, and decode never
    /// panics on arbitrary strings, multi-byte characters included.
    #[test]
    fn hex_round_trip_and_no_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256),
                                   junk in "[ -~é☃]{0,64}") {
        prop_assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        let _ = from_hex(&junk);
    }
}
