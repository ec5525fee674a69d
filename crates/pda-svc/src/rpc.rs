//! JSON-RPC 2.0 codec over [`pda_telemetry::json`].
//!
//! The service API is JSON-RPC over HTTP POST: one request object per
//! call, one response object per reply. Encoding is canonical — field
//! order is fixed — so `parse(encode(r))` re-encodes byte-identically,
//! a property the codec proptests pin.

use pda_telemetry::json::{parse as parse_json, Json};
use std::fmt;

/// One JSON-RPC request.
#[derive(Clone, Debug, PartialEq)]
pub struct RpcRequest {
    /// Caller-chosen request id, echoed in the response.
    pub id: u64,
    /// Method name (`submit-evidence`, `appraise`, …).
    pub method: String,
    /// W3C-style trace context (`00-<trace>-<span>-01`), echoed in the
    /// response so the caller can confirm the service joined its trace.
    pub traceparent: Option<String>,
    /// Method parameters (an object, or `Json::Null` when absent).
    pub params: Json,
}

/// Why a request failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// The body is not valid JSON.
    BadJson(String),
    /// The JSON is not a valid JSON-RPC request.
    BadRequest(&'static str),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::BadJson(e) => write!(f, "invalid JSON: {e}"),
            RpcError::BadRequest(e) => write!(f, "invalid JSON-RPC request: {e}"),
        }
    }
}

impl RpcRequest {
    /// Build a request with parameters.
    pub fn new(id: u64, method: &str, params: Json) -> RpcRequest {
        RpcRequest {
            id,
            method: method.to_string(),
            traceparent: None,
            params,
        }
    }

    /// Attach a trace context header to this request.
    pub fn with_traceparent(mut self, traceparent: impl Into<String>) -> RpcRequest {
        self.traceparent = Some(traceparent.into());
        self
    }

    /// Parse a request from a JSON text body, moving `method`,
    /// `traceparent` and `params` out of the parsed tree. Never panics
    /// on arbitrary input.
    pub fn parse(text: &str) -> Result<RpcRequest, RpcError> {
        let mut v = parse_json(text).map_err(|e| RpcError::BadJson(e.to_string()))?;
        let Json::Obj(_) = v else {
            return Err(RpcError::BadRequest("request must be an object"));
        };
        match v.get("jsonrpc").and_then(Json::as_str) {
            Some("2.0") => {}
            _ => return Err(RpcError::BadRequest("jsonrpc must be \"2.0\"")),
        }
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or(RpcError::BadRequest("id must be an unsigned integer"))?;
        let Some(Json::Str(method)) = v.take("method") else {
            return Err(RpcError::BadRequest("method must be a string"));
        };
        let traceparent = match v.take("traceparent") {
            Some(Json::Str(tp)) => Some(tp),
            _ => None,
        };
        let params = v.take("params").unwrap_or(Json::Null);
        Ok(RpcRequest {
            id,
            method,
            traceparent,
            params,
        })
    }

    /// Canonical encoding: fixed field order, `traceparent` and
    /// `params` omitted when absent.
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("jsonrpc".to_string(), Json::Str("2.0".to_string())),
            ("id".to_string(), Json::UInt(self.id)),
            ("method".to_string(), Json::Str(self.method.clone())),
        ];
        if let Some(tp) = &self.traceparent {
            fields.push(("traceparent".to_string(), Json::Str(tp.clone())));
        }
        if self.params != Json::Null {
            fields.push(("params".to_string(), self.params.clone()));
        }
        Json::Obj(fields).encode()
    }
}

/// Encode a success response.
pub fn ok_response(id: u64, result: Json) -> String {
    ok_response_traced(id, result, None)
}

/// Encode a success response, echoing the request's `traceparent` so
/// the caller can verify the service joined its trace.
pub fn ok_response_traced(id: u64, result: Json, traceparent: Option<&str>) -> String {
    let mut fields = vec![
        ("jsonrpc".to_string(), Json::Str("2.0".to_string())),
        ("id".to_string(), Json::UInt(id)),
    ];
    if let Some(tp) = traceparent {
        fields.push(("traceparent".to_string(), Json::Str(tp.to_string())));
    }
    fields.push(("result".to_string(), result));
    Json::Obj(fields).encode()
}

/// Encode an error response.
pub fn err_response(id: u64, code: i64, message: &str) -> String {
    Json::Obj(vec![
        ("jsonrpc".to_string(), Json::Str("2.0".to_string())),
        ("id".to_string(), Json::UInt(id)),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::Num(code as f64)),
                ("message".to_string(), Json::Str(message.to_string())),
            ]),
        ),
    ])
    .encode()
}

/// Decode a response body: `Ok((result, echoed traceparent))` or
/// `Err(message)`. Both are moved out of the parsed tree.
pub fn parse_response(text: &str) -> Result<(Json, Option<String>), String> {
    let mut v = parse_json(text).map_err(|e| format!("invalid JSON response: {e}"))?;
    if let Some(err) = v.get("error") {
        return Err(err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("unknown error")
            .to_string());
    }
    let traceparent = match v.take("traceparent") {
        Some(Json::Str(tp)) => Some(tp),
        _ => None,
    };
    let result = v
        .take("result")
        .ok_or_else(|| "response has neither result nor error".to_string())?;
    Ok((result, traceparent))
}

/// Lower-case hex encoding of arbitrary bytes (evidence submission
/// payloads travel as hex strings inside JSON). Delegates to the
/// `pda-crypto` LUT encoder: evidence batches route up to ~16 MiB
/// through here, and a per-byte `format!("{b:02x}")` would pay one
/// heap allocation per byte.
pub fn to_hex(bytes: &[u8]) -> String {
    pda_crypto::hex_encode(bytes)
}

/// Decode lower/upper-case hex; `None` on odd length or non-hex bytes.
/// Delegates to [`pda_crypto::hex_decode`].
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    pda_crypto::hex_decode(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_is_byte_identical() {
        let r = RpcRequest::new(
            7,
            "appraise",
            Json::Obj(vec![("nonce".to_string(), Json::UInt(9))]),
        );
        let text = r.encode();
        let back = RpcRequest::parse(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn paramless_request_round_trips() {
        let r = RpcRequest::new(1, "health", Json::Null);
        let back = RpcRequest::parse(&r.encode()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), r.encode());
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(matches!(RpcRequest::parse(""), Err(RpcError::BadJson(_))));
        assert!(matches!(
            RpcRequest::parse("[1,2]"),
            Err(RpcError::BadRequest(_))
        ));
        assert!(matches!(
            RpcRequest::parse("{\"jsonrpc\": \"1.0\", \"id\": 1, \"method\": \"x\"}"),
            Err(RpcError::BadRequest(_))
        ));
        assert!(matches!(
            RpcRequest::parse("{\"jsonrpc\": \"2.0\", \"method\": \"x\"}"),
            Err(RpcError::BadRequest(_))
        ));
        assert!(matches!(
            RpcRequest::parse("{\"jsonrpc\": \"2.0\", \"id\": 1}"),
            Err(RpcError::BadRequest(_))
        ));
    }

    #[test]
    fn responses_encode_and_decode() {
        let ok = ok_response(3, Json::Bool(true));
        assert_eq!(parse_response(&ok), Ok((Json::Bool(true), None)));
        let err = err_response(3, -32600, "nope");
        assert_eq!(parse_response(&err), Err("nope".to_string()));
    }

    #[test]
    fn traceparent_round_trips_and_is_echoed() {
        let tp = pda_telemetry::TraceCtx::for_nonce(42).traceparent();
        let r = RpcRequest::new(
            5,
            "appraise",
            Json::Obj(vec![("nonce".to_string(), Json::UInt(42))]),
        )
        .with_traceparent(tp.clone());
        let text = r.encode();
        let back = RpcRequest::parse(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.encode(), text, "traced round trip is byte-identical");

        let reply = ok_response_traced(5, Json::Bool(true), back.traceparent.as_deref());
        assert_eq!(parse_response(&reply), Ok((Json::Bool(true), Some(tp))));
        assert_eq!(
            parse_response(&ok_response(5, Json::Bool(true))),
            Ok((Json::Bool(true), None)),
            "untraced responses carry no echo"
        );
    }

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex");
        assert_eq!(from_hex(""), Some(Vec::new()));
    }
}
