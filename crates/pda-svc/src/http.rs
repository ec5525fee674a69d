//! Minimal HTTP/1.1 server-side codec on untrusted bytes.
//!
//! The service runs on a bare `TcpListener`, so this module does the
//! protocol work a framework would: parse a request head + body out of
//! a byte buffer and render responses. The parser is incremental
//! (returns [`HttpParse::Incomplete`] until a full request is buffered)
//! and hardened the way any network-facing parser must be: every access
//! is bounds-checked, lengths are capped, and **no input can panic it**
//! — a property the codec proptests pin.

use std::fmt;
use std::ops::Range;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body. Evidence batches are the biggest
/// payloads; a full Lamport chain is ~100 KiB hex-encoded, so 16 MiB
/// leaves ample headroom while bounding hostile `Content-Length`s.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target path (`/rpc`, `/metrics`, …), as sent.
    pub path: String,
    /// Protocol version (`HTTP/1.1`, `HTTP/1.0`), as sent.
    pub version: String,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of one parse attempt over a (possibly partial) buffer.
#[derive(Debug)]
pub enum HttpParse {
    /// A complete request and the number of bytes it consumed.
    Complete(Box<HttpRequest>, usize),
    /// The buffer holds a valid prefix; read more bytes and retry.
    Incomplete,
    /// The buffer can never become a valid request.
    Invalid(&'static str),
}

/// Parse one request from the front of `buf`. Never panics, for any
/// input whatsoever.
pub fn parse_request(buf: &[u8]) -> HttpParse {
    parse_request_with_head(buf, find_head_end_from(buf, 0))
}

/// [`parse_request`] with the CRLFCRLF boundary already searched for
/// (`None`: not found yet), so an incremental caller
/// ([`RequestBuffer`]) never re-scans for it.
fn parse_request_with_head(buf: &[u8], head_end: Option<usize>) -> HttpParse {
    match frame(buf, head_end, request_line) {
        Ok(Some(((method, path, version), headers, body))) => HttpParse::Complete(
            Box::new(HttpRequest {
                method: method.to_string(),
                path: path.to_string(),
                version: version.to_string(),
                headers,
                body: buf[body.clone()].to_vec(),
            }),
            body.end,
        ),
        Ok(None) => HttpParse::Incomplete,
        Err(reason) => HttpParse::Invalid(reason),
    }
}

/// Split a request line into its method, path and version.
fn request_line(line: &str) -> Result<(&str, &str, &str), &'static str> {
    let mut parts = line.split(' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && parts.next().is_none() => {
            if v.starts_with("HTTP/1.") {
                Ok((m, p, v))
            } else {
                Err("unsupported HTTP version")
            }
        }
        _ => Err("malformed request line"),
    }
}

/// The status code of a response's status line.
fn status_line(line: &str) -> Result<u16, &'static str> {
    let mut parts = line.splitn(3, ' ');
    match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| "malformed status code")
        }
        _ => Err("malformed status line"),
    }
}

/// A framed message: what its first line parsed to, its headers
/// (names lower-cased, in arrival order), and where its body lies.
type Frame<T> = (T, Vec<(String, String)>, Range<usize>);

/// Frame one HTTP/1.1 message from the front of `buf`, whose head ends
/// at `head_end` (the CRLFCRLF offset; `None` when not found yet):
/// check the head, parse its first line with `first_line`, collect the
/// headers, and bound the body by its one `Content-Length`. `Ok(None)`
/// means the message has not all arrived. Requests and responses share
/// it, so both get the same caps and the same request-smuggling guard.
/// Never panics.
fn frame<'a, T>(
    buf: &'a [u8],
    head_end: Option<usize>,
    first_line: fn(&'a str) -> Result<T, &'static str>,
) -> Result<Option<Frame<T>>, &'static str> {
    let Some(head_end) = head_end else {
        return if buf.len() > MAX_HEAD_BYTES {
            Err("head too large")
        } else {
            Ok(None)
        };
    };
    if head_end > MAX_HEAD_BYTES {
        return Err("head too large");
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let first = first_line(lines.next().unwrap_or(""))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err("too many headers");
        }
        let (name, value) = line.split_once(':').ok_or("malformed header")?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    // More than one Content-Length is the classic request-smuggling
    // ambiguity: two parsers disagreeing on which copy governs desync
    // on where the next message starts. Reject outright — even equal
    // duplicates — rather than pick one.
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let first_length = lengths.next();
    if lengths.next().is_some() {
        return Err("conflicting content-length");
    }
    let content_length = match first_length.map(|(_, v)| v.parse::<usize>()) {
        None => 0,
        Some(Ok(n)) if n <= MAX_BODY_BYTES => n,
        Some(Ok(_)) => return Err("body too large"),
        Some(Err(_)) => return Err("bad content-length"),
    };
    let body_start = head_end + 4;
    let total = body_start
        .checked_add(content_length)
        .ok_or("bad content-length")?;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((first, headers, body_start..total)))
}

/// Locate CRLFCRLF starting the scan at `from` (a resume offset from a
/// previous partial scan; callers back it off by 3 so a delimiter
/// straddling the old buffer end is still found).
fn find_head_end_from(buf: &[u8], from: usize) -> Option<usize> {
    let from = from.min(buf.len());
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p)
}

/// Incremental request framing over one connection's byte stream.
///
/// Wraps the stateless [`parse_request`] with the two pieces of state a
/// keep-alive loop needs to stay linear-time:
///
/// * a **scan resume offset** — the CRLFCRLF search never revisits
///   bytes it has already cleared, so feeding a 16 MiB body in 4 KiB
///   reads costs one pass, not ~4096 full-buffer passes;
/// * a **cached head boundary** — once the head is located, waiting
///   for the body re-parses nothing.
///
/// Consumed bytes are drained on every completed request, which is
/// what makes pipelining work: whatever the client sent beyond the
/// first request simply stays buffered for the next call.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// CRLFCRLF scan resumes here (bytes before it hold no delimiter).
    scanned: usize,
    /// Head boundary of the in-progress request, once found.
    head_end: Option<usize>,
    /// Total bytes the delimiter scan has visited — observable so
    /// tests can assert the scan is single-pass (≈ bytes fed, never
    /// quadratic).
    bytes_scanned: u64,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> RequestBuffer {
        RequestBuffer::default()
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (a partial request, or pipelined
    /// follow-ups not yet parsed).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total bytes the CRLFCRLF scan has visited since construction.
    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned
    }

    /// Try to parse the next request off the front of the buffer. On
    /// `Complete` the consumed bytes are drained and the scan state
    /// resets for the request behind them.
    pub fn next_request(&mut self) -> HttpParse {
        let head_end = match self.head_end {
            Some(e) => e,
            None => {
                // Resume the delimiter scan where the last one left
                // off, backing off 3 bytes in case CRLFCRLF straddles
                // the previous buffer end.
                let from = self.scanned.saturating_sub(3).min(self.buf.len());
                match find_head_end_from(&self.buf, from) {
                    Some(e) => {
                        // The scan stopped at the delimiter: charge
                        // only the bytes it actually visited.
                        self.bytes_scanned += (e + 4 - from) as u64;
                        self.head_end = Some(e);
                        e
                    }
                    None => {
                        self.bytes_scanned += (self.buf.len() - from) as u64;
                        self.scanned = self.buf.len();
                        return if self.buf.len() > MAX_HEAD_BYTES {
                            HttpParse::Invalid("head too large")
                        } else {
                            HttpParse::Incomplete
                        };
                    }
                }
            }
        };
        match parse_request_with_head(&self.buf, Some(head_end)) {
            HttpParse::Complete(req, used) => {
                self.buf.drain(..used);
                self.scanned = 0;
                self.head_end = None;
                HttpParse::Complete(req, used)
            }
            other => other,
        }
    }
}

/// Whether a request asks for the connection to be closed after the
/// response (RFC 9112 §9.3): it lists `close` in `Connection`, or it is
/// an HTTP/1.0 request that does not list `keep-alive` there.
pub fn wants_close(req: &HttpRequest) -> bool {
    let connection = req.header("connection");
    lists_token(connection, "close")
        || (req.version == "HTTP/1.0" && !lists_token(connection, "keep-alive"))
}

/// Whether a `Connection` header value lists `token`.
fn lists_token(connection: Option<&str>, token: &str) -> bool {
    connection.is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
}

/// An HTTP response ready to serialize.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Serialize to wire bytes, announcing whether the server will
    /// close the connection after this response (`Connection: close`)
    /// or hold it open for the next request
    /// (`Connection: keep-alive`). Framing is always
    /// `Content-Length`-delimited, so keep-alive clients know exactly
    /// where the body ends.
    pub fn to_bytes_conn(&self, close: bool) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Error",
        };
        let connection = if close { "close" } else { "keep-alive" };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// One parsed HTTP response, as seen by the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server announced it will close the connection.
    pub fn closes_connection(&self) -> bool {
        lists_token(self.header("connection"), "close")
    }
}

/// Outcome of one response-parse attempt over a (possibly partial)
/// reply buffer.
#[derive(Debug)]
pub enum ResponseParse {
    /// A complete response and the number of bytes it consumed.
    Complete(Box<ParsedResponse>, usize),
    /// A valid prefix; read more bytes and retry.
    Incomplete,
    /// The buffer can never become a valid response.
    Invalid(&'static str),
}

/// Parse one response from the front of `buf`, `Content-Length`-aware:
/// the client stops reading exactly at the body end instead of waiting
/// for EOF, which is what makes connection reuse possible. Never
/// panics; same caps and duplicate-`Content-Length` rejection as the
/// request parser.
pub fn parse_response_bytes(buf: &[u8]) -> ResponseParse {
    match frame(buf, find_head_end_from(buf, 0), status_line) {
        Ok(Some((status, headers, body))) => ResponseParse::Complete(
            Box::new(ParsedResponse {
                status,
                headers,
                body: buf[body.clone()].to_vec(),
            }),
            body.end,
        ),
        Ok(None) => ResponseParse::Incomplete,
        Err(reason) => ResponseParse::Invalid(reason),
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}B body)",
            self.method,
            self.path,
            self.body.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let wire = b"POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let HttpParse::Complete(req, used) = parse_request(wire) else {
            panic!("expected complete parse");
        };
        assert_eq!(used, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rpc");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn incomplete_until_body_arrives() {
        let wire = b"POST /rpc HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        assert!(matches!(parse_request(wire), HttpParse::Incomplete));
        assert!(matches!(parse_request(b"GET /"), HttpParse::Incomplete));
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(
            parse_request(b"NOT A REQUEST\r\n\r\n"),
            HttpParse::Invalid(_)
        ));
        assert!(matches!(
            parse_request(b"GET / SPDY/3\r\n\r\n"),
            HttpParse::Invalid(_)
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n"),
            HttpParse::Invalid(_)
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            HttpParse::Invalid(_)
        ));
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Conflicting duplicates: the smuggling classic.
        assert!(matches!(
            parse_request(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!"
            ),
            HttpParse::Invalid("conflicting content-length")
        ));
        // Equal duplicates are rejected too — no guessing which copy a
        // downstream parser would honor.
        assert!(matches!(
            parse_request(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
            ),
            HttpParse::Invalid("conflicting content-length")
        ));
    }

    #[test]
    fn request_buffer_parses_across_arbitrary_splits() {
        let wire =
            b"POST /rpc HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /health HTTP/1.1\r\n\r\n";
        for split in 0..wire.len() {
            let mut rb = RequestBuffer::new();
            rb.extend(&wire[..split]);
            let mut got = Vec::new();
            loop {
                match rb.next_request() {
                    HttpParse::Complete(req, _) => got.push(req),
                    HttpParse::Incomplete => break,
                    HttpParse::Invalid(r) => panic!("invalid at split {split}: {r}"),
                }
            }
            rb.extend(&wire[split..]);
            loop {
                match rb.next_request() {
                    HttpParse::Complete(req, _) => got.push(req),
                    HttpParse::Incomplete => break,
                    HttpParse::Invalid(r) => panic!("invalid at split {split}: {r}"),
                }
            }
            assert_eq!(got.len(), 2, "split {split}");
            assert_eq!(got[0].path, "/rpc");
            assert_eq!(got[0].body, b"hello");
            assert_eq!(got[1].path, "/health");
            assert!(rb.is_empty(), "split {split}: all bytes consumed");
        }
    }

    #[test]
    fn request_buffer_scan_is_single_pass() {
        // Feed a large body in 4 KiB chunks, retrying the parse after
        // every read the way the serve loop does. The CRLFCRLF scan
        // must visit each byte O(1) times: the old from-zero rescan
        // visited ~n²/chunk bytes (≈ 512M for 2 MiB), the resume
        // offset keeps it ≈ n.
        let body = vec![0x61u8; 2 * 1024 * 1024];
        let mut wire = format!(
            "POST /rpc HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let mut rb = RequestBuffer::new();
        let mut done = None;
        for chunk in wire.chunks(4096) {
            rb.extend(chunk);
            match rb.next_request() {
                HttpParse::Complete(req, used) => {
                    done = Some((req, used));
                    break;
                }
                HttpParse::Incomplete => {}
                HttpParse::Invalid(r) => panic!("invalid: {r}"),
            }
        }
        let (req, used) = done.expect("request completed");
        assert_eq!(req.body.len(), body.len());
        assert_eq!(used, wire.len());
        assert!(
            rb.bytes_scanned() <= 2 * wire.len() as u64,
            "scan visited {} bytes for a {}-byte request — quadratic rescan is back",
            rb.bytes_scanned(),
            wire.len()
        );
    }

    #[test]
    fn connection_close_negotiation_is_detected() {
        let parse = |wire: &[u8]| {
            let HttpParse::Complete(req, _) = parse_request(wire) else {
                panic!("expected complete parse");
            };
            req
        };
        assert!(wants_close(&parse(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )));
        assert!(wants_close(&parse(
            b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n"
        )));
        assert!(!wants_close(&parse(
            b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        )));
        assert!(!wants_close(&parse(b"GET / HTTP/1.1\r\n\r\n")));
        // HTTP/1.0 closes unless it asks to keep the connection.
        assert!(wants_close(&parse(b"GET / HTTP/1.0\r\n\r\n")));
        assert!(!wants_close(&parse(
            b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        )));
    }

    #[test]
    fn response_parser_round_trips_both_framings() {
        for close in [true, false] {
            let wire = HttpResponse::json(200, "{\"ok\": true}".to_string()).to_bytes_conn(close);
            // Trailing pipelined bytes must not be consumed.
            let mut padded = wire.clone();
            padded.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
            let ResponseParse::Complete(resp, used) = parse_response_bytes(&padded) else {
                panic!("expected complete response parse");
            };
            assert_eq!(used, wire.len());
            assert_eq!(resp.status, 200);
            assert_eq!(resp.closes_connection(), close);
            assert_eq!(resp.body, b"{\"ok\": true}");
        }
        assert!(matches!(
            parse_response_bytes(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"),
            ResponseParse::Incomplete
        ));
        assert!(matches!(
            parse_response_bytes(b"GARBAGE\r\n\r\n"),
            ResponseParse::Invalid(_)
        ));
        assert!(matches!(
            parse_response_bytes(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc"
            ),
            ResponseParse::Invalid("conflicting content-length")
        ));
    }

    #[test]
    fn response_round_trips_framing() {
        let r = HttpResponse::json(200, "{\"ok\": true}".to_string());
        let bytes = r.to_bytes_conn(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.ends_with("{\"ok\": true}"));
    }
}
