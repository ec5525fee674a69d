//! Blocking client for the appraisal service.
//!
//! Persistent: the client keeps a small pool of kept-alive TCP
//! connections to the service and frames responses by `Content-Length`
//! (not read-to-EOF), so a sustained stream of small RPCs — exactly the
//! continuous-attestation workload — pays the TCP handshake once per
//! connection instead of once per call. A pooled connection that went
//! stale (server restarted, idle-timed out, hit its request cap) is
//! detected on first use and replaced with a fresh one, transparently.
//!
//! The client is thread-safe: the pool is a mutex-guarded stack, and
//! concurrent callers simply check out distinct connections.

use crate::http::{parse_response_bytes, ParsedResponse, ResponseParse};
use crate::rpc::{parse_response, to_hex, RpcRequest};
use pda_pera::EvidenceRecord;
use pda_telemetry::json::Json;
use pda_telemetry::TraceCtx;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Per-call I/O timeout — also bounds `connect`, so a blackholed
/// service address fails within this bound instead of the OS default
/// (which can be minutes).
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Idle connections kept for reuse. More concurrent callers than this
/// simply reconnect; fewer and the pool stays warm.
const POOL_SIZE: usize = 4;

/// A client bound to one service address.
pub struct SvcClient {
    addr: SocketAddr,
    next_id: AtomicU64,
    /// Idle kept-alive connections, most recently used last.
    pool: Mutex<Vec<TcpStream>>,
    /// Calls that reused a pooled connection (observability for tests
    /// and the churn driver).
    reused: AtomicU64,
}

impl SvcClient {
    /// Client for the service at `addr`.
    pub fn new(addr: SocketAddr) -> SvcClient {
        SvcClient {
            addr,
            next_id: AtomicU64::new(1),
            pool: Mutex::new(Vec::new()),
            reused: AtomicU64::new(0),
        }
    }

    /// Calls so far that reused a pooled connection.
    pub fn reused_connections(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Issue one JSON-RPC call; returns the `result` value.
    pub fn call(&self, method: &str, params: Json) -> Result<Json, String> {
        self.call_traced(method, params, None).map(|(v, _)| v)
    }

    /// Issue one JSON-RPC call carrying a `traceparent` header;
    /// returns the `result` value plus the traceparent the service
    /// echoed back (proof it joined the caller's trace).
    pub fn call_traced(
        &self,
        method: &str,
        params: Json,
        ctx: Option<&TraceCtx>,
    ) -> Result<(Json, Option<String>), String> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut req = RpcRequest::new(id, method, params);
        if let Some(ctx) = ctx {
            req = req.with_traceparent(ctx.traceparent());
        }
        let body = req.encode();
        let wire = format!(
            "POST /rpc HTTP/1.1\r\nHost: pda-svc\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
            body.len(),
            body
        );
        let reply = self.exchange(wire.as_bytes())?;
        let body =
            std::str::from_utf8(&reply.body).map_err(|_| "reply body is not UTF-8".to_string())?;
        parse_response(body)
    }

    /// Submit evidence records (hex-encoded wire form).
    pub fn submit_evidence(&self, records: &[EvidenceRecord]) -> Result<Json, String> {
        self.submit_evidence_traced(records).map(|(v, _)| v)
    }

    /// [`submit_evidence`](Self::submit_evidence), traced: stamps the
    /// nonce-derived trace context of the first record on the request
    /// and returns the service's echo alongside the result.
    pub fn submit_evidence_traced(
        &self,
        records: &[EvidenceRecord],
    ) -> Result<(Json, Option<String>), String> {
        let mut bytes = Vec::new();
        for r in records {
            r.write_wire(&mut bytes);
        }
        let ctx = records.first().map(|r| TraceCtx::for_nonce(r.nonce.0));
        self.call_traced(
            "submit-evidence",
            Json::Obj(vec![("records".to_string(), Json::Str(to_hex(&bytes)))]),
            ctx.as_ref(),
        )
    }

    /// Request a quorum appraisal of everything submitted for `nonce`.
    pub fn appraise(&self, nonce: u64) -> Result<Json, String> {
        self.appraise_traced(nonce).map(|(v, _)| v)
    }

    /// [`appraise`](Self::appraise), traced: the request carries the
    /// nonce-derived trace context, so the service's spans join the
    /// same trace the switch stamped at measurement time.
    pub fn appraise_traced(&self, nonce: u64) -> Result<(Json, Option<String>), String> {
        self.call_traced(
            "appraise",
            Json::Obj(vec![("nonce".to_string(), Json::UInt(nonce))]),
            Some(&TraceCtx::for_nonce(nonce)),
        )
    }

    /// Query the audit log, optionally filtered by subject substring.
    pub fn query_audit_log(
        &self,
        subject: Option<&str>,
        limit: Option<u64>,
    ) -> Result<Json, String> {
        let mut fields = Vec::new();
        if let Some(s) = subject {
            fields.push(("subject".to_string(), Json::Str(s.to_string())));
        }
        if let Some(l) = limit {
            fields.push(("limit".to_string(), Json::UInt(l)));
        }
        self.call("query-audit-log", Json::Obj(fields))
    }

    /// Service health probe.
    pub fn health(&self) -> Result<Json, String> {
        self.call("health", Json::Null)
    }

    /// Metrics snapshot (JSON form).
    pub fn metrics(&self) -> Result<Json, String> {
        self.call("metrics", Json::Null)
    }

    /// Ask the service to stop.
    pub fn shutdown(&self) -> Result<Json, String> {
        self.call("shutdown", Json::Null)
    }

    /// One request/response exchange. A pooled connection is tried
    /// first; if it went stale (the server closed it since last use),
    /// the call transparently retries once on a fresh connection. The
    /// response is `Content-Length`-framed, so the connection can go
    /// straight back into the pool.
    fn exchange(&self, wire: &[u8]) -> Result<ParsedResponse, String> {
        if let Some(conn) = self.checkout() {
            // A stale pooled connection (the server closed it since
            // last use) falls through to a reconnect and retries the
            // (idempotent) exchange on a fresh socket.
            if let Ok(reply) = self.try_exchange(conn, wire) {
                self.reused.fetch_add(1, Ordering::Relaxed);
                return Ok(reply);
            }
        }
        let conn = self.connect()?;
        self.try_exchange(conn, wire)
            .map_err(|e| format!("{e} ({})", self.addr))
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let conn = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        conn.set_read_timeout(Some(IO_TIMEOUT)).ok();
        conn.set_write_timeout(Some(IO_TIMEOUT)).ok();
        conn.set_nodelay(true).ok();
        Ok(conn)
    }

    /// Write the request and read exactly one framed response. On
    /// success the connection is returned to the pool unless the
    /// server announced a close.
    fn try_exchange(&self, mut conn: TcpStream, wire: &[u8]) -> Result<ParsedResponse, String> {
        conn.write_all(wire).map_err(|e| format!("send: {e}"))?;
        conn.flush().map_err(|e| format!("send: {e}"))?;
        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        loop {
            match parse_response_bytes(&buf) {
                ResponseParse::Complete(reply, _used) => {
                    if !reply.closes_connection() {
                        self.checkin(conn);
                    }
                    return Ok(*reply);
                }
                ResponseParse::Incomplete => match conn.read(&mut chunk) {
                    Ok(0) => return Err("recv: connection closed mid-response".to_string()),
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) => return Err(format!("recv: {e}")),
                },
                ResponseParse::Invalid(r) => return Err(format!("recv: bad response: {r}")),
            }
        }
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().ok()?.pop()
    }

    fn checkin(&self, conn: TcpStream) {
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < POOL_SIZE {
                pool.push(conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A blackholed address must fail within the I/O bound, not the
    /// OS connect default (minutes). 203.0.113.0/24 is TEST-NET-3
    /// (RFC 5737): reserved, never routed — depending on the network
    /// stack the connect either times out at our bound or is rejected
    /// immediately; both are success here.
    #[test]
    fn connect_is_bounded_on_a_blackholed_address() {
        let addr: SocketAddr = "203.0.113.1:9".parse().unwrap();
        let client = SvcClient::new(addr);
        let start = Instant::now();
        let result = client.health();
        assert!(result.is_err(), "nothing listens on TEST-NET-3");
        assert!(
            start.elapsed() < IO_TIMEOUT + Duration::from_secs(5),
            "connect exceeded its timeout bound: {:?}",
            start.elapsed()
        );
    }

    /// A listener that accepts and immediately closes makes every
    /// pooled exchange fail; the client must surface the error rather
    /// than hang, and must not pool dead sockets.
    #[test]
    fn slammed_connections_error_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for conn in listener.incoming().take(2) {
                drop(conn); // slam
            }
        });
        let client = SvcClient::new(addr);
        assert!(client.health().is_err());
        assert!(client.reused_connections() == 0);
        drop(client);
        // Unblock the listener's second accept.
        let _ = TcpStream::connect(addr);
        server.join().unwrap();
    }
}
