//! The persistent connection plane, end to end over real TCP:
//! keep-alive sessions, pipelining through the live JSON-RPC service,
//! client-side connection pooling with server-side reuse accounting,
//! large-body ingest at linear cost, the duplicate-`Content-Length`
//! rejection, and a close the client asks for.

use pda_svc::http::{parse_response_bytes, ParsedResponse, ResponseParse};
use pda_svc::{serve, AppraisalService, SvcClient, SvcConfig};
use pda_telemetry::json::Json;
use pda_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn live_service() -> (Arc<AppraisalService>, pda_svc::ServerHandle) {
    let svc = Arc::new(AppraisalService::new(
        SvcConfig::default(),
        Telemetry::collecting(),
    ));
    let server = serve("127.0.0.1:0", 2, Arc::clone(&svc)).expect("bind loopback");
    (svc, server)
}

/// Read one `Content-Length`-framed response, carrying leftovers.
fn read_response(conn: &mut TcpStream, buf: &mut Vec<u8>) -> ParsedResponse {
    let mut chunk = [0u8; 4096];
    loop {
        match parse_response_bytes(buf) {
            ResponseParse::Complete(resp, used) => {
                buf.drain(..used);
                return *resp;
            }
            ResponseParse::Incomplete => {
                let n = conn.read(&mut chunk).expect("read response");
                assert!(n > 0, "server closed mid-response");
                buf.extend_from_slice(&chunk[..n]);
            }
            ResponseParse::Invalid(r) => panic!("invalid response: {r}"),
        }
    }
}

fn rpc_wire(id: u64, method: &str) -> Vec<u8> {
    let body = format!("{{\"jsonrpc\": \"2.0\", \"id\": {id}, \"method\": \"{method}\"}}");
    format!(
        "POST /rpc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// M pipelined JSON-RPC requests written in one burst come back as M
/// responses in request order (ids echo back ascending).
#[test]
fn pipelined_rpcs_get_ordered_responses() {
    let (_svc, mut server) = live_service();
    let mut conn = TcpStream::connect(server.addr).unwrap();
    const M: u64 = 12;
    let mut burst = Vec::new();
    for id in 1..=M {
        burst.extend_from_slice(&rpc_wire(id, "health"));
    }
    conn.write_all(&burst).unwrap();
    let mut buf = Vec::new();
    for id in 1..=M {
        let resp = read_response(&mut conn, &mut buf);
        assert_eq!(resp.status, 200);
        let v = pda_telemetry::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(id), "order held");
    }
    assert!(buf.is_empty(), "exactly M responses");
    server.stop();
}

/// A multi-megabyte body ingests in linear time through the real
/// socket path. Under the old from-zero rescan a 4 MiB body cost
/// ~1000 full-buffer scans (tens of seconds in a debug build); the
/// resume-offset scan finishes in well under the bound.
#[test]
fn large_body_ingest_is_linear() {
    let (_svc, mut server) = live_service();
    let mut conn = TcpStream::connect(server.addr).unwrap();
    // A syntactically valid request bearing a large non-JSON body: the
    // HTTP layer must frame all of it (that's the hot loop under
    // test); the RPC layer then rejects it cheaply.
    let body = vec![b'x'; 4 * 1024 * 1024];
    let mut wire = format!(
        "POST /rpc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    let start = Instant::now();
    conn.write_all(&wire).unwrap();
    let mut buf = Vec::new();
    let resp = read_response(&mut conn, &mut buf);
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 400, "body is not JSON-RPC");
    assert!(
        elapsed < Duration::from_secs(10),
        "4 MiB ingest took {elapsed:?} — quadratic rescanning is back"
    );
    server.stop();
}

/// The pooled client reuses its connection across calls, and the
/// service's reuse counters see it.
#[test]
fn client_pool_reuses_connections_and_counters_agree() {
    let (svc, mut server) = live_service();

    let keep = SvcClient::new(server.addr);
    for _ in 0..8 {
        keep.health().expect("health over keep-alive");
    }
    assert!(
        keep.reused_connections() >= 4,
        "pooled client reused its connection: {}",
        keep.reused_connections()
    );
    drop(keep); // pool drops → sockets close → server accounts them

    server.stop(); // joins workers: connection accounting is final
    let reg = svc.telemetry().registry().expect("collecting telemetry");
    let reused = reg.counter("svc.http.reused_connections").get();
    let conns = reg.counter("svc.http.connections").get();
    let reqs = reg.counter("svc.http.requests").get();
    assert!(reused >= 1, "one connection served >=2 RPCs (got {reused})");
    assert!(
        conns < reqs,
        "fewer connections than requests proves reuse ({conns} conns, {reqs} reqs)"
    );
    assert!(reqs >= 8, "all 8 RPCs accounted ({reqs})");
}

/// A request bearing two `Content-Length` headers — the
/// request-smuggling desync primitive — is rejected with a 400, and
/// the connection is torn down rather than left desynced.
#[test]
fn duplicate_content_length_gets_400_and_a_close() {
    let (_svc, mut server) = live_service();
    let mut conn = TcpStream::connect(server.addr).unwrap();
    // Unequal duplicates; a second (smuggled) request hides in the gap
    // between the two lengths.
    conn.write_all(
        b"POST /rpc HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nContent-Length: 64\r\n\r\nhelloGET /smuggled HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap(); // closed after the 400
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    assert!(reply.contains("conflicting content-length"), "{reply}");
    assert_eq!(
        reply.matches("HTTP/1.1").count(),
        1,
        "smuggled request was not answered: {reply}"
    );
    server.stop();
}

/// `GET /metrics` asking for `Connection: close` gets the Prometheus
/// text, a response that announces the close, then EOF. A `health` RPC
/// ahead of it on the same connection gives the registry something to
/// render.
#[test]
fn metrics_with_connection_close_returns_prometheus_text_then_eof() {
    let (_svc, mut server) = live_service();
    let mut conn = TcpStream::connect(server.addr).unwrap();
    let mut wire = rpc_wire(1, "health");
    wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    conn.write_all(&wire).unwrap();
    let mut buf = Vec::new();
    let health = read_response(&mut conn, &mut buf);
    assert!(
        !health.closes_connection(),
        "held open for the next request"
    );
    let metrics = read_response(&mut conn, &mut buf);
    assert_eq!(metrics.status, 200);
    assert!(metrics.closes_connection(), "close announced");
    let prom = String::from_utf8(metrics.body).unwrap();
    assert!(prom.contains("# TYPE"), "prometheus text came back: {prom}");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(buf.is_empty() && rest.is_empty(), "EOF after the response");
    server.stop();
}
