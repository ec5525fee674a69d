//! A tiny blocking server runtime: `TcpListener` + worker pool.
//!
//! crates.io is unreachable from this build environment, so there is no
//! async stack to lean on; instead the service runs on the primitives
//! std already ships. An accept thread pushes connections onto a
//! `Mutex<VecDeque>` guarded by a `Condvar`; a fixed pool of workers
//! pops and serves them.
//!
//! Each connection is **persistent** by default: `serve_connection`
//! loops over requests on one socket (HTTP/1.1 keep-alive), consuming
//! exactly the bytes each request used so pipelined follow-ups parse
//! from the same buffer. The loop closes the connection when the
//! client asks (`Connection: close`), when the per-connection request
//! cap is hit, when the idle timeout expires between requests, or when
//! the server is shutting down — the last response in every case
//! carries `Connection: close` so the peer knows. Continuous
//! attestation is a sustained stream of small RPCs, which is exactly
//! the workload one-TCP-connection-per-call serves worst; reuse is
//! what lets E18 throughput clear the connection-per-call baseline.
//!
//! Graceful shutdown: flip an `AtomicBool`, then self-connect once to
//! unblock the accept loop; workers drain the queue and exit when they
//! see the flag with an empty queue. Workers holding kept-alive
//! sockets poll the flag between read slices, so shutdown closes live
//! sessions within one poll interval instead of waiting out their
//! idle timeouts.

use crate::http::{wants_close, HttpParse, HttpRequest, HttpResponse, RequestBuffer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Mid-request read timeout — bounds how long a slow or hostile
/// client can hold a worker while a request is partially buffered.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket poll slice. Reads block at most this long before the worker
/// rechecks the stop flag and its idle/read deadlines, which is what
/// keeps shutdown prompt with long idle timeouts.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Connection-plane policy for [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Serve multiple requests per connection (HTTP/1.1 keep-alive
    /// with pipelining). When `false` every response carries
    /// `Connection: close` and the socket is closed after one
    /// exchange.
    pub keep_alive: bool,
    /// Requests served on one connection before the server closes it
    /// (resource-recycling cap; the closing response says so).
    pub max_requests: u64,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            keep_alive: true,
            max_requests: 1024,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

impl ServeOptions {
    /// One request per connection (the pre-keep-alive behaviour).
    pub fn closing() -> ServeOptions {
        ServeOptions {
            keep_alive: false,
            ..ServeOptions::default()
        }
    }
}

/// Something that turns requests into responses. The service
/// implements this; the runtime stays protocol-agnostic above HTTP.
pub trait Handler: Send + Sync + 'static {
    /// Handle one parsed request.
    fn handle(&self, req: &HttpRequest) -> HttpResponse;

    /// Called once per connection when it closes, with the number of
    /// requests it served — the hook behind the connection-reuse
    /// metrics. Default: ignore.
    fn connection_closed(&self, _requests_served: u64) {}
}

struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
}

impl ConnQueue {
    fn push(&self, conn: TcpStream) {
        let mut q = self.queue.lock().expect("queue poisoned");
        q.push_back(conn);
        self.ready.notify_one();
    }

    /// Pop the next connection, blocking; `None` once stopped and
    /// drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`ServerHandle::stop`].
pub struct ServerHandle {
    /// Address the server actually bound (useful with port 0).
    pub addr: SocketAddr,
    conns: Arc<ConnQueue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Signal shutdown and join every thread. Idempotent. Kept-alive
    /// connections are closed at their next poll tick, not waited out.
    pub fn stop(&mut self) {
        // Set the flag under the queue lock. A worker in `ConnQueue::pop`
        // checks the flag and starts waiting under that lock, so it
        // either sees the flag or is already waiting when `notify_all`
        // runs; it cannot miss the wake-up in between.
        {
            let _queue = self.conns.queue.lock().expect("queue poisoned");
            if self.conns.stop.swap(true, Ordering::SeqCst) {
                return;
            }
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.conns.ready.notify_all();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve `handler` on `workers` threads with the
/// default (keep-alive) connection options until
/// [`ServerHandle::stop`] is called.
pub fn serve<H: Handler>(
    addr: &str,
    workers: usize,
    handler: Arc<H>,
) -> std::io::Result<ServerHandle> {
    serve_with(addr, workers, handler, ServeOptions::default())
}

/// [`serve`] with explicit connection-plane options.
pub fn serve_with<H: Handler>(
    addr: &str,
    workers: usize,
    handler: Arc<H>,
    options: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let conns = Arc::new(ConnQueue {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
    });

    let accept_conns = Arc::clone(&conns);
    let accept = std::thread::Builder::new()
        .name("svc-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_conns.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(conn) = conn {
                    accept_conns.push(conn);
                }
            }
        })?;

    let mut pool = Vec::with_capacity(workers.max(1));
    for i in 0..workers.max(1) {
        let conns = Arc::clone(&conns);
        let handler = Arc::clone(&handler);
        let options = options.clone();
        pool.push(
            std::thread::Builder::new()
                .name(format!("svc-worker-{i}"))
                .spawn(move || {
                    while let Some(conn) = conns.pop() {
                        let served =
                            serve_connection(conn, handler.as_ref(), &options, &conns.stop);
                        handler.connection_closed(served);
                    }
                })?,
        );
    }

    Ok(ServerHandle {
        addr: bound,
        conns,
        accept: Some(accept),
        workers: pool,
    })
}

/// Serve requests off `conn` until it closes; returns how many it
/// answered. All I/O errors are swallowed — a dropped client costs
/// nothing but its own replies.
///
/// The loop drains every complete request already buffered before
/// reading again, so pipelined requests get their responses back to
/// back in order. [`RequestBuffer`] consumes exactly the bytes each
/// request used (the `used` count [`crate::http::parse_request`]
/// reports) and resumes its delimiter scan where it left off, so big
/// bodies cost one pass, not one per read.
fn serve_connection<H: Handler>(
    mut conn: TcpStream,
    handler: &H,
    options: &ServeOptions,
    stop: &AtomicBool,
) -> u64 {
    let _ = conn.set_read_timeout(Some(POLL_INTERVAL));
    let _ = conn.set_nodelay(true);
    let mut reqs = RequestBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut served: u64 = 0;
    let mut waited = Duration::ZERO;
    loop {
        // Drain buffered requests first (keep-alive + pipelining).
        loop {
            match reqs.next_request() {
                HttpParse::Complete(req, _) => {
                    served += 1;
                    // Close when: keep-alive is off, the client asked,
                    // the per-connection cap is reached, or the server
                    // is shutting down. The response says which ever
                    // way it goes.
                    let close = !options.keep_alive
                        || served >= options.max_requests
                        || stop.load(Ordering::SeqCst)
                        || wants_close(&req);
                    let response = handler.handle(&req);
                    if conn.write_all(&response.to_bytes_conn(close)).is_err()
                        || conn.flush().is_err()
                        || close
                    {
                        return served;
                    }
                    waited = Duration::ZERO;
                }
                HttpParse::Invalid(reason) => {
                    // Framing is unrecoverable after a bad request —
                    // 400 and hang up, on every mode.
                    let resp = HttpResponse::text(400, format!("bad request: {reason}\n"));
                    let _ = conn.write_all(&resp.to_bytes_conn(true));
                    let _ = conn.flush();
                    return served;
                }
                HttpParse::Incomplete => break,
            }
        }
        // Need more bytes. Read in short slices so shutdown and the
        // idle/read deadlines stay responsive.
        match conn.read(&mut chunk) {
            Ok(0) => return served, // peer hung up
            Ok(n) => {
                reqs.extend(&chunk[..n]);
                waited = Duration::ZERO;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return served; // server-initiated close on shutdown
                }
                waited += POLL_INTERVAL;
                // Mid-request stalls get the (short) read timeout;
                // an empty buffer between requests gets the idle one.
                let limit = if reqs.is_empty() && options.keep_alive {
                    options.idle_timeout
                } else {
                    READ_TIMEOUT
                };
                if waited >= limit {
                    return served;
                }
            }
            Err(_) => return served, // reset or other hard error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Echo {
        conns: AtomicU64,
        requests: AtomicU64,
    }
    impl Echo {
        fn new() -> Echo {
            Echo {
                conns: AtomicU64::new(0),
                requests: AtomicU64::new(0),
            }
        }
    }
    impl Handler for Echo {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            HttpResponse::text(200, format!("{} {}", req.method, req.path))
        }
        fn connection_closed(&self, served: u64) {
            self.conns.fetch_add(1, Ordering::SeqCst);
            self.requests.fetch_add(served, Ordering::SeqCst);
        }
    }

    fn roundtrip(addr: SocketAddr, wire: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(wire).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    /// Read one `Content-Length`-framed response off `conn`, carrying
    /// leftover bytes (pipelined follow-up responses) in `buf`.
    fn read_framed_response(
        conn: &mut TcpStream,
        buf: &mut Vec<u8>,
    ) -> crate::http::ParsedResponse {
        use crate::http::{parse_response_bytes, ResponseParse};
        let mut chunk = [0u8; 1024];
        loop {
            match parse_response_bytes(buf) {
                ResponseParse::Complete(resp, used) => {
                    buf.drain(..used);
                    return *resp;
                }
                ResponseParse::Incomplete => {
                    let n = conn.read(&mut chunk).unwrap();
                    assert!(n > 0, "peer closed mid-response");
                    buf.extend_from_slice(&chunk[..n]);
                }
                ResponseParse::Invalid(r) => panic!("invalid response: {r}"),
            }
        }
    }

    /// Read exactly one response, asserting nothing was pipelined
    /// behind it.
    fn read_one_response(conn: &mut TcpStream) -> crate::http::ParsedResponse {
        let mut buf = Vec::new();
        let resp = read_framed_response(conn, &mut buf);
        assert!(buf.is_empty(), "read past one response");
        resp
    }

    #[test]
    fn serves_concurrent_requests_and_stops_cleanly() {
        let mut server = serve("127.0.0.1:0", 4, Arc::new(Echo::new())).unwrap();
        let addr = server.addr;
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    roundtrip(
                        addr,
                        format!("GET /t{i} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
                    )
                })
            })
            .collect();
        for (i, t) in threads.into_iter().enumerate() {
            let reply = t.join().unwrap();
            assert!(reply.ends_with(&format!("GET /t{i}")), "reply: {reply}");
            assert!(reply.contains("Connection: close\r\n"), "reply: {reply}");
        }
        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn malformed_request_gets_a_400() {
        let mut server = serve("127.0.0.1:0", 1, Arc::new(Echo::new())).unwrap();
        let reply = roundtrip(server.addr, b"GARBAGE\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400 "), "reply: {reply}");
        server.stop();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_socket() {
        let echo = Arc::new(Echo::new());
        let mut server = serve("127.0.0.1:0", 1, Arc::clone(&echo)).unwrap();
        let mut conn = TcpStream::connect(server.addr).unwrap();
        for i in 0..5 {
            conn.write_all(format!("GET /seq{i} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            let resp = read_one_response(&mut conn);
            assert_eq!(resp.body, format!("GET /seq{i}").as_bytes());
            assert!(!resp.closes_connection(), "held open between requests");
        }
        // Negotiate the close; the final response must announce it.
        conn.write_all(b"GET /last HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let resp = read_one_response(&mut conn);
        assert!(resp.closes_connection());
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "socket closed after negotiated close");
        server.stop();
        assert_eq!(echo.conns.load(Ordering::SeqCst), 1);
        assert_eq!(echo.requests.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn pipelined_requests_get_ordered_responses() {
        let mut server = serve("127.0.0.1:0", 1, Arc::new(Echo::new())).unwrap();
        let mut conn = TcpStream::connect(server.addr).unwrap();
        // All 8 requests in one write, before reading anything back.
        let mut wire = Vec::new();
        for i in 0..8 {
            wire.extend_from_slice(format!("GET /p{i} HTTP/1.1\r\n\r\n").as_bytes());
        }
        conn.write_all(&wire).unwrap();
        let mut buf = Vec::new();
        for i in 0..8 {
            let resp = read_framed_response(&mut conn, &mut buf);
            assert_eq!(
                resp.body,
                format!("GET /p{i}").as_bytes(),
                "responses in request order"
            );
        }
        assert!(buf.is_empty(), "exactly 8 responses came back");
        server.stop();
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let opts = ServeOptions {
            max_requests: 3,
            ..ServeOptions::default()
        };
        let echo = Arc::new(Echo::new());
        let mut server = serve_with("127.0.0.1:0", 1, Arc::clone(&echo), opts).unwrap();
        let mut conn = TcpStream::connect(server.addr).unwrap();
        for i in 0..3 {
            conn.write_all(format!("GET /c{i} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            let resp = read_one_response(&mut conn);
            assert_eq!(resp.closes_connection(), i == 2, "cap announced on #3");
        }
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "socket closed at the cap");
        server.stop();
        assert_eq!(echo.requests.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn closing_mode_hangs_up_after_one_exchange() {
        let mut server = serve_with(
            "127.0.0.1:0",
            1,
            Arc::new(Echo::new()),
            ServeOptions::closing(),
        )
        .unwrap();
        let reply = roundtrip(server.addr, b"GET /one HTTP/1.1\r\n\r\n");
        assert!(reply.contains("Connection: close\r\n"), "reply: {reply}");
        assert!(reply.ends_with("GET /one"));
        server.stop();
    }

    #[test]
    fn idle_timeout_closes_a_quiet_connection() {
        let opts = ServeOptions {
            idle_timeout: Duration::from_millis(200),
            ..ServeOptions::default()
        };
        let mut server = serve_with("127.0.0.1:0", 1, Arc::new(Echo::new()), opts).unwrap();
        let mut conn = TcpStream::connect(server.addr).unwrap();
        conn.write_all(b"GET /warm HTTP/1.1\r\n\r\n").unwrap();
        let _ = read_one_response(&mut conn);
        // Then go quiet: the server must close, not hold the worker.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no bytes after idle close");
        server.stop();
    }

    #[test]
    fn shutdown_closes_kept_alive_sockets_promptly() {
        let opts = ServeOptions {
            idle_timeout: Duration::from_secs(60), // idle timeout must NOT be the closer
            ..ServeOptions::default()
        };
        let mut server = serve_with("127.0.0.1:0", 1, Arc::new(Echo::new()), opts).unwrap();
        let mut conn = TcpStream::connect(server.addr).unwrap();
        conn.write_all(b"GET /live HTTP/1.1\r\n\r\n").unwrap();
        let _ = read_one_response(&mut conn);
        let start = std::time::Instant::now();
        server.stop();
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no bytes after shutdown close");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown waited out the idle timeout: {:?}",
            start.elapsed()
        );
    }
}
