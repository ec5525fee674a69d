//! The appraisal service under test, in a child process of its own.
//!
//! A deployment runs the appraiser on its own machine, so the benchmark
//! runs it in its own process: the service's peak resident memory is
//! then the child's alone, and the benchmark's pre-generated inputs are
//! not counted. The child is this same executable (`serve-child`),
//! configured as `pda serve` runs by default: `SvcConfig::default()`
//! (3 hops, 3 appraisers, majority quorum, 4 workers), keep-alive
//! connections, and a collecting telemetry handle. It prints `ready
//! <addr> <boot_ns> <boot_reference_ns>` (the time `AppraisalService::new`
//! and the bind took, in wall and reference nanoseconds, so the
//! parent's set-up figure leaves process start-up out),
//! serves until its standard input closes, then prints its peak RSS,
//! counters, audit-log length, (traced) handler timings, and whether
//! the service stopped within [`STOP_GRACE`].

use crate::util::{core_speed, ns_since, proc_status_kb, reference_s};
use pda_svc::http::{HttpRequest, HttpResponse};
use pda_svc::{
    serve_with, AppraisalService, Handler, Quorum, ServeOptions, ServerHandle, SvcConfig,
};
use pda_telemetry::{Telemetry, TraceCtx};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the child waits for `ServerHandle::stop` before it reports
/// and exits anyway.
pub const STOP_GRACE: Duration = Duration::from_secs(2);

/// Service counters the child reports when it stops.
const COUNTERS: &[&str] = &[
    "svc.appraisals",
    "svc.records",
    "svc.dissent",
    "ra.appraisals",
];

/// The benchmark-owned wrapper the traced run serves: it times each
/// `Handler::handle` call and files it under the request's trace id.
struct TimedHandler {
    inner: AppraisalService,
    log: Mutex<Vec<(u64, u64)>>,
}

impl Handler for TimedHandler {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let trace = traceparent(&req.body).map(|c| c.trace.0);
        let start = Instant::now();
        let resp = self.inner.handle(req);
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(trace) = trace {
            self.log
                .lock()
                .expect("handler log poisoned")
                .push((trace, ns));
        }
        resp
    }

    fn connection_closed(&self, requests_served: u64) {
        self.inner.connection_closed(requests_served);
    }
}

/// The request's `traceparent`, read from the head of its JSON-RPC body
/// (`SvcClient`'s canonical encoding puts it before `params`).
fn traceparent(body: &[u8]) -> Option<TraceCtx> {
    const KEY: &[u8] = b"\"traceparent\":\"";
    let head = &body[..body.len().min(256)];
    let at = head.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let len = head[at..].iter().position(|&b| b == b'"')?;
    TraceCtx::parse_traceparent(std::str::from_utf8(&head[at..at + len]).ok()?)
}

/// Child entry point: `serve-child <quorum> <corrupt 0|1> <traced 0|1>`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [quorum, corrupt, traced] = args else {
        return Err("usage: serve-child <quorum> <corrupt 0|1> <traced 0|1>".to_string());
    };
    let config = SvcConfig {
        quorum: Quorum::parse(quorum).ok_or(format!("bad quorum {quorum}"))?,
        corrupt: corrupt == "1",
        ..SvcConfig::default()
    };
    let speed = core_speed();
    let boot = Instant::now();
    let svc = AppraisalService::new(config.clone(), Telemetry::collecting());
    let tel = svc.telemetry().clone();
    let bind = |e: std::io::Error| format!("bind loopback: {e}");
    if traced == "1" {
        let handler = Arc::new(TimedHandler {
            inner: svc,
            log: Mutex::new(Vec::new()),
        });
        let server = serve_with(
            "127.0.0.1:0",
            config.workers,
            Arc::clone(&handler),
            ServeOptions::default(),
        )
        .map_err(bind)?;
        hold(server, (ns_since(boot), speed), &tel, Some(&handler.log))
    } else {
        let svc = Arc::new(svc);
        let server = serve_with(
            "127.0.0.1:0",
            config.workers,
            Arc::clone(&svc),
            ServeOptions::default(),
        )
        .map_err(bind)?;
        hold(server, (ns_since(boot), speed), &tel, None)
    }
}

/// Serve until standard input closes, then report. `boot` is the
/// set-up's wall nanoseconds and the core speed probed before it.
fn hold(
    mut server: ServerHandle,
    boot: (u64, f64),
    tel: &Telemetry,
    log: Option<&Mutex<Vec<(u64, u64)>>>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let (boot_ns, before) = boot;
    let boot_reference_ns = reference_s(boot_ns, (before + core_speed()) / 2.0) * 1e9;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "ready {} {boot_ns} {boot_reference_ns:.0}",
        server.addr
    )
    .map_err(io)?;
    out.flush().map_err(io)?;
    let mut rest = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut rest);
    // `ServerHandle::stop` sets the stop flag and wakes the idle workers
    // without holding the queue's lock, so a worker between its flag
    // check and its wait can miss the wake-up and sleep on, and `stop`
    // then waits forever to join it. The clients have every reply by
    // now, so the report below is complete either way: stop on a helper
    // thread, and after the grace period report and exit, which ends the
    // helper and the worker left waiting.
    let (done, stopped) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    let stopped = stopped.recv_timeout(STOP_GRACE).is_ok();
    if stopped {
        helper
            .join()
            .map_err(|_| "service stop panicked".to_string())?;
    }
    writeln!(out, "stopped {}", u8::from(stopped)).map_err(io)?;
    writeln!(out, "hwm_kb {}", proc_status_kb("VmHWM").unwrap_or(0)).map_err(io)?;
    if let Some(reg) = tel.registry() {
        for name in COUNTERS {
            writeln!(out, "counter {name} {}", reg.counter(name).get()).map_err(io)?;
        }
    }
    let audit = tel.audit_log().map_or(0, |a| a.len());
    writeln!(out, "audit {audit}").map_err(io)?;
    if let Some(log) = log {
        for (trace, ns) in log.lock().expect("handler log poisoned").iter() {
            writeln!(out, "h {trace} {ns}").map_err(io)?;
        }
    }
    writeln!(out, "end").map_err(io)?;
    out.flush().map_err(io)
}

/// What the child reported when it stopped.
#[derive(Debug, Default)]
pub struct ServerReport {
    /// Peak resident memory of the service process, KiB.
    pub hwm_kb: u64,
    /// Counter values by name.
    pub counters: HashMap<String, u64>,
    /// Audit-log records.
    pub audit: u64,
    /// Traced handler calls: (trace id, handle ns), in arrival order.
    pub handled: Vec<(u64, u64)>,
    /// Whether `ServerHandle::stop` returned within [`STOP_GRACE`].
    pub stopped: bool,
}

impl ServerReport {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A running service child. Dropping it kills and reaps the child.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Loopback address the service listens on.
    pub addr: SocketAddr,
    /// Seconds the child took to construct the service and bind.
    pub boot_s: f64,
    /// The same in reference seconds.
    pub boot_reference_s: f64,
}

impl Server {
    /// Start the child and wait until it listens.
    pub fn spawn(exe: &Path, quorum: &str, corrupt: bool, traced: bool) -> Result<Server, String> {
        let flag = |b: bool| if b { "1" } else { "0" };
        let mut child = Command::new(exe)
            .args(["serve-child", quorum, flag(corrupt), flag(traced)])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child has no stdout")?;
        let mut server = Server {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot_s: 0.0,
            boot_reference_s: 0.0,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read child: {e}"))?;
        let ready = |line: &str| -> Option<(SocketAddr, u64, u64)> {
            let ["ready", addr, ns, reference_ns] = line.split_whitespace().collect::<Vec<_>>()[..]
            else {
                return None;
            };
            Some((
                addr.parse().ok()?,
                ns.parse().ok()?,
                reference_ns.parse().ok()?,
            ))
        };
        let (addr, boot_ns, boot_reference_ns) =
            ready(&line).ok_or(format!("service child did not start: {line:?}"))?;
        server.addr = addr;
        server.boot_s = boot_ns as f64 / 1e9;
        server.boot_reference_s = boot_reference_ns as f64 / 1e9;
        Ok(server)
    }

    /// Stop the service and collect its report.
    pub fn finish(mut self) -> Result<ServerReport, String> {
        drop(self.stdin.take());
        let mut report = ServerReport::default();
        let mut ended = false;
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => return Err(format!("read child: {e}")),
            }
            let mut words = line.split_whitespace();
            let num = |w: Option<&str>| w.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            match words.next() {
                Some("stopped") => report.stopped = num(words.next()) == 1,
                Some("hwm_kb") => report.hwm_kb = num(words.next()),
                Some("audit") => report.audit = num(words.next()),
                Some("counter") => {
                    let name = words.next().unwrap_or_default().to_string();
                    report.counters.insert(name, num(words.next()));
                }
                Some("h") => {
                    let trace = num(words.next());
                    report.handled.push((trace, num(words.next())));
                }
                Some("end") => ended = true,
                _ => {}
            }
        }
        let status = self.child.wait().map_err(|e| format!("wait child: {e}"))?;
        if !status.success() || !ended {
            return Err(format!("service child failed: {status}"));
        }
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
