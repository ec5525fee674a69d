//! Flight recorder: a bounded per-trace ring of recent spans/events,
//! dumped as JSONL when an anomaly trigger fires.
//!
//! The recorder is an ordinary [`Subscriber`]: it files each event
//! under the trace of its context ([`Event::trace`]), drops untraced
//! ones, and retains the last N events of each of the most recent M
//! traces.
//! It records nothing on its own initiative — a caller that detects
//! an anomaly (verdict rejection, quorum dissent, timeout,
//! indeterminate result, SLO burn) calls [`FlightRecorder::trigger`],
//! which emits the complete retained causal timeline of the implicated
//! trace to the configured sink, one JSON object per line, headed by a
//! `flight_trigger` annotation line.
//!
//! Dumps are rendered back into per-trace trees by
//! [`render_trace_trees`] (the engine behind `pda trace`).

use crate::event::{Event, Subscriber};
use crate::json::{parse as parse_json, Json};
use crate::trace::{TraceCtx, TraceId};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct RecorderState {
    /// Retained events, keyed by trace, oldest first.
    traces: BTreeMap<TraceId, VecDeque<Event>>,
    /// Trace arrival order, for eviction when `trace_capacity` is hit.
    order: VecDeque<TraceId>,
}

/// Bounded ring subscriber retaining recent events per trace; see the
/// module docs.
pub struct FlightRecorder {
    events_per_trace: usize,
    trace_capacity: usize,
    state: Mutex<RecorderState>,
    dropped: AtomicU64,
    triggers: AtomicU64,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `events_per_trace` events of each of
    /// the `trace_capacity` most recently started traces.
    pub fn new(events_per_trace: usize, trace_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            events_per_trace: events_per_trace.max(1),
            trace_capacity: trace_capacity.max(1),
            state: Mutex::new(RecorderState {
                traces: BTreeMap::new(),
                order: VecDeque::new(),
            }),
            dropped: AtomicU64::new(0),
            triggers: AtomicU64::new(0),
            sink: Mutex::new(None),
        }
    }

    /// Attach a JSONL sink; [`trigger`](Self::trigger) dumps append to
    /// it. Write errors are swallowed — telemetry must never take down
    /// the instrumented program.
    pub fn set_sink(&self, sink: Box<dyn Write + Send>) {
        *self.sink.lock().unwrap() = Some(sink);
    }

    /// Events evicted from per-trace rings (truncated timelines) plus
    /// events of traces evicted wholesale.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// How many anomaly triggers have fired.
    pub fn triggers(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained events of `trace`, oldest first.
    pub fn trace_events(&self, trace: TraceId) -> Vec<Event> {
        self.state
            .lock()
            .unwrap()
            .traces
            .get(&trace)
            .map(|q| q.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Fire an anomaly trigger for `trace`: write its retained
    /// timeline to the sink (if any) and return the dump text. The
    /// first line is a `flight_trigger` annotation; each following
    /// line is one event, oldest first.
    pub fn trigger(&self, reason: &str, trace: TraceId) -> String {
        self.triggers.fetch_add(1, Ordering::Relaxed);
        let events = self.trace_events(trace);
        let header = Json::Obj(vec![
            ("flight_trigger".to_string(), Json::Str(reason.to_string())),
            ("trace".to_string(), Json::Str(trace.to_hex())),
            ("events".to_string(), Json::UInt(events.len() as u64)),
            ("dropped".to_string(), Json::UInt(self.dropped())),
        ]);
        let mut out = String::new();
        out.push_str(&header.encode());
        out.push('\n');
        for e in &events {
            out.push_str(&e.to_json().encode());
            out.push('\n');
        }
        if let Some(w) = self.sink.lock().unwrap().as_mut() {
            let _ = w.write_all(out.as_bytes());
            let _ = w.flush();
        }
        out
    }
}

impl Subscriber for FlightRecorder {
    fn observe(&self, event: &Event) {
        let Some(TraceCtx { trace, .. }) = event.trace else {
            return;
        };
        let mut st = self.state.lock().unwrap();
        if !st.traces.contains_key(&trace) {
            if st.order.len() == self.trace_capacity {
                if let Some(old) = st.order.pop_front() {
                    if let Some(q) = st.traces.remove(&old) {
                        self.dropped.fetch_add(q.len() as u64, Ordering::Relaxed);
                    }
                }
            }
            st.order.push_back(trace);
            st.traces.insert(trace, VecDeque::new());
        }
        let q = st.traces.get_mut(&trace).expect("just inserted");
        if q.len() == self.events_per_trace {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event.clone());
    }

    fn dropped_events(&self) -> u64 {
        self.dropped()
    }
}

/// One parsed dump line, for tree building.
struct DumpEvent {
    seq: u64,
    name: String,
    elapsed_ns: Option<u64>,
    span: Option<String>,
    parent: Option<String>,
    extras: Vec<(String, String)>,
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render_json_scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.encode(),
    }
}

/// Render a flight-recorder JSONL dump as per-trace causal trees.
///
/// Each trace becomes one tree: events are attached under the event
/// owning their `parent` span; events with an unknown or absent
/// parent hang off the synthesized trace root. Siblings appear in
/// `seq` (causal) order. `flight_trigger` annotation lines are listed
/// under the trace they implicate. With `filter`, only that trace is
/// rendered.
pub fn render_trace_trees(jsonl: &str, filter: Option<TraceId>) -> Result<String, String> {
    let mut traces: BTreeMap<String, Vec<DumpEvent>> = BTreeMap::new();
    let mut triggers: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if let Some(reason) = v.get("flight_trigger").and_then(Json::as_str) {
            let trace = v.get("trace").and_then(Json::as_str).unwrap_or("?");
            triggers
                .entry(trace.to_string())
                .or_default()
                .push(reason.to_string());
            continue;
        }
        let Some(trace) = v.get("trace").and_then(Json::as_str) else {
            continue; // untraced event: nothing to attach it to
        };
        let mut extras = Vec::new();
        if let Json::Obj(fields) = &v {
            for (k, val) in fields {
                if !matches!(
                    k.as_str(),
                    "seq" | "name" | "elapsed_ns" | "trace" | "span" | "parent"
                ) {
                    extras.push((k.clone(), render_json_scalar(val)));
                }
            }
        }
        traces
            .entry(trace.to_string())
            .or_default()
            .push(DumpEvent {
                seq: v.get("seq").and_then(Json::as_u64).unwrap_or(0),
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                elapsed_ns: v.get("elapsed_ns").and_then(Json::as_u64),
                span: v.get("span").and_then(Json::as_str).map(str::to_string),
                parent: v.get("parent").and_then(Json::as_str).map(str::to_string),
                extras,
            });
    }
    if let Some(want) = filter {
        let key = want.to_hex();
        traces.retain(|t, _| *t == key);
        triggers.retain(|t, _| *t == key);
        if traces.is_empty() && triggers.is_empty() {
            return Err(format!("trace {key} not found in dump"));
        }
    }
    if traces.is_empty() && triggers.is_empty() {
        return Err("no traced events in dump".to_string());
    }

    let mut out = String::new();
    for (trace, mut events) in traces {
        events.sort_by_key(|e| e.seq);
        out.push_str(&format!("trace {trace} ({} events)\n", events.len()));
        for reason in triggers.remove(&trace).unwrap_or_default() {
            out.push_str(&format!("  ! trigger: {reason}\n"));
        }
        // children[i] = indices whose parent span is owned by event i.
        let mut span_owner: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            if let Some(s) = e.span.as_deref() {
                span_owner.entry(s).or_insert(i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match e.parent.as_deref().and_then(|p| span_owner.get(p)) {
                Some(&owner) if owner != i => children[owner].push(i),
                _ => roots.push(i),
            }
        }
        let mut stack: Vec<(usize, usize, bool)> = Vec::new(); // (idx, depth, last)
        for (n, &r) in roots.iter().enumerate().rev() {
            stack.push((r, 0, n + 1 == roots.len()));
        }
        let mut prefix: Vec<bool> = Vec::new(); // per-depth "was last sibling"
        while let Some((i, depth, last)) = stack.pop() {
            prefix.truncate(depth);
            let mut line = String::from("  ");
            for &done in &prefix {
                line.push_str(if done { "   " } else { "│  " });
            }
            line.push_str(if last { "└─ " } else { "├─ " });
            line.push_str(&events[i].name);
            if let Some(ns) = events[i].elapsed_ns {
                line.push_str(&format!(" [{}]", format_ns(ns)));
            }
            for (k, v) in &events[i].extras {
                line.push_str(&format!(" {k}={v}"));
            }
            out.push_str(&line);
            out.push('\n');
            prefix.push(last);
            for (n, &c) in children[i].iter().enumerate().rev() {
                stack.push((c, depth + 1, n + 1 == children[i].len()));
            }
        }
    }
    // Triggers for traces with no retained events still deserve a line.
    for (trace, reasons) in triggers {
        out.push_str(&format!("trace {trace} (0 events)\n"));
        for reason in reasons {
            out.push_str(&format!("  ! trigger: {reason}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn traced_event(tel: &Telemetry, name: &str, ctx: &TraceCtx) {
        tel.event(name, || *ctx, Vec::new);
    }

    #[test]
    fn recorder_retains_per_trace_and_counts_drops() {
        let rec = std::sync::Arc::new(FlightRecorder::new(3, 2));
        let tel = Telemetry::new(rec.clone());
        let a = TraceCtx::for_nonce(1);
        let b = TraceCtx::for_nonce(2);
        for i in 0..5 {
            traced_event(&tel, &format!("a{i}"), &a);
        }
        traced_event(&tel, "b0", &b);
        tel.event("untraced", || None::<TraceCtx>, Vec::new);
        assert_eq!(rec.trace_events(a.trace).len(), 3, "ring bounded");
        assert_eq!(rec.trace_events(b.trace).len(), 1);
        assert_eq!(rec.dropped(), 2, "two oldest a-events evicted");
        // A third trace evicts the oldest trace (a) wholesale.
        let c = TraceCtx::for_nonce(3);
        traced_event(&tel, "c0", &c);
        assert!(rec.trace_events(a.trace).is_empty());
        assert_eq!(rec.dropped(), 5);
    }

    #[test]
    fn trigger_dumps_timeline_with_header() {
        let rec = std::sync::Arc::new(FlightRecorder::new(8, 8));
        let tel = Telemetry::new(rec.clone());
        let ctx = TraceCtx::for_nonce(9);
        traced_event(&tel, "first", &ctx);
        traced_event(&tel, "second", &ctx.child("x", 0));
        let dump = rec.trigger("rejected", ctx.trace);
        assert_eq!(rec.triggers(), 1);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        let head = parse_json(lines[0]).unwrap();
        assert_eq!(
            head.get("flight_trigger").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            head.get("trace").and_then(Json::as_str),
            Some(ctx.trace.to_hex().as_str())
        );
        let rendered = render_trace_trees(&dump, None).unwrap();
        assert!(rendered.contains("! trigger: rejected"));
        assert!(rendered.contains("first"));
    }

    #[test]
    fn render_builds_causal_tree() {
        let root = TraceCtx::for_nonce(4);
        let rpc = root.child("svc.rpc", 0);
        let member = rpc.child("svc.appraiser.a1", 0);
        let (tel, ring) = Telemetry::in_memory(16);
        drop(tel.span_in("pera.attest", || root.child("pera.attest:sw1", 1)));
        drop(tel.span_in("svc.rpc", || rpc));
        drop(tel.span_in("svc.appraiser.a1", || member));
        let jsonl: String = ring
            .events()
            .iter()
            .map(|e| format!("{}\n", e.to_json().encode()))
            .collect();
        let tree = render_trace_trees(&jsonl, Some(root.trace)).unwrap();
        let attest_at = tree.find("pera.attest").unwrap();
        let rpc_at = tree.find("svc.rpc").unwrap();
        let member_at = tree.find("svc.appraiser.a1").unwrap();
        assert!(attest_at < rpc_at && rpc_at < member_at, "causal order");
        // The appraiser span nests under svc.rpc (deeper indent).
        assert!(tree.lines().any(|l| l.contains("│") || l.contains("└")));
        assert!(render_trace_trees(&jsonl, Some(TraceId(0xdead))).is_err());
    }
}
