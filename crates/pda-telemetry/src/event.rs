//! Structured events and the pluggable subscriber sinks.
//!
//! An [`Event`] is a named record with optional elapsed time, the
//! trace context it belongs to, and key=value fields; a
//! [`Subscriber`] receives finished events. Two
//! sinks ship here: [`MemorySubscriber`] (bounded ring buffer for tests
//! and in-process inspection) and [`JsonlSubscriber`] (one JSON object
//! per line to any `Write`); the flight recorder
//! ([`crate::FlightRecorder`]) is a third. A handle that keeps no
//! events ([`crate::Telemetry::collecting`]) has no subscriber at all,
//! so it builds no events to drop.

use crate::json::Json;
use crate::trace::TraceCtx;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, nonces, byte counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl Value {
    /// Render as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::UInt(*v),
            Value::I64(v) => Json::Num(*v as f64),
            Value::F64(v) => Json::Num(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(v) => Json::Str(v.clone()),
        }
    }
}

/// A finished structured event (an instant event or a closed span).
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Event (or span) name, dot-separated by convention.
    pub name: String,
    /// Wall-clock duration for spans; `None` for instant events.
    pub elapsed_ns: Option<u64>,
    /// The trace context the event was opened in
    /// ([`crate::Telemetry::span_in`], [`crate::Telemetry::event`]);
    /// `None` for an untraced event.
    pub trace: Option<TraceCtx>,
    /// Attached key=value fields.
    pub fields: Vec<(String, Value)>,
    /// Process-wide ordering sequence number.
    pub seq: u64,
}

impl Event {
    /// Render as a JSON object. A traced event carries its context as
    /// `trace`, `span` and (below the root) `parent`, each 16-char hex.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::UInt(self.seq)),
            ("name".to_string(), Json::Str(self.name.clone())),
        ];
        if let Some(ns) = self.elapsed_ns {
            fields.push(("elapsed_ns".to_string(), Json::UInt(ns)));
        }
        if let Some(ctx) = &self.trace {
            fields.push(("trace".to_string(), Json::Str(ctx.trace.to_hex())));
            fields.push(("span".to_string(), Json::Str(ctx.span.to_hex())));
            if let Some(parent) = ctx.parent {
                fields.push(("parent".to_string(), Json::Str(parent.to_hex())));
            }
        }
        for (k, v) in &self.fields {
            fields.push((k.clone(), v.to_json()));
        }
        Json::Obj(fields)
    }
}

/// A sink for finished events. Implementations must be cheap and
/// non-blocking where possible: `observe` runs on the hot path of
/// whatever was instrumented.
pub trait Subscriber: Send + Sync {
    /// Receive one finished event.
    fn observe(&self, event: &Event);

    /// How many observed events this sink has since discarded (ring
    /// eviction, truncation). Lossless sinks report 0; bounded sinks
    /// override so truncated traces are detectable in dumps.
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// A bounded in-memory ring buffer of events; oldest are evicted first.
pub struct MemorySubscriber {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl MemorySubscriber {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> MemorySubscriber {
        MemorySubscriber {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events evicted to make room since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for MemorySubscriber {
    fn observe(&self, event: &Event) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event.clone());
    }

    fn dropped_events(&self) -> u64 {
        self.dropped()
    }
}

/// Writes each event as one JSON object per line to a `Write` sink.
pub struct JsonlSubscriber<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSubscriber<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonlSubscriber<W> {
        JsonlSubscriber {
            writer: Mutex::new(writer),
        }
    }

    /// Consume the subscriber and return the writer.
    pub fn into_inner(self) -> W {
        self.writer.into_inner().unwrap()
    }
}

impl<W: Write + Send> Subscriber for JsonlSubscriber<W> {
    fn observe(&self, event: &Event) {
        let mut w = self.writer.lock().unwrap();
        // Telemetry must never take down the instrumented program:
        // write errors are swallowed.
        let _ = writeln!(w, "{}", event.to_json().encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, seq: u64) -> Event {
        Event {
            name: name.to_string(),
            elapsed_ns: Some(seq * 10),
            trace: None,
            fields: vec![("k".to_string(), Value::U64(seq))],
            seq,
        }
    }

    #[test]
    fn memory_ring_evicts_oldest() {
        let sub = MemorySubscriber::new(2);
        assert!(sub.is_empty());
        assert_eq!(sub.dropped(), 0);
        for i in 0..5 {
            sub.observe(&ev("e", i));
        }
        let kept = sub.events();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].seq, 3);
        assert_eq!(kept[1].seq, 4);
        assert_eq!(sub.dropped(), 3, "three evictions counted");
        assert_eq!(sub.dropped_events(), 3);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let sub = JsonlSubscriber::new(Vec::new());
        sub.observe(&ev("pipeline.parse", 1));
        sub.observe(&Event {
            name: "note".to_string(),
            elapsed_ns: None,
            trace: None,
            fields: vec![("msg".to_string(), Value::Str("hi \"there\"".into()))],
            seq: 2,
        });
        let bytes = sub.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("name").and_then(Json::as_str),
            Some("pipeline.parse")
        );
        assert_eq!(first.get("elapsed_ns").and_then(Json::as_u64), Some(10));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("msg").and_then(Json::as_str),
            Some("hi \"there\"")
        );
        assert_eq!(second.get("elapsed_ns"), None);
    }

    #[test]
    fn trace_renders_parent_only_when_present() {
        let root = TraceCtx::for_nonce(1);
        let child = root.child("x", 0);
        let hex = |v: u64| format!("{v:016x}");
        let (t, r, c) = (hex(root.trace.0), hex(root.span.0), hex(child.span.0));
        let line = |trace| {
            Event {
                trace,
                ..ev("e", 0)
            }
            .to_json()
            .encode()
        };
        let head = r#"{"seq":0,"name":"e","elapsed_ns":0"#;
        assert_eq!(line(None), format!(r#"{head},"k":0}}"#));
        assert_eq!(
            line(Some(root)),
            format!(r#"{head},"trace":"{t}","span":"{r}","k":0}}"#)
        );
        assert_eq!(
            line(Some(child)),
            format!(r#"{head},"trace":"{t}","span":"{c}","parent":"{r}","k":0}}"#)
        );
    }
}
