//! Dependency-free telemetry substrate for the PDA workspace.
//!
//! Three pillars, one handle:
//!
//! - **Spans & events** ([`event`]): RAII [`Span`] guards with
//!   monotonic timing and key=value fields, delivered to a pluggable
//!   [`Subscriber`] (in-memory ring, JSONL writer, flight recorder).
//! - **Metrics** ([`metrics`]): counters, gauges, and log-linear
//!   histograms (p50/p90/p99) in a shared [`Registry`], with JSON and
//!   Prometheus-text exposition.
//! - **Attestation audit log** ([`audit`]): an append-only record of
//!   every evidence generation, cache lookup, signature, and appraisal
//!   verdict, serializable to JSONL and parseable back.
//!
//! The [`Telemetry`] handle ties them together and is **disabled by
//! default**: [`Telemetry::off`] carries no allocation, and every
//! instrumentation call behind it is a single branch on an `Option` —
//! no clock reads, no formatting, no locks. That keeps instrumented
//! hot paths (the E15 per-packet loop) within noise of the
//! uninstrumented code; `tests/overhead.rs` enforces the ≤ 5% bound.
//! An enabled handle pays only for what it keeps: without a subscriber
//! ([`Telemetry::collecting`]) spans record their histograms and
//! build no event fields or trace contexts, and a component that
//! resolves its handles once ([`SpanSite`], [`Registry::counter`])
//! touches only their atomics per call. Trace identity travels as a
//! [`TraceCtx`] value on each [`Event`]; hex is written only when an
//! event is rendered to JSON.
//!
//! Like `pda-crypto`, this crate is written from scratch because the
//! build environment has no route to a crates.io registry.

pub mod audit;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod trace;

pub use audit::{AuditEvent, AuditLog, AuditRecord};
pub use event::{Event, JsonlSubscriber, MemorySubscriber, Subscriber, Value};
pub use flight::{render_trace_trees, FlightRecorder};
pub use json::Json;
pub use metrics::{percentile, Counter, Exemplar, Gauge, Histogram, Registry};
pub use slo::{SloPolicy, SloStatus};
pub use trace::{SpanId, TraceCtx, TraceId};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    /// Where events go; `None` when the handle keeps no events, so
    /// spans and events build no fields for it.
    subscriber: Option<Arc<dyn Subscriber>>,
    registry: Registry,
    audit: AuditLog,
    seq: AtomicU64,
}

impl Inner {
    /// Deliver one finished event to the subscriber, if there is one.
    fn emit(
        &self,
        name: String,
        elapsed_ns: Option<u64>,
        trace: Option<TraceCtx>,
        fields: Vec<(String, Value)>,
    ) {
        if let Some(subscriber) = &self.subscriber {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            subscriber.observe(&Event {
                name,
                elapsed_ns,
                trace,
                fields,
                seq,
            });
        }
    }
}

/// The telemetry handle threaded through instrumented code.
///
/// Cloning is cheap (an `Option<Arc>`); all clones share the same
/// registry, audit log, and subscriber. The [`Default`] handle is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: every call through it is a branch and
    /// nothing else. This is the hot-path default.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle delivering events to `subscriber`, with a
    /// fresh registry and audit log.
    pub fn new(subscriber: Arc<dyn Subscriber>) -> Telemetry {
        Telemetry::with_sink(Some(subscriber))
    }

    /// An enabled handle that keeps no events: metrics and the audit
    /// log collect, while spans and events build no fields. The usual
    /// choice for `--telemetry` runs and the appraisal service.
    pub fn collecting() -> Telemetry {
        Telemetry::with_sink(None)
    }

    fn with_sink(subscriber: Option<Arc<dyn Subscriber>>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                subscriber,
                registry: Registry::new(),
                audit: AuditLog::new(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled handle with an in-memory event ring of `capacity`;
    /// returns the ring alongside for inspection.
    pub fn in_memory(capacity: usize) -> (Telemetry, Arc<MemorySubscriber>) {
        let ring = Arc::new(MemorySubscriber::new(capacity));
        (Telemetry::new(ring.clone()), ring)
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `self` and `other` are clones of one enabled handle
    /// (sharing its registry, audit log and subscriber).
    pub fn same_as(&self, other: &Telemetry) -> bool {
        matches!((&self.inner, &other.inner), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// The shared metrics registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The shared audit log, when enabled.
    pub fn audit_log(&self) -> Option<&AuditLog> {
        self.inner.as_deref().map(|i| &i.audit)
    }

    /// Append an attestation audit event; no-op when disabled.
    #[inline]
    pub fn audit(&self, event: AuditEvent) {
        if let Some(inner) = &self.inner {
            audit_slow(inner, event);
        }
    }

    /// Append an audit event built lazily; the closure only runs when
    /// telemetry is enabled, keeping disabled paths free of the
    /// event's construction cost (string formatting, cloning).
    #[inline]
    pub fn audit_with(&self, build: impl FnOnce() -> AuditEvent) {
        if let Some(inner) = &self.inner {
            audit_build_slow(inner, build);
        }
    }

    /// Open a timed span. On drop it records its elapsed time into the
    /// histogram `"{name}.ns"` and, when the handle keeps events, emits
    /// an [`Event`] to the subscriber. The histogram is looked up by
    /// the span name on every call; a component that opens the same
    /// span on every operation resolves a [`SpanSite`] once instead.
    /// Disabled handles return an inert guard without reading the clock.
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { data: None },
            Some(inner) => span_named_slow(inner, name),
        }
    }

    /// [`span`](Self::span) with a lazily built name: the closure only
    /// runs when telemetry is enabled, so dynamic span names (e.g.
    /// per-table stage spans) cost nothing on disabled handles.
    #[inline]
    pub fn span_with(&self, name: impl FnOnce() -> String) -> Span {
        match &self.inner {
            None => Span { data: None },
            Some(inner) => span_named_slow(inner, &name()),
        }
    }

    /// [`span`](Self::span) opened in a trace context: the span's
    /// event carries it ([`Event::trace`]) so subscribers (notably the
    /// flight recorder) can attribute it causally. `ctx` returns a
    /// [`TraceCtx`] or an `Option` of one (`None`: untraced), and only
    /// runs when the handle keeps events.
    #[inline]
    pub fn span_in<C: Into<Option<TraceCtx>>>(&self, name: &str, ctx: impl FnOnce() -> C) -> Span {
        match &self.inner {
            None => Span { data: None },
            Some(inner) => in_trace(span_named_slow(inner, name), ctx),
        }
    }

    /// Resolve the span `name` once: the site holds its histogram, so
    /// [`SpanSite::span`] opens a span without a lookup. Inert on a
    /// disabled handle.
    pub fn span_site(&self, name: &str) -> SpanSite {
        SpanSite {
            bound: self.inner.as_ref().map(|inner| SiteBinding {
                inner: inner.clone(),
                hist: inner.registry.span_histogram(name),
                name: name.to_string(),
            }),
        }
    }

    /// Emit an instant (un-timed) event in the trace context `ctx`
    /// returns (as for [`span_in`](Self::span_in)). `ctx` and `fields`
    /// only run when the handle keeps events.
    #[inline]
    pub fn event<C: Into<Option<TraceCtx>>>(
        &self,
        name: &str,
        ctx: impl FnOnce() -> C,
        fields: impl FnOnce() -> Vec<(String, Value)>,
    ) {
        if let Some(inner) = &self.inner {
            if inner.subscriber.is_some() {
                inner.emit(name.to_string(), None, ctx().into(), fields());
            }
        }
    }

    /// Full dump — metrics registry, audit log, and the subscriber's
    /// dropped-event count (non-zero means truncated traces) — as one
    /// JSON object. Returns `Json::Null` when disabled.
    pub fn dump_json(&self) -> Json {
        match &self.inner {
            None => Json::Null,
            Some(inner) => Json::Obj(vec![
                ("metrics".to_string(), inner.registry.encode_json()),
                ("audit".to_string(), inner.audit.to_json()),
                (
                    "events_dropped".to_string(),
                    Json::UInt(inner.subscriber.as_ref().map_or(0, |s| s.dropped_events())),
                ),
            ]),
        }
    }

    /// Metrics in Prometheus text format, with the audit-log length as
    /// a synthetic counter. Empty when disabled.
    pub fn dump_prometheus(&self) -> String {
        match &self.inner {
            None => String::new(),
            Some(inner) => {
                let mut out = inner.registry.encode_prometheus();
                out.push_str(&format!(
                    "# TYPE audit_records counter\naudit_records {}\n",
                    inner.audit.len()
                ));
                out
            }
        }
    }
}

// Enabled-path bodies live in `#[cold]`, never-inlined functions so
// the code a call site actually inlines is just the `inner` null
// check. Without this, a hot loop with several instrumentation points
// inlines every enabled path's allocation and clock read, and the
// resulting code-size/register pressure taxes the loop even when the
// handle is off — the overhead test caught exactly that. `log` and
// `tracing` outline their enabled paths for the same reason.

#[cold]
#[inline(never)]
fn span_named_slow(inner: &Arc<Inner>, name: &str) -> Span {
    span_open(inner, name, inner.registry.span_histogram(name))
}

#[cold]
#[inline(never)]
fn span_site_slow(site: &SiteBinding) -> Span {
    span_open(&site.inner, &site.name, site.hist.clone())
}

#[cold]
#[inline(never)]
fn in_trace<C: Into<Option<TraceCtx>>>(mut span: Span, ctx: impl FnOnce() -> C) -> Span {
    if let Some(e) = span.event_mut() {
        e.trace = ctx().into();
    }
    span
}

fn span_open(inner: &Arc<Inner>, name: &str, hist: Histogram) -> Span {
    Span {
        data: Some(Box::new(SpanData {
            hist,
            start: Instant::now(),
            event: inner.subscriber.is_some().then(|| OpenEvent {
                inner: inner.clone(),
                name: name.to_string(),
                trace: None,
                fields: Vec::new(),
            }),
        })),
    }
}

#[cold]
#[inline(never)]
fn audit_slow(inner: &Arc<Inner>, event: AuditEvent) {
    inner.audit.append(event);
}

#[cold]
#[inline(never)]
fn audit_build_slow(inner: &Arc<Inner>, build: impl FnOnce() -> AuditEvent) {
    inner.audit.append(build());
}

// Takes the Box so the inlined drop passes one pointer instead of
// copying the payload out on the way to the cold path.
#[allow(clippy::boxed_local)]
#[cold]
#[inline(never)]
fn span_close_slow(d: Box<SpanData>) {
    let elapsed_ns = d.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    d.hist.record(elapsed_ns);
    if let Some(e) = d.event {
        e.inner.emit(e.name, Some(elapsed_ns), e.trace, e.fields);
    }
}

/// A span name bound to one handle's `"{name}.ns"` histogram; see
/// [`Telemetry::span_site`]. Cloning shares the histogram.
#[derive(Clone, Default)]
pub struct SpanSite {
    bound: Option<SiteBinding>,
}

#[derive(Clone)]
struct SiteBinding {
    inner: Arc<Inner>,
    hist: Histogram,
    name: String,
}

impl SpanSite {
    /// Open a timed span on this site: [`Telemetry::span`] without the
    /// histogram lookup. Inert for a site of a disabled handle.
    #[inline]
    pub fn span(&self) -> Span {
        match &self.bound {
            None => Span { data: None },
            Some(site) => span_site_slow(site),
        }
    }

    /// [`span`](Self::span) opened in a trace context, which only
    /// runs when the handle keeps events; see [`Telemetry::span_in`].
    #[inline]
    pub fn span_in<C: Into<Option<TraceCtx>>>(&self, ctx: impl FnOnce() -> C) -> Span {
        match &self.bound {
            None => Span { data: None },
            Some(site) => in_trace(span_site_slow(site), ctx),
        }
    }
}

struct SpanData {
    hist: Histogram,
    start: Instant,
    /// The event the span emits on close; `None` when the handle keeps
    /// no events.
    event: Option<OpenEvent>,
}

struct OpenEvent {
    inner: Arc<Inner>,
    name: String,
    trace: Option<TraceCtx>,
    fields: Vec<(String, Value)>,
}

/// An RAII timed-span guard; see [`Telemetry::span`].
///
/// The payload is boxed so an inert guard (disabled handle) is a
/// single nullable pointer: opening and dropping one costs a null
/// check instead of shuffling the payload through the stack, which
/// keeps disabled-handle instrumentation inside the hot-loop overhead
/// budget. Enabled spans pay that one allocation, plus the event's
/// name and fields when the handle keeps events.
#[must_use = "a span measures until dropped; binding it to `_` drops it immediately"]
pub struct Span {
    data: Option<Box<SpanData>>,
}

impl Span {
    /// Attach a key=value field; a no-op, which converts nothing, on a
    /// span that keeps no fields.
    #[inline]
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(e) = self.event_mut() {
            e.fields.push((key.to_string(), value.into()));
        }
    }

    /// Whether this span keeps fields: it belongs to a handle that
    /// keeps events. Lets callers skip formatting values that nothing
    /// would read.
    #[inline]
    pub fn keeps_fields(&self) -> bool {
        self.data.as_ref().is_some_and(|d| d.event.is_some())
    }

    fn event_mut(&mut self) -> Option<&mut OpenEvent> {
        self.data.as_mut().and_then(|d| d.event.as_mut())
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            span_close_slow(d);
        }
    }
}

/// Open a span with inline key=value fields:
/// `let _s = span!(tel, "pera.attest", packets = n, chained = true);`
#[macro_export]
macro_rules! span {
    ($tel:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __pda_span = $tel.span($name);
        $(__pda_span.set(stringify!($key), $value);)*
        __pda_span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let tel = Telemetry::off();
        assert!(!tel.enabled());
        assert!(tel.registry().is_none());
        assert!(tel.audit_log().is_none());
        tel.audit(AuditEvent::CacheLookup {
            attester: "x".into(),
            level: "Program".into(),
            hit: true,
        });
        let mut s = tel.span("nothing");
        s.set("k", 1u64);
        drop(s);
        assert_eq!(tel.dump_json(), Json::Null);
        assert_eq!(tel.dump_prometheus(), "");
    }

    #[test]
    fn span_records_histogram_and_event() {
        let (tel, ring) = Telemetry::in_memory(16);
        {
            let mut s = span!(tel, "work.unit", items = 3u64);
            s.set("extra", "yes");
        }
        let h = tel.registry().unwrap().histogram("work.unit.ns");
        assert_eq!(h.count(), 1);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work.unit");
        assert!(events[0].elapsed_ns.is_some());
        assert_eq!(
            events[0].fields,
            vec![
                ("items".to_string(), Value::U64(3)),
                ("extra".to_string(), Value::Str("yes".into())),
            ]
        );
    }

    #[test]
    fn a_handle_without_a_subscriber_records_metrics_and_builds_no_fields() {
        let tel = Telemetry::collecting();
        {
            let mut s = tel.span_in("work.unit", || -> TraceCtx {
                panic!("no context is built")
            });
            assert!(!s.keeps_fields());
            s.set("k", 1u64);
            let t = tel
                .span_site("work.unit")
                .span_in(|| -> TraceCtx { panic!("no context is built") });
            assert!(!t.keeps_fields());
        }
        tel.event(
            "instant",
            || -> TraceCtx { panic!("no context is built") },
            || panic!("no fields are built"),
        );
        let h = tel.registry().unwrap().histogram("work.unit.ns");
        assert_eq!(h.count(), 2, "both spans recorded");
        assert_eq!(tel.dump_json().get("events_dropped"), Some(&Json::UInt(0)));
    }

    #[test]
    fn a_site_span_records_and_emits_what_a_named_span_does() {
        let (tel, ring) = Telemetry::in_memory(16);
        let site = tel.span_site("work.unit");
        let ctx = TraceCtx::for_nonce(3).child("w", 0);
        for mut s in [tel.span_in("work.unit", || ctx), site.span_in(|| ctx)] {
            assert!(s.keeps_fields());
            s.set("items", 2u64);
        }
        assert_eq!(tel.registry().unwrap().histogram("work.unit.ns").count(), 2);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[1].seq), (0, 1));
        for e in &events {
            assert_eq!(e.name, "work.unit");
            assert_eq!(e.trace, Some(ctx));
            assert_eq!(e.fields, vec![("items".to_string(), Value::U64(2))]);
        }
        let off = Telemetry::off().span_site("work.unit");
        assert!(!off.span().keeps_fields());
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::collecting();
        let tel2 = tel.clone();
        tel.registry().unwrap().counter("c").inc();
        tel2.registry().unwrap().counter("c").inc();
        assert_eq!(tel.registry().unwrap().counter("c").get(), 2);
        tel2.audit(AuditEvent::Signature {
            signer: "s".into(),
            scheme: "HMAC-SHA256".into(),
            sig_bytes: 32,
        });
        assert_eq!(tel.audit_log().unwrap().len(), 1);
    }

    #[test]
    fn audit_with_is_lazy_when_off() {
        let tel = Telemetry::off();
        let mut ran = false;
        // The closure must not run on a disabled handle... but Rust
        // closures can't observe that directly without running; use a
        // panic guard instead.
        tel.audit_with(|| {
            ran = true;
            panic!("closure must not run when telemetry is off");
        });
        assert!(!ran);
    }

    #[test]
    fn dump_json_contains_metrics_and_audit() {
        let tel = Telemetry::collecting();
        tel.registry().unwrap().counter("pkts").add(4);
        tel.audit(AuditEvent::Appraisal {
            subject: "sw0".into(),
            nonce: Some(9),
            ok: true,
            checks: 2,
            cause: None,
        });
        let dump = tel.dump_json().encode();
        let v = json::parse(&dump).unwrap();
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("pkts")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let audit = v.get("audit").and_then(Json::as_arr).unwrap();
        assert_eq!(audit.len(), 1);
        assert_eq!(
            audit[0].get("kind").and_then(Json::as_str),
            Some("appraisal")
        );
        let prom = tel.dump_prometheus();
        assert!(prom.contains("audit_records 1"));
    }
}
