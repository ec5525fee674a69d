//! Deterministic causal-trace identity.
//!
//! A trace follows one attestation nonce through its whole lifecycle:
//! switch measurement → control channel → appraisal service →
//! federation members → quorum verdict. Because every hop already
//! shares the nonce, trace IDs are **derived**, not generated: the
//! trace ID is a keyed FNV hash of the nonce, and span IDs are hashes
//! of (trace, site name, site index). That makes the whole tree
//! seed-derivable — two processes that never exchanged a header agree
//! on the trace ID of nonce 17, and a replayed run reproduces the
//! same IDs bit-for-bit. No wall clock, no ambient randomness.
//!
//! Context still crosses the JSON-RPC boundary explicitly as a
//! W3C-style `traceparent` string (`00-<32 hex trace>-<16 hex
//! span>-01`), so a caller with a foreign trace ID can impose it;
//! absent a header, the receiver re-derives the same context from the
//! nonce.
//!
//! Inside the process a context is a value: an [`crate::Event`]
//! carries its [`TraceCtx`], the flight recorder keys on it, and an
//! appraisal audit record's trace is derived from its nonce. Hex is
//! written only where JSON is: an event's `trace`, `span` and `parent`
//! keys (16-char hex) and an appraisal record's `trace` key.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(parts: &[&[u8]]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for b in *part {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Separator so ("ab","c") and ("a","bc") hash apart.
        h ^= 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 64-bit trace identifier (one per attestation nonce).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// A 64-bit span identifier within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// The canonical trace for an attestation nonce. Every component
    /// that knows the nonce derives the same ID.
    pub fn for_nonce(nonce: u64) -> TraceId {
        let h = fnv(&[b"pda-trace", &nonce.to_le_bytes()]);
        TraceId(if h == 0 { 1 } else { h })
    }

    /// 16-char lower-case hex.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse 16-char hex (as emitted by [`TraceId::to_hex`]).
    pub fn from_hex(s: &str) -> Option<TraceId> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl SpanId {
    /// 16-char lower-case hex.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A propagatable trace context: the trace, the current span, and the
/// span's parent (absent at the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The current span.
    pub span: SpanId,
    /// The current span's parent, if any.
    pub parent: Option<SpanId>,
}

impl TraceCtx {
    /// The root context of `trace`.
    pub fn root(trace: TraceId) -> TraceCtx {
        let span = fnv(&[b"pda-span-root", &trace.0.to_le_bytes()]);
        TraceCtx {
            trace,
            span: SpanId(span),
            parent: None,
        }
    }

    /// The canonical root context for an attestation nonce.
    pub fn for_nonce(nonce: u64) -> TraceCtx {
        TraceCtx::root(TraceId::for_nonce(nonce))
    }

    /// A child context: deterministic from (trace, current span,
    /// `name`, `index`). Use a stable per-site index (e.g. the
    /// attested-packet counter) so replays reproduce the same tree.
    pub fn child(&self, name: &str, index: u64) -> TraceCtx {
        let span = fnv(&[
            b"pda-span",
            &self.trace.0.to_le_bytes(),
            &self.span.0.to_le_bytes(),
            name.as_bytes(),
            &index.to_le_bytes(),
        ]);
        TraceCtx {
            trace: self.trace,
            span: SpanId(span),
            parent: Some(self.span),
        }
    }

    /// W3C-style header: `00-<32 hex trace>-<16 hex span>-01`. The
    /// 64-bit trace ID occupies the low half of the 128-bit field.
    pub fn traceparent(&self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace.0, self.span.0)
    }

    /// Parse a [`traceparent`](Self::traceparent) header. Accepts any
    /// version byte; takes the low 64 bits of the trace field. The
    /// parsed span becomes the parent-to-be: callers derive children
    /// from the returned context. Never panics: the header arrives
    /// from the network (the JSON-RPC `traceparent` field), so
    /// arbitrary UTF-8 — including multi-byte characters straddling
    /// the trace-field split point — must parse to `None`, not crash.
    pub fn parse_traceparent(s: &str) -> Option<TraceCtx> {
        // A traceparent is ASCII by definition; rejecting non-ASCII up
        // front also guarantees every byte index below is a char
        // boundary.
        if !s.is_ascii() {
            return None;
        }
        let mut parts = s.split('-');
        let _version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        if trace_hex.len() != 32 || span_hex.len() != 16 {
            return None;
        }
        // `get` (not slicing): byte 16 may not be a char boundary.
        let trace = u64::from_str_radix(trace_hex.get(16..)?, 16).ok()?;
        let span = u64::from_str_radix(span_hex, 16).ok()?;
        if trace == 0 {
            return None;
        }
        Some(TraceCtx {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::for_nonce(7), TraceId::for_nonce(7));
        assert_ne!(TraceId::for_nonce(7), TraceId::for_nonce(8));
        assert_ne!(TraceId::for_nonce(0).0, 0);
    }

    #[test]
    fn child_spans_are_deterministic_and_site_scoped() {
        let root = TraceCtx::for_nonce(42);
        let a = root.child("pera.attest:sw1", 3);
        let b = root.child("pera.attest:sw1", 3);
        assert_eq!(a, b);
        assert_ne!(a.span, root.child("pera.attest:sw1", 4).span);
        assert_ne!(a.span, root.child("pera.attest:sw2", 3).span);
        assert_eq!(a.parent, Some(root.span));
        assert_eq!(a.trace, root.trace);
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceCtx::for_nonce(99).child("svc.rpc", 1);
        let header = ctx.traceparent();
        let back = TraceCtx::parse_traceparent(&header).unwrap();
        assert_eq!(back.trace, ctx.trace);
        assert_eq!(back.span, ctx.span);
        assert!(TraceCtx::parse_traceparent("garbage").is_none());
        assert!(TraceCtx::parse_traceparent("00-zz-yy-01").is_none());
        let zero = format!("00-{:032x}-{:016x}-01", 0u64, 5u64);
        assert!(TraceCtx::parse_traceparent(&zero).is_none());
    }

    #[test]
    fn traceparent_rejects_multibyte_without_panicking() {
        // 32-byte trace field whose byte 16 falls inside a two-byte
        // UTF-8 char ('é'): slicing would panic; parsing must not.
        let field = format!("{}é{}", "a".repeat(15), "b".repeat(15));
        assert_eq!(field.len(), 32);
        let header = format!("00-{field}-{:016x}-01", 5u64);
        assert!(TraceCtx::parse_traceparent(&header).is_none());
        // Multi-byte chars elsewhere in the field are rejected too.
        let field = format!("é{}", "c".repeat(30));
        assert_eq!(field.len(), 32);
        let header = format!("00-{field}-{:016x}-01", 5u64);
        assert!(TraceCtx::parse_traceparent(&header).is_none());
    }

    #[test]
    fn hex_round_trips() {
        let t = TraceId::for_nonce(5);
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(TraceId::from_hex("short"), None);
    }
}
