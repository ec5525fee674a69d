//! The traced run's span recorder and per-layer cost ledger.
//!
//! The benchmark wraps each call it makes into a layer in a span named
//! after the per-layer metric. A span records its operation (the
//! nonce's trace id, or the query index), its parent, start and
//! duration. Where a boundary sits inside one public call (the pipeline
//! inside `process_packet`, the handler inside an RPC round trip), the
//! inner layer's function is timed on the same input and recorded as a
//! child, so the outer layer's self time is its duration minus its
//! children's. A replayed call is run [`REPLAYS`] times and its fastest
//! run kept, so a preemption of the benchmark process does not land in
//! one layer's row. The ledger sums self times per span name; time an
//! operation spent outside every top-level span is the residue row. Rows
//! plus residue equal the operations' total by construction, so that sum
//! is only printed. What can go wrong is checked ([`Ledger::problems`]):
//! an operation whose top-level spans exceed its total (negative
//! residue), a span of an operation that was never recorded, and a row
//! with negative total self time (replayed children outweighing the
//! call they sit in).
//!
//! Spans stay in memory and are written out once, when the run ends.

use crate::util::percentile;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a top-level span.
const NO_PARENT: u32 = u32::MAX;

/// Runs of a replayed call; the fastest is recorded.
pub const REPLAYS: usize = 3;

/// Problems listed one by one before the rest are only counted.
const LISTED_PROBLEMS: usize = 5;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span (and per-layer metric) name.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the parent span, or `NO_PARENT`.
    parent: u32,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (a difference of two timings for the
    /// few derived spans, so it may be negative under noise).
    pub dur_ns: i64,
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops: Vec<(u64, i64)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }
}

/// Handle of a recorded span, for use as a parent.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef(u32);

impl Tracer {
    /// Record a span of `dur_ns` that started at `start`.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanRef>,
        start: Instant,
        dur_ns: i64,
    ) -> SpanRef {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
        });
        SpanRef(idx)
    }

    /// Time a replayed call: run `f` [`REPLAYS`] times on the same
    /// input and record the fastest run as the span. Returns the last
    /// run's output.
    pub fn best_of<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanRef>,
        mut f: impl FnMut() -> T,
    ) -> (T, SpanRef) {
        let first = Instant::now();
        let mut best = i64::MAX;
        let mut out = None;
        for _ in 0..REPLAYS {
            let start = Instant::now();
            out = Some(f());
            best = best.min(start.elapsed().as_nanos() as i64);
        }
        let out = out.expect("REPLAYS > 0");
        (out, self.span(name, op, parent, first, best))
    }

    /// Record an operation's end-to-end time (the ledger's total).
    pub fn op(&mut self, op: u64, total_ns: i64) {
        self.ops.push((op, total_ns));
    }

    /// Inclusive durations of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<i64> {
        let mut v: Vec<i64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Per span called `parent`: its duration minus the summed
    /// durations of its children called `child`, ascending.
    pub fn minus_children(&self, parent: &str, child: &str) -> Vec<i64> {
        let mut sub: HashMap<u32, i64> = HashMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT && s.name == child {
                *sub.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut v: Vec<i64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, s)| s.dur_ns - sub.get(&(i as u32)).copied().unwrap_or(0))
            .collect();
        v.sort_unstable();
        v
    }

    /// Build the ledger: self time per span name plus the residue.
    pub fn ledger(&self) -> Ledger {
        let mut child_sum = vec![0i64; self.spans.len()];
        let mut top_level = 0i64;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                top_level += s.dur_ns;
            } else {
                child_sum[s.parent as usize] += s.dur_ns;
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut selves: HashMap<&'static str, Vec<i64>> = HashMap::new();
        for (s, sub) in self.spans.iter().zip(&child_sum) {
            let entry = selves.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                Vec::new()
            });
            entry.push(s.dur_ns - sub);
        }
        let op_total_ns: i64 = self.ops.iter().map(|&(_, t)| t).sum();
        let rows: Vec<Row> = order
            .into_iter()
            .map(|name| {
                let mut v = selves.remove(name).unwrap_or_default();
                v.sort_unstable();
                Row {
                    name,
                    count: v.len() as u64,
                    self_total_ns: v.iter().sum(),
                    self_p50_ns: percentile(&v, 0.50),
                    self_p99_ns: percentile(&v, 0.99),
                }
            })
            .collect();
        let problems = self.problems(&rows);
        Ledger {
            rows,
            residue_ns: op_total_ns - top_level,
            op_total_ns,
            ops: self.ops.len() as u64,
            problems,
        }
    }

    /// The ledger's consistency checks. Operations are keyed by id; an
    /// id recorded more than once (the same nonce sent to a fresh
    /// service in a later round) is checked over its summed totals.
    fn problems(&self, rows: &[Row]) -> Vec<String> {
        let mut totals: HashMap<u64, i64> = HashMap::new();
        for &(op, t) in &self.ops {
            *totals.entry(op).or_default() += t;
        }
        let mut top: HashMap<u64, i64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == NO_PARENT) {
            *top.entry(s.op).or_default() += s.dur_ns;
        }
        let mut found = Vec::new();
        let mut ops: Vec<(&u64, &i64)> = top.iter().collect();
        ops.sort_unstable();
        for (op, &spans) in ops {
            match totals.get(op) {
                None => found.push(format!("spans of operation {op:016x}, which has no total")),
                Some(&total) if spans > total => found.push(format!(
                    "operation {op:016x}: top-level spans {spans} ns exceed its total {total} ns"
                )),
                Some(_) => {}
            }
        }
        for r in rows.iter().filter(|r| r.self_total_ns < 0) {
            found.push(format!(
                "row {}: negative total self time {} ns",
                r.name, r.self_total_ns
            ));
        }
        if found.len() > LISTED_PROBLEMS {
            let more = found.len() - LISTED_PROBLEMS;
            found.truncate(LISTED_PROBLEMS);
            found.push(format!("{more} more"));
        }
        found
    }

    /// Write every span as tab-separated lines:
    /// `op span parent name start_ns dur_ns` (parent `-` at top level).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{:016x}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// One ledger row: a layer's self time.
#[derive(Clone, Debug)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time.
    pub self_total_ns: i64,
    /// Median self time per span.
    pub self_p50_ns: i64,
    /// 99th-percentile self time per span.
    pub self_p99_ns: i64,
}

/// Self time per layer, plus the unattributed residue.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// One row per span name, in first-recorded order.
    pub rows: Vec<Row>,
    /// Operation time outside every top-level span.
    pub residue_ns: i64,
    /// Summed end-to-end time of the traced operations.
    pub op_total_ns: i64,
    /// Traced operations.
    pub ops: u64,
    /// Failed consistency checks (empty when the ledger is sound).
    pub problems: Vec<String>,
}

impl Ledger {
    /// Rows plus residue. Self times telescope to the top-level spans,
    /// so this equals [`Ledger::op_total_ns`] for any spans at all; it
    /// is printed, not checked.
    pub fn accounted_ns(&self) -> i64 {
        self.rows.iter().map(|r| r.self_total_ns).sum::<i64>() + self.residue_ns
    }

    /// Share of the operation total taken by `ns`.
    pub fn share(&self, ns: i64) -> f64 {
        if self.op_total_ns == 0 {
            0.0
        } else {
            ns as f64 / self.op_total_ns as f64
        }
    }

    /// The ledger as printable lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "ledger: {} traced operations, {:.3} ms in total; self time per layer",
            self.ops,
            self.op_total_ns as f64 / 1e6
        )];
        out.push(format!(
            "  {:<26} {:>9} {:>12} {:>12} {:>12} {:>7}",
            "row", "count", "p50_ns", "p99_ns", "total_ms", "share"
        ));
        for r in &self.rows {
            out.push(format!(
                "  {:<26} {:>9} {:>12} {:>12} {:>12.3} {:>6.1}%",
                r.name,
                r.count,
                r.self_p50_ns,
                r.self_p99_ns,
                r.self_total_ns as f64 / 1e6,
                100.0 * self.share(r.self_total_ns)
            ));
        }
        out.push(format!(
            "  {:<26} {:>9} {:>12} {:>12} {:>12.3} {:>6.1}%",
            "residue",
            self.ops,
            "-",
            "-",
            self.residue_ns as f64 / 1e6,
            100.0 * self.share(self.residue_ns)
        ));
        out.push(format!(
            "  rows + residue = {:.3} ms; operation total = {:.3} ms",
            self.accounted_ns() as f64 / 1e6,
            self.op_total_ns as f64 / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residue_add_up_to_the_operation_total() {
        let mut tr = Tracer::default();
        let t = Instant::now();
        // Operation 1: a 100 ns call holding a 30 ns and a 20 ns child,
        // the first of which holds a 5 ns grandchild; 120 ns end to end.
        let top = tr.span("outer", 1, None, t, 100);
        let a = tr.span("inner", 1, Some(top), t, 30);
        tr.span("leaf", 1, Some(a), t, 5);
        tr.span("inner", 1, Some(top), t, 20);
        tr.op(1, 120);
        // Operation 2: one top-level call, no residue.
        tr.span("outer", 2, None, t, 40);
        tr.op(2, 40);
        let ledger = tr.ledger();
        let row = |name: &str| ledger.rows.iter().find(|r| r.name == name).unwrap().clone();
        assert_eq!(row("outer").self_total_ns, 50 + 40);
        assert_eq!(row("outer").count, 2);
        assert_eq!(row("inner").self_total_ns, 25 + 20);
        assert_eq!(row("leaf").self_total_ns, 5);
        assert_eq!(ledger.residue_ns, 20);
        assert_eq!(ledger.op_total_ns, 160);
        assert_eq!(tr.minus_children("outer", "inner"), vec![40, 50]);
        assert!(ledger.problems.is_empty(), "{:?}", ledger.problems);
    }

    #[test]
    fn inconsistent_spans_fail_the_checks() {
        let t = Instant::now();
        // A top-level span longer than its operation: negative residue.
        let mut tr = Tracer::default();
        tr.span("outer", 1, None, t, 80);
        tr.op(1, 50);
        let problems = tr.ledger().problems;
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("exceed its total"), "{problems:?}");

        // A replayed child longer than the call it sits in.
        let mut tr = Tracer::default();
        let top = tr.span("outer", 1, None, t, 40);
        tr.span("inner", 1, Some(top), t, 60);
        tr.op(1, 100);
        let problems = tr.ledger().problems;
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("row outer"), "{problems:?}");

        // A span of an operation that was never recorded.
        let mut tr = Tracer::default();
        tr.span("outer", 2, None, t, 10);
        tr.op(1, 100);
        let problems = tr.ledger().problems;
        assert!(problems[0].contains("has no total"), "{problems:?}");
    }

    #[test]
    fn best_of_keeps_the_fastest_run() {
        let mut tr = Tracer::default();
        let mut runs = 0;
        let (out, _) = tr.best_of("leaf", 1, None, || {
            runs += 1;
            if runs == 1 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            runs
        });
        assert_eq!((runs, out), (REPLAYS, REPLAYS));
        assert!(tr.durations("leaf")[0] < 5_000_000);
    }
}
