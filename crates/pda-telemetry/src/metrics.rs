//! Metrics: counters, gauges, and log-linear-bucket histograms behind a
//! name-keyed registry, with JSON and Prometheus-text exposition.
//!
//! Histograms use HDR-style log-linear bucketing: values below 16 get
//! their own bucket; above that each power of two is split into 16
//! linear sub-buckets, bounding the relative quantile error at 1/16
//! (6.25%) while keeping the bucket array small and allocation-free.

use crate::json::Json;
use crate::trace::TraceId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: 2^SUB_BITS linear buckets per power of two.
pub const SUB_BITS: u32 = 4;

const SUB_COUNT: usize = 1 << SUB_BITS; // 16

/// Total bucket count: 16 exact buckets for v < 16, then 16 sub-buckets
/// for each of the 60 remaining powers of two up to 2^63.
pub const BUCKETS: usize = SUB_COUNT + (63 - SUB_BITS as usize) * SUB_COUNT + SUB_COUNT;

/// Map a value to its bucket index.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB_COUNT as u64 - 1)) as usize;
    SUB_COUNT + (msb - SUB_BITS) as usize * SUB_COUNT + sub
}

/// Lowest value that maps into bucket `i` (the bucket's reported value
/// for quantile extraction — quantiles are therefore lower bounds).
pub fn bucket_lower(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    let msb = SUB_BITS + ((i - SUB_COUNT) / SUB_COUNT) as u32;
    let sub = ((i - SUB_COUNT) % SUB_COUNT) as u64;
    (1u64 << msb) + (sub << (msb - SUB_BITS))
}

/// 1-based nearest rank of the `q`-quantile (`q` clamped to
/// `0.0..=1.0`) among `n ≥ 1` ordered samples: `⌈q·n⌉`, at least 1.
fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// The nearest-rank `q`-quantile of an ascending-sorted sample — the
/// rule [`Histogram::quantile`] applies to its buckets, here exact;
/// 0 for an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(q, sorted.len() as u64) as usize - 1]
}

/// A monotonically increasing counter. Cloning shares the underlying
/// cell, so a hot path can hold a pre-resolved handle and skip the
/// registry lookup.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How many exemplars a histogram retains (the top-valued ones).
pub const EXEMPLAR_CAP: usize = 4;

/// Exemplars older than this many subsequent observations are stale:
/// they are evicted on the next windowed sweep and hidden from
/// [`Histogram::exemplars`], so exported exemplars always point at
/// recent traces whose flight-recorder rings are still dumpable — an
/// early latency spike cannot pin the exemplar set (or its admission
/// floor) forever. Measured in observations, not wall time, to keep
/// the histogram deterministic and replayable.
pub const EXEMPLAR_WINDOW: u64 = 1024;

/// A sample that carries the trace that produced it, so a p99-ish
/// histogram observation links back to its causal timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded value.
    pub value: u64,
    /// The trace the value was observed under.
    pub trace: TraceId,
}

/// A retained exemplar plus the observation count at which it was
/// recorded, for window-based staleness.
struct ExemplarSlot {
    value: u64,
    trace: TraceId,
    seq: u64,
}

struct HistogramInner {
    buckets: Vec<AtomicU64>, // BUCKETS cells
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64, // u64::MAX when empty
    max: AtomicU64,
    exemplars: Mutex<Vec<ExemplarSlot>>,
    /// Smallest retained exemplar value once the cap is reached; lets
    /// `record_traced` reject small samples without taking the lock.
    /// Recomputed after every admission and windowed sweep, so it can
    /// fall back down once stale high-water exemplars expire.
    exemplar_floor: AtomicU64,
    /// Observation count at the last staleness sweep; a sweep runs
    /// every [`EXEMPLAR_WINDOW`] observations.
    exemplar_sweep: AtomicU64,
}

/// A log-linear histogram of `u64` samples (typically nanoseconds).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        Histogram(Arc::new(HistogramInner {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
            exemplar_floor: AtomicU64::new(0),
            exemplar_sweep: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        match self.0.min.load(Ordering::Relaxed) {
            u64::MAX if self.count() == 0 => None,
            v => Some(v),
        }
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.0.max.load(Ordering::Relaxed))
        }
    }

    /// Mean of recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum() as f64 / n as f64)
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding the target sample; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(q, n);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_lower(i));
            }
        }
        // Counts raced slightly with records; fall back to max.
        Some(self.0.max.load(Ordering::Relaxed))
    }

    /// Record one sample and offer it as an exemplar carrying `trace`.
    /// Only the top [`EXEMPLAR_CAP`] values within the last
    /// [`EXEMPLAR_WINDOW`]-ish observations are retained; smaller
    /// samples are rejected on an atomic threshold without locking, so
    /// the hot-path cost matches plain [`record`](Self::record) except
    /// near the current maximum and at window boundaries.
    pub fn record_traced(&self, v: u64, trace: TraceId) {
        self.record(v);
        let inner = &*self.0;
        let seq = inner.count.load(Ordering::Relaxed);
        let sweep_due =
            seq.wrapping_sub(inner.exemplar_sweep.load(Ordering::Relaxed)) >= EXEMPLAR_WINDOW;
        // Floor stays 0 until the cap is reached, so nothing is
        // wrongly rejected while the set is still filling. When a
        // sweep is due we take the lock regardless: stale exemplars
        // must expire even if every new sample sits below the floor.
        if !sweep_due && v < inner.exemplar_floor.load(Ordering::Relaxed) {
            return;
        }
        let mut ex = inner.exemplars.lock().unwrap();
        if sweep_due {
            inner.exemplar_sweep.store(seq, Ordering::Relaxed);
            ex.retain(|e| seq.wrapping_sub(e.seq) < EXEMPLAR_WINDOW);
        }
        ex.push(ExemplarSlot {
            value: v,
            trace,
            seq,
        });
        if ex.len() > EXEMPLAR_CAP {
            let (drop_at, _) = ex
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.value)
                .expect("non-empty");
            ex.swap_remove(drop_at);
        }
        let floor = if ex.len() == EXEMPLAR_CAP {
            ex.iter().map(|e| e.value).min().unwrap_or(0)
        } else {
            0
        };
        inner.exemplar_floor.store(floor, Ordering::Relaxed);
    }

    /// Retained non-stale exemplars (recorded within the last
    /// [`EXEMPLAR_WINDOW`] observations), highest value first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let seq = self.0.count.load(Ordering::Relaxed);
        let mut ex: Vec<Exemplar> = self
            .0
            .exemplars
            .lock()
            .unwrap()
            .iter()
            .filter(|e| seq.wrapping_sub(e.seq) < EXEMPLAR_WINDOW)
            .map(|e| Exemplar {
                value: e.value,
                trace: e.trace,
            })
            .collect();
        ex.sort_by_key(|e| std::cmp::Reverse(e.value));
        ex
    }

    /// Samples whose bucket lower bound is ≤ `v` — the histogram's
    /// CDF at `v`, over-counting by at most the bucket containing `v`
    /// (1/16 relative width). Used by SLO compliance computation.
    pub fn count_at_or_below(&self, v: u64) -> u64 {
        let top = bucket_index(v);
        self.0.buckets[..=top]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_lower(i), c))
            })
            .collect()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name-keyed metrics registry. Cheap to clone (shared), thread-safe;
/// `counter`/`gauge`/`histogram` get-or-create and return shared
/// handles. Looking up a registered name allocates nothing; a hot path
/// resolves its handles once and then touches only their atomics.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    help: Arc<Mutex<BTreeMap<String, String>>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the metric `name` (as `make` builds it) and hand
    /// it to `pick`; only a miss allocates the name.
    fn metric<T>(&self, name: &str, make: fn() -> Metric, pick: impl FnOnce(&Metric) -> T) -> T {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(m) = metrics.get(name) {
            return pick(m);
        }
        let m = make();
        let picked = pick(&m);
        metrics.insert(name.to_string(), m);
        picked
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.metric(
            name,
            || Metric::Counter(Counter::default()),
            |m| match m {
                Metric::Counter(c) => c.clone(),
                _ => panic!("metric `{name}` is not a counter"),
            },
        )
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.metric(
            name,
            || Metric::Gauge(Gauge::default()),
            |m| match m {
                Metric::Gauge(g) => g.clone(),
                _ => panic!("metric `{name}` is not a gauge"),
            },
        )
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.metric(
            name,
            || Metric::Histogram(Histogram::default()),
            |m| match m {
                Metric::Histogram(h) => h.clone(),
                _ => panic!("metric `{name}` is not a histogram"),
            },
        )
    }

    /// The histogram `"{span}.ns"` that spans named `span` record
    /// into.
    pub(crate) fn span_histogram(&self, span: &str) -> Histogram {
        self.histogram(&format!("{span}.ns"))
    }

    /// Register help text for metric `name`, rendered as the
    /// Prometheus `# HELP` line. Idempotent; the latest text wins.
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .lock()
            .unwrap()
            .insert(name.to_string(), help.to_string());
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.lock().unwrap().keys().cloned().collect()
    }

    /// Encode the whole registry as a JSON object: counters and gauges
    /// as numbers, histograms as objects with count/sum/min/max/mean,
    /// p50/p90/p99, and the non-empty buckets.
    pub fn encode_json(&self) -> Json {
        let m = self.metrics.lock().unwrap();
        let fields = m
            .iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => Json::Obj(vec![
                        ("type".into(), Json::Str("counter".into())),
                        ("value".into(), Json::UInt(c.get())),
                    ]),
                    Metric::Gauge(g) => Json::Obj(vec![
                        ("type".into(), Json::Str("gauge".into())),
                        ("value".into(), Json::Num(g.get() as f64)),
                    ]),
                    Metric::Histogram(h) => {
                        let quant = |q: f64| match h.quantile(q) {
                            Some(v) => Json::UInt(v),
                            None => Json::Null,
                        };
                        Json::Obj(vec![
                            ("type".into(), Json::Str("histogram".into())),
                            ("count".into(), Json::UInt(h.count())),
                            ("sum".into(), Json::UInt(h.sum())),
                            ("min".into(), h.min().map(Json::UInt).unwrap_or(Json::Null)),
                            ("max".into(), h.max().map(Json::UInt).unwrap_or(Json::Null)),
                            ("mean".into(), h.mean().map(Json::Num).unwrap_or(Json::Null)),
                            ("p50".into(), quant(0.50)),
                            ("p90".into(), quant(0.90)),
                            ("p99".into(), quant(0.99)),
                            (
                                "buckets".into(),
                                Json::Arr(
                                    h.nonzero_buckets()
                                        .into_iter()
                                        .map(|(lo, c)| {
                                            Json::Arr(vec![Json::UInt(lo), Json::UInt(c)])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "exemplars".into(),
                                Json::Arr(
                                    h.exemplars()
                                        .into_iter()
                                        .map(|ex| {
                                            Json::Obj(vec![
                                                ("value".into(), Json::UInt(ex.value)),
                                                ("trace".into(), Json::Str(ex.trace.to_hex())),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    }
                };
                (name.clone(), v)
            })
            .collect();
        Json::Obj(fields)
    }

    /// Encode the registry in the Prometheus text exposition format.
    /// Every metric gets a `# HELP` line (registered text via
    /// [`describe`](Self::describe), or the metric's own name as a
    /// fallback) and a `# TYPE` line. Histograms are rendered
    /// summary-style (quantile series plus `_sum`/`_count`); metric
    /// names are mangled to the allowed character set (`.` and `-`
    /// become `_`). Exemplars are deliberately absent here: the
    /// classic text format has no exemplar syntax at all, and even
    /// OpenMetrics forbids them on summaries, so attaching one would
    /// make real scrapes fail to parse — exemplars are exported via
    /// [`encode_json`](Self::encode_json) instead.
    pub fn encode_prometheus(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let help = self.help.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            let pname = prom_name(name);
            let text = help
                .get(name)
                .map(|h| prom_help(h))
                .unwrap_or_else(|| name.clone());
            out.push_str(&format!("# HELP {pname} {text}\n"));
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {pname} summary\n"));
                    for q in [0.5, 0.9, 0.99] {
                        let v = h.quantile(q).unwrap_or(0);
                        out.push_str(&format!("{pname}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{pname}_sum {}\n", h.sum()));
                    out.push_str(&format!("{pname}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

/// Escape help text per the exposition format: backslash and newline.
fn prom_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_identity_below_16() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries() {
        // Powers of two land on the first sub-bucket of their band.
        for msb in SUB_BITS..64 {
            let v = 1u64 << msb;
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v, "2^{msb} must be its own lower bound");
            if v > 16 {
                assert!(bucket_index(v - 1) == i - 1, "2^{msb}-1 in previous bucket");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1, "saturation bucket");
    }

    #[test]
    fn bucket_lower_bound_is_tight() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1_000_000, u64::MAX] {
            let i = bucket_index(v);
            let lo = bucket_lower(i);
            assert!(lo <= v, "lower({i}) = {lo} must be <= {v}");
            if i + 1 < BUCKETS {
                assert!(bucket_lower(i + 1) > v, "{v} must be below next bucket");
            }
            // Relative error bound: 1/16 of the value for v >= 16.
            if v >= 16 {
                assert!(v - lo <= v / 16, "error bound violated for {v}");
            }
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Lower-bound quantiles: within one sub-bucket (1/16) of exact.
        assert!((47..=50).contains(&p50), "p50 = {p50}");
        assert!((85..=90).contains(&p90), "p90 = {p90}");
        assert!((93..=99).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be ordered");
        assert_eq!(h.quantile(0.0), Some(1), "q=0 is the min bucket");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.5), 50);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1, "q=0 is the minimum");
        assert_eq!(percentile(&[7, 9], 0.5), 7, "rank ⌈0.5·2⌉ = 1");
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn histogram_empty_and_saturated() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(u64::MAX));
        let p = h.quantile(0.99).unwrap();
        assert_eq!(p, bucket_lower(BUCKETS - 1), "saturates into last bucket");
    }

    #[test]
    fn registry_get_or_create_shares_state() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.counter("a").get(), 7);
        r.gauge("g").set(-2);
        assert_eq!(r.gauge("g").get(), -2);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").count(), 1);
        assert_eq!(r.names(), vec!["a", "g", "h"]);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn json_exposition_parses() {
        let r = Registry::new();
        r.counter("pkts").add(5);
        r.gauge("depth").set(3);
        let h = r.histogram("lat.ns");
        h.record(100);
        h.record(200);
        let dump = r.encode_json().encode();
        let v = crate::json::parse(&dump).unwrap();
        assert_eq!(
            v.get("pkts")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_u64),
            Some(5)
        );
        let lat = v.get("lat.ns").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(lat.get("sum").and_then(Json::as_u64), Some(300));
        assert!(lat.get("p50").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("pera.cache.hits").add(9);
        r.histogram("pipeline.stage-acl.ns").record(42);
        let text = r.encode_prometheus();
        assert!(text.contains("# TYPE pera_cache_hits counter"));
        assert!(text.contains("pera_cache_hits 9"));
        assert!(text.contains("pipeline_stage_acl_ns{quantile=\"0.5\"}"));
        assert!(text.contains("pipeline_stage_acl_ns_count 1"));
    }

    #[test]
    fn prometheus_help_lines_precede_type_lines() {
        let r = Registry::new();
        r.counter("pera.cache.hits").add(9);
        r.describe("pera.cache.hits", "measurement cache hits");
        r.gauge("netsim.depth").set(2);
        r.histogram("lat.ns").record(7);
        r.describe("lat.ns", "line one\nline two \\ backslash");
        let text = r.encode_prometheus();
        // Registered help is emitted, escaped, directly above TYPE.
        assert!(text.contains(
            "# HELP pera_cache_hits measurement cache hits\n# TYPE pera_cache_hits counter\n"
        ));
        assert!(text
            .contains("# HELP lat_ns line one\\nline two \\\\ backslash\n# TYPE lat_ns summary\n"));
        // Undescribed metrics fall back to their own name.
        assert!(text.contains("# HELP netsim_depth netsim.depth\n# TYPE netsim_depth gauge\n"));
        // Every TYPE line has a HELP line.
        let helps = text.matches("# HELP ").count();
        let types = text.matches("# TYPE ").count();
        assert_eq!(helps, types);
        assert_eq!(helps, 3);
    }

    #[test]
    fn exemplars_keep_top_values_and_render() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record_traced(v, TraceId::for_nonce(v));
        }
        let ex = h.exemplars();
        assert_eq!(ex.len(), EXEMPLAR_CAP);
        assert_eq!(ex[0].value, 100);
        assert_eq!(ex[0].trace, TraceId::for_nonce(100));
        assert!(ex.iter().all(|e| e.value > 100 - 2 * EXEMPLAR_CAP as u64));
        let r = Registry::new();
        let rh = r.histogram("lat.ns");
        rh.record_traced(5000, TraceId::for_nonce(7));
        // Exemplars live in the JSON exposition only; the Prometheus
        // text format has no legal syntax for them (classic forbids
        // trailing exemplars outright, OpenMetrics forbids them on
        // summaries), so every sample line must stay plain.
        let text = r.encode_prometheus();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                !line.contains(" # "),
                "sample line must not carry an exemplar: {line}"
            );
        }
        let v = crate::json::parse(&r.encode_json().encode()).unwrap();
        let exs = v
            .get("lat.ns")
            .and_then(|m| m.get("exemplars"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(exs.len(), 1);
        assert_eq!(exs[0].get("value").and_then(Json::as_u64), Some(5000));
        assert_eq!(
            exs[0].get("trace").and_then(Json::as_str),
            Some(TraceId::for_nonce(7).to_hex().as_str())
        );
    }

    #[test]
    fn exemplars_age_out_after_window() {
        let h = Histogram::default();
        // An early latency spike tops the exemplar set and raises the
        // admission floor...
        h.record_traced(1_000_000, TraceId::for_nonce(1));
        assert_eq!(h.exemplars()[0].value, 1_000_000);
        // ...but after a couple of windows of ordinary samples the
        // spike has expired, the floor has fallen, and every exported
        // exemplar references a recent observation.
        for i in 0..2 * EXEMPLAR_WINDOW + 10 {
            h.record_traced(10 + (i % 5), TraceId::for_nonce(100 + i));
        }
        let ex = h.exemplars();
        assert!(!ex.is_empty(), "recent samples refill the set");
        assert!(
            ex.iter().all(|e| e.value < 1_000_000),
            "stale spike expired: {:?}",
            ex.iter().map(|e| e.value).collect::<Vec<_>>()
        );
        assert_ne!(ex[0].trace, TraceId::for_nonce(1));
    }

    #[test]
    fn stale_exemplars_are_hidden_even_without_a_sweep() {
        let h = Histogram::default();
        h.record_traced(9999, TraceId::for_nonce(3));
        // Untraced records age the exemplar past the window; the next
        // read must not export it even though no sweep has run.
        for _ in 0..EXEMPLAR_WINDOW {
            h.record(1);
        }
        assert!(h.exemplars().is_empty(), "stale exemplar hidden on read");
    }

    #[test]
    fn count_at_or_below_is_a_cdf() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count_at_or_below(0), 0);
        assert!(h.count_at_or_below(10) >= 10);
        assert_eq!(h.count_at_or_below(u64::MAX), 100);
        let at_50 = h.count_at_or_below(50);
        // Over-counts by at most the bucket containing 50 (width 4).
        assert!((50..=54).contains(&at_50), "cdf(50) = {at_50}");
    }
}
