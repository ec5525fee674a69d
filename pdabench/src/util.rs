//! Seeded generation, sample statistics and memory readings shared by
//! the workloads.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Elapsed nanoseconds since `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A field of `/proc/self/status` in KiB (`VmHWM`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    kb_field(&status, field)
}

/// The `<field>: <n> kB` line of a `/proc` file.
fn kb_field(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Anonymous resident memory in KiB, counted exactly from the page
/// tables (`/proc/self/smaps_rollup`). The kernel's `VmRSS`/`VmHWM`
/// also count the executable's code pages, which it maps 64 KiB at a
/// time as code first runs; they moved a sub-megabyte figure by a fifth
/// between runs of one seed.
pub fn anon_kb() -> Option<u64> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    kb_field(&rollup, "Anonymous")
}

/// Memory the program under test adds on top of the benchmark's own
/// resident inputs: anonymous memory over a baseline taken at
/// construction, at its largest over the samples taken.
pub struct PeakRss {
    base_kb: u64,
    peak_kb: u64,
}

impl PeakRss {
    /// Mark the baseline (after inputs are generated, before set-up).
    pub fn start() -> PeakRss {
        let base_kb = anon_kb().unwrap_or(0);
        PeakRss {
            base_kb,
            peak_kb: base_kb,
        }
    }

    /// Sample the current anonymous memory.
    pub fn sample(&mut self) {
        self.peak_kb = self.peak_kb.max(anon_kb().unwrap_or(0));
    }

    /// Largest growth sampled over the baseline, in MB (10^6 bytes).
    pub fn growth_mb(&self) -> f64 {
        self.peak_kb.saturating_sub(self.base_kb) as f64 * 1024.0 / 1e6
    }
}

/// Times set-ups spread evenly over the measured run, so their median
/// sees the same host conditions as the run itself rather than those
/// of one burst before it. Each due slot times a few set-ups back to
/// back, which adds samples without interrupting the measured work
/// more often. Each set-up is timed between two probes of the core's
/// speed ([`timed_reference`]).
pub struct SetupTimer {
    interval: Duration,
    burst: usize,
    next: Instant,
    /// Wall seconds per timed set-up.
    pub samples: Vec<f64>,
    /// Reference seconds per timed set-up.
    pub reference: Vec<f64>,
}

impl SetupTimer {
    /// Aim for `slots` slots of `burst` set-ups each over `seconds`.
    pub fn new(seconds: f64, slots: usize, burst: usize) -> SetupTimer {
        SetupTimer {
            interval: Duration::from_secs_f64(seconds.max(0.0) / slots.max(1) as f64),
            burst: burst.max(1),
            next: Instant::now(),
            samples: Vec::with_capacity(slots * burst + 1),
            reference: Vec::with_capacity(slots * burst + 1),
        }
    }

    /// Time one slot of set-ups now if the next slot is due.
    pub fn maybe<T>(&mut self, mut setup: impl FnMut() -> T) {
        if Instant::now() >= self.next {
            for _ in 0..self.burst {
                self.time(&mut setup);
            }
        }
    }

    /// Time one set-up and return what it built.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (built, wall_s, reference_s) = timed_reference(setup);
        self.samples.push(wall_s);
        self.reference.push(reference_s);
        self.next = Instant::now() + self.interval;
        built
    }

    /// Median reference seconds per set-up.
    pub fn median(&self) -> f64 {
        median(&self.reference)
    }

    /// Median wall seconds per set-up.
    pub fn wall_median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Iterations of the reference kernel per probe: 25 to 50 us on a
/// 2-vCPU Xeon (Sapphire Rapids) host.
const PROBE_ITERS: u64 = 8_000;

/// Timed work that builds up before the next probe is due.
const PROBE_EVERY_NS: u64 = 2_000_000;

/// The reference kernel: eight independent lanes of rotate, add and
/// xor, so its speed is the core's integer throughput. It is the
/// benchmark's own code and never calls the program under test.
#[inline(never)]
fn reference_kernel(n: u64) -> [u64; 8] {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..n {
        for (j, v) in lanes.iter_mut().enumerate() {
            *v = v.rotate_left(7) ^ v.wrapping_add(i ^ j as u64);
        }
    }
    lanes
}

/// The host core's current speed: reference-kernel iterations per
/// nanosecond, timed over one probe.
pub fn core_speed() -> f64 {
    let n = std::hint::black_box(PROBE_ITERS);
    let start = Instant::now();
    std::hint::black_box(reference_kernel(n));
    n as f64 / start.elapsed().as_nanos().max(1) as f64
}

/// Measures timed work in reference-kernel iterations instead of
/// seconds.
///
/// The shared host runs a core at speeds up to about 1.9x apart, switching
/// within tens of milliseconds and staying in one mode for up to a
/// minute, so work per second depends on when a run happens. After
/// every 2 ms or so of timed work, the clock runs a short probe of the
/// reference kernel on the same thread, outside the timed work, and
/// charges the work since the last probe at the mean of the speeds
/// measured just before and just after it. An operation then costs
/// about the same number of iterations whichever mode it ran in, while
/// a change to the program moves that cost as it moves the program's
/// time: the kernel does not depend on the program.
#[derive(Debug, Default)]
pub struct RefClock {
    /// Reference iterations the charged work spanned.
    pub iters: f64,
    /// Wall nanoseconds charged.
    pub ns: u64,
    /// Probes run.
    pub probes: u64,
    /// Per-operation costs in reference iterations.
    pub costs: Vec<f64>,
    pending_ns: u64,
    pending: Vec<u64>,
    last_speed: Option<f64>,
}

impl RefClock {
    /// Count `ns` of timed work.
    pub fn work(&mut self, ns: u64) {
        self.pending_ns += ns;
    }

    /// Count one operation's latency, converted at the next probe.
    pub fn latency(&mut self, ns: u64) {
        self.pending.push(ns);
    }

    /// Count one operation whose time is all the timed work it did.
    pub fn op(&mut self, ns: u64) {
        self.work(ns);
        self.latency(ns);
    }

    /// Probe if enough work has built up since the last probe; returns
    /// the nanoseconds the probe took (0 if none was due).
    pub fn tick(&mut self) -> u64 {
        if self.pending_ns < PROBE_EVERY_NS {
            return 0;
        }
        let start = Instant::now();
        self.probe();
        ns_since(start)
    }

    /// Probe now and charge the pending work at the mean of this and
    /// the previous probe's speed.
    pub fn probe(&mut self) {
        let now = core_speed();
        let speed = self.last_speed.map_or(now, |before| (before + now) / 2.0);
        self.last_speed = Some(now);
        if self.pending_ns == 0 && self.pending.is_empty() {
            return;
        }
        self.iters += self.pending_ns as f64 * speed;
        self.ns += self.pending_ns;
        self.probes += 1;
        self.costs
            .extend(self.pending.drain(..).map(|ns| ns as f64 * speed));
        self.pending_ns = 0;
    }

    /// Fold another clock's charged work into this one.
    pub fn absorb(&mut self, other: RefClock) {
        self.iters += other.iters;
        self.ns += other.ns;
        self.probes += other.probes;
        self.costs.extend(other.costs);
    }

    /// Mean speed over the charged work, iterations per nanosecond.
    pub fn mean_speed(&self) -> f64 {
        self.iters / self.ns.max(1) as f64
    }
}

/// The reference kernel's speed that defines a reference second: 0.3
/// iterations per nanosecond, within the 0.18 to 0.37 the probes read
/// on the Xeon host. Set-up times are reported in reference seconds.
pub const REFERENCE_SPEED: f64 = 0.3;

/// Reference seconds of `ns` wall nanoseconds run at `speed`
/// iterations per nanosecond.
pub fn reference_s(ns: u64, speed: f64) -> f64 {
    ns as f64 * speed / REFERENCE_SPEED / 1e9
}

/// Run `f` between two probes of the core's speed; returns its result,
/// its wall seconds and its reference seconds (at the probes' mean
/// speed).
pub fn timed_reference<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = core_speed();
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let ns = ns_since(start);
    let after = core_speed();
    (
        out,
        ns as f64 / 1e9,
        reference_s(ns, (before + after) / 2.0),
    )
}

/// A measurement deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_clock_charges_each_interval_at_one_speed() {
        let mut clock = RefClock::default();
        clock.op(1_000);
        assert_eq!(clock.tick(), 0, "a probe is due only after 2 ms of work");
        clock.work(3_000_000);
        clock.latency(2_000_000);
        assert!(clock.tick() > 0);
        assert_eq!((clock.probes, clock.ns), (1, 3_001_000));
        let speed = clock.mean_speed();
        assert!(speed.is_finite() && speed > 0.0);
        // Both latencies of the interval convert at the interval's speed.
        assert_eq!(clock.costs.len(), 2);
        assert!((clock.costs[0] - 1_000.0 * speed).abs() <= 1e-9 * clock.costs[0]);
        assert!((clock.costs[1] - 2_000_000.0 * speed).abs() <= 1e-9 * clock.costs[1]);

        let mut other = RefClock::default();
        other.op(5_000);
        other.probe();
        let iters = clock.iters + other.iters;
        clock.absorb(other);
        assert_eq!(
            (clock.probes, clock.ns, clock.costs.len()),
            (2, 3_006_000, 3)
        );
        assert_eq!(clock.iters, iters);
    }

    #[test]
    fn timed_reference_reports_wall_and_reference_seconds() {
        let (value, wall_s, reference_s) = timed_reference(|| 7);
        assert_eq!(value, 7);
        assert!(wall_s >= 0.0 && reference_s >= 0.0);
        assert!(reference_s.is_finite());
    }
}
