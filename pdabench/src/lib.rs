//! `pdabench`: the repository's benchmark.
//!
//! One command runs one of four workloads through the public APIs of
//! the switch (`pda-dataplane`, `pda-pera`), the appraisal service
//! (`pda-svc`, `pda-ra`) and the verifier (`pda-netkat`), checks every
//! output against ground truth, and prints its metrics:
//!
//! * `forward` — one thread pushes a seeded multi-flow UDP stream
//!   through a 3-hop chain of `PeraSwitch::process_packet`;
//! * `verdict` — two closed-loop clients submit clean 3-hop evidence to
//!   a live `pda-svc` on loopback and appraise it;
//! * `churn` — the same service judges E18-style churn epochs (loss,
//!   control retransmits, switch-down windows, rogue reloads) with a
//!   2-of-3 federation holding one poisoned member;
//! * `verify` — one thread asks a controller's questions of a
//!   spine-leaf fabric (equivalence, reachability, per-switch slices).
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) times every call the benchmark makes into a
//! layer and reports the per-layer metrics and the cost ledger
//! ([`ledger`]). The last line of output is one JSON object.

pub mod appraise;
pub mod forward;
pub mod ledger;
pub mod server;
pub mod util;
pub mod verify;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Switch side: packets through three PERA hops.
    Forward,
    /// Appraiser side, accept path: submit + appraise per verdict.
    Verdict,
    /// Appraiser side under churn: bulk epochs, rejections, dissent.
    Churn,
    /// Verifier: NetKAT queries over one fabric.
    Verify,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Forward,
        Workload::Verdict,
        Workload::Churn,
        Workload::Verify,
    ];

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Forward => "forward",
            Workload::Verdict => "verdict",
            Workload::Churn => "churn",
            Workload::Verify => "verify",
        }
    }
}

/// End-to-end metrics, reported by every untraced run. An operation is
/// a packet through three hops (`forward`), a quorum verdict (`verdict`,
/// `churn`) or a verification query (`verify`). Throughput and latency
/// are counted in iterations of a reference kernel run on the same core
/// ([`util::RefClock`]), not in seconds: the shared host's core speed
/// moves them by up to 1.9x from one minute to the next. Each run also
/// prints them in seconds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_giter", "1/Giter"),
    ("op_p50_kiter", "kiter"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run; a layer the
/// workload never calls reports 0. Times are medians per call.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataplane.parse_ns", "ns"),
    ("dataplane.lookup_ns", "ns"),
    ("dataplane.process_ns", "ns"),
    ("pera.process_packet_ns", "ns"),
    ("pera.evidence_ns", "ns"),
    ("pera.cache_hit_rate", "ratio"),
    ("pera.records", "count"),
    ("pera.signatures", "count"),
    ("pera.measurements", "count"),
    ("pera.record_bytes", "B"),
    ("pera.read_wire_ns", "ns"),
    ("pera.assemble_ns", "ns"),
    ("pera.assemble_extras", "count"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("svc.submit_us", "us"),
    ("svc.appraise_us", "us"),
    ("svc.handle_submit_us", "us"),
    ("svc.handle_appraise_us", "us"),
    ("svc.conn_us", "us"),
    ("svc.hex_decode_ns", "ns"),
    ("svc.federation_us", "us"),
    ("svc.rpc_errors", "count"),
    ("svc.reused_connections", "count"),
    ("svc.dissent", "count"),
    ("svc.stored_records", "count"),
    ("svc.audit_records", "count"),
    ("ra.appraise_us", "us"),
    ("ra.checks", "count"),
    ("ra.failures", "count"),
    ("telemetry.verdict_us", "us"),
    ("telemetry.trace_overhead_frac", "ratio"),
    ("netsim.retransmits", "count"),
    ("netsim.truncated_chains", "count"),
    ("netkat.equiv_ms", "ms"),
    ("netkat.reach_ms", "ms"),
    ("netkat.slice_ms", "ms"),
    ("netkat.oneoff_ms", "ms"),
    ("ledger.residue_frac", "ratio"),
];

/// Input and run sizes.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `forward`: LPM routes per hop.
    pub routes: usize,
    /// `forward`: concurrent flows.
    pub flows: usize,
    /// `forward`: distinct pre-generated frames the stream cycles over.
    pub frames: usize,
    /// `forward`: packets timed between two rounds of chain checks.
    pub batch: usize,
    /// `verdict`: verdicts per service instance (one round).
    pub chains: usize,
    /// `churn`: epochs per service instance (one round).
    pub epochs: usize,
    /// `churn`: attested packets per epoch.
    pub packets_per_epoch: usize,
    /// `verify`: leaves of the spine-leaf fabric.
    pub leaves: u32,
    /// Slots of timed set-ups per run (`forward`, `verify`), spread
    /// evenly over it; `setup_s` is the median of every set-up timed.
    /// The service workloads boot one instance per round instead.
    pub setups: usize,
    /// Set-ups timed back to back in each slot.
    pub setup_burst: usize,
    /// Rounds run at least, whatever the deadline.
    pub min_rounds: usize,
    /// Operations (verdicts, for the service workloads) traced per
    /// traced run, about at most; the rest run untraced between them.
    pub max_traced_ops: usize,
}

impl Sizes {
    /// The sizes the command line runs.
    pub fn full() -> Sizes {
        Sizes {
            routes: 256,
            flows: 64,
            frames: 4096,
            batch: 512,
            chains: 8192,
            epochs: 96,
            packets_per_epoch: 25,
            leaves: 64,
            setups: 51,
            setup_burst: 8,
            min_rounds: 3,
            max_traced_ops: 16_384,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny() -> Sizes {
        Sizes {
            routes: 16,
            flows: 4,
            frames: 32,
            batch: 16,
            chains: 48,
            epochs: 6,
            packets_per_epoch: 8,
            leaves: 4,
            setups: 3,
            setup_burst: 2,
            min_rounds: 2,
            max_traced_ops: 64,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input and run sizes.
    pub sizes: Sizes,
    /// Invert the ground truth (self-test of the checks: every
    /// operation must then count as failed).
    pub invert_truth: bool,
    /// Executable that serves the appraisal service in a child process
    /// (`<exe> serve-child ...`); this binary on the command line.
    pub server_exe: PathBuf,
    /// Directory the traced run writes its spans to, if any.
    pub spans_dir: Option<PathBuf>,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked against ground truth.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Count identities and ledger checks that did not hold.
    pub broken_checks: Vec<String>,
    /// Human-readable lines, printed before the JSON result.
    pub lines: Vec<String>,
    /// Metric values by name; units come from [`END_TO_END`] and
    /// [`PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
    /// The cost ledger (traced runs).
    pub ledger: Option<ledger::Ledger>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Look a recorded value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Check a count identity; a broken one makes the run incorrect.
    pub fn identity(&mut self, what: &str, left: u64, right: u64) {
        let ok = left == right;
        self.lines.push(format!(
            "identity {what}: {left} = {right} {}",
            if ok { "ok" } else { "BROKEN" }
        ));
        if !ok {
            self.broken_checks.push(what.to_string());
        }
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.broken_checks.is_empty()
    }
}

/// Run one workload and return its outcome, with every metric of the
/// run's kind present (per-layer metrics a workload does not touch are
/// filled in as 0).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = match cfg.workload {
        Workload::Forward => forward::run(cfg)?,
        Workload::Verdict | Workload::Churn => appraise::run(cfg)?,
        Workload::Verify => verify::run(cfg)?,
    };
    out.lines.push(format!(
        "metric fail_frac {} ratio (failed {} of {} attempted)",
        out.fail_frac(),
        out.failed,
        out.attempted
    ));
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let values: Vec<(&'static str, f64)> = wanted
        .iter()
        .map(|&(name, _)| (name, out.get(name).unwrap_or(0.0)))
        .collect();
    if !cfg.trace {
        if let Some((name, _)) = wanted.iter().find(|(n, _)| out.get(n).is_none()) {
            return Err(format!("workload did not measure {name}"));
        }
    }
    out.values = values;
    Ok(out)
}

/// Unit of a metric name.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .values
        .iter()
        .map(|&(name, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Attach a traced run's ledger: residue share, printed rows, its
/// consistency checks (a failed one makes the run incorrect), and the
/// spans written to `cfg.spans_dir`.
pub(crate) fn attach_ledger(cfg: &Config, out: &mut Outcome, tracer: &ledger::Tracer) {
    let ledger = tracer.ledger();
    out.set("ledger.residue_frac", ledger.share(ledger.residue_ns));
    out.lines.extend(ledger.lines());
    if ledger.problems.is_empty() {
        out.lines.push(
            "ledger check: every operation's residue >= 0, every row's self time >= 0 ok"
                .to_string(),
        );
    }
    for problem in &ledger.problems {
        out.lines.push(format!("ledger check BROKEN: {problem}"));
        out.broken_checks.push(format!("ledger: {problem}"));
    }
    out.ledger = Some(ledger);
    if let Some(dir) = &cfg.spans_dir {
        let path = dir.join(format!("{}.tsv", cfg.workload.name()));
        match tracer.write_tsv(&path) {
            Ok(()) => out
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.lines.push(format!("spans not written: {e}")),
        }
    }
}

/// Set the end-to-end throughput and latency from a clock that charged
/// `ops` operations: operations per 10^9 reference iterations, and the
/// median per-operation cost in 10^3 iterations. The p90 and p99 are
/// printed beside it.
pub(crate) fn reference_metrics(
    out: &mut Outcome,
    what: &str,
    ops: u64,
    clock: &mut util::RefClock,
) {
    clock.costs.sort_by(f64::total_cmp);
    let per_giter = ops as f64 / (clock.iters / 1e9);
    out.set("ops_per_giter", per_giter);
    out.set("op_p50_kiter", util::percentile(&clock.costs, 0.50) / 1e3);
    out.lines.push(format!(
        "metric ops_per_giter {per_giter} 1/Giter ({ops} {what} over {:.4e} reference \
         iterations; {} probes, mean core speed {:.4} iterations/ns)",
        clock.iters,
        clock.probes,
        clock.mean_speed()
    ));
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        out.lines.push(format!(
            "metric op_{label}_kiter {} kiter (n={}, cost of one of the {what} in reference \
             iterations)",
            util::percentile(&clock.costs, q) / 1e3,
            clock.costs.len()
        ));
    }
}

/// Print an operation-latency summary under the workload's own name:
/// median, p90 and p99, each with its sample count.
pub(crate) fn latency_lines(
    out: &mut Outcome,
    name: &str,
    unit: &str,
    scale: f64,
    sorted_ns: &[u64],
) {
    let n = sorted_ns.len();
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let beyond = n - (n as f64 * q).ceil() as usize;
        out.lines.push(format!(
            "metric {name}_{label}_{unit} {} {unit} (n={n}, {beyond} samples beyond{})",
            util::percentile(sorted_ns, q) as f64 / scale,
            if beyond < 10 {
                "; too few for this percentile"
            } else {
                ""
            }
        ));
    }
}
