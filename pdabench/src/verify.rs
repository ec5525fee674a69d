//! `verify`: one thread asks a controller's questions after a fabric
//! change.
//!
//! On one E19 spine-leaf fabric (`fabric_step(leaves)`) each round checks
//! equivalence against `fabric_step_redundant`, runs `can_reach` from
//! every leaf to a seeded destination leaf, and runs
//! `verified_slice_for_switch` for every switch. Two one-off queries
//! ride along: a counterexample against `fabric_step_broken`, and each
//! pair of the `policy_pairs` corpus. Query order is shuffled per round
//! from the seed. Every answer is checked: equivalence holds, every
//! reach query is true, every slice verifies (the specialised slice is
//! returned, not the whole-policy fallback), each corpus verdict equals
//! its recorded one, and the counterexample is a packet that
//! `eval_packet` shows the two policies treat differently. A query that
//! panics (the symbolic engine's fuel budget) counts as failed.

use crate::ledger::Tracer;
use crate::util::{ns_since, percentile, shuffle, PeakRss, RefClock, SetupTimer};
use crate::{Config, Outcome};
use pda_crypto::digest::Digest;
use pda_crypto::sha256::Sha256;
use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::corpus::{
    fabric_step, fabric_step_broken, fabric_step_redundant, policy_pairs, PolicyPair,
};
use pda_netkat::equiv::{counterexample, equivalent};
use pda_netkat::reach::can_reach;
use pda_netkat::semantics::eval_packet;
use pda_netkat::specialize::{slice_for_switch, verified_slice_for_switch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Rounds of query order generated up front and cycled.
const ORDERS: usize = 16;

#[derive(Clone, Copy, Debug)]
enum Query {
    /// Fabric ≡ its redundant rewrite.
    Equiv,
    /// Leaf `from` reaches leaf `to`.
    Reach { from: u32, to: u32 },
    /// Verified per-switch slice.
    Slice { sw: u32 },
    /// Counterexample against the broken fabric.
    Counterexample,
    /// One corpus pair.
    Corpus(usize),
}

impl Query {
    fn span(self) -> &'static str {
        match self {
            Query::Equiv => "netkat.equiv_ms",
            Query::Reach { .. } => "netkat.reach_ms",
            Query::Slice { .. } => "netkat.slice_ms",
            Query::Counterexample | Query::Corpus(_) => "netkat.oneoff_ms",
        }
    }

    fn encode(self) -> [u64; 3] {
        match self {
            Query::Equiv => [0, 0, 0],
            Query::Reach { from, to } => [1, u64::from(from), u64::from(to)],
            Query::Slice { sw } => [2, u64::from(sw), 0],
            Query::Counterexample => [3, 0, 0],
            Query::Corpus(i) => [4, i as u64, 0],
        }
    }
}

/// The policies a controller holds (its set-up).
struct Policies {
    fabric: Policy,
    redundant: Policy,
    broken: Policy,
    corpus: Vec<PolicyPair>,
}

fn build(leaves: u32) -> Policies {
    Policies {
        fabric: fabric_step(leaves),
        redundant: fabric_step_redundant(leaves),
        broken: fabric_step_broken(leaves),
        corpus: policy_pairs(),
    }
}

/// Seeded rounds of queries, and their digest.
fn generate(cfg: &Config, corpus_len: usize) -> (Vec<Vec<Query>>, String) {
    let n = cfg.sizes.leaves;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut digest = Sha256::new();
    digest.update(&n.to_le_bytes());
    let orders = (0..ORDERS)
        .map(|_| {
            let mut qs = vec![Query::Equiv, Query::Counterexample];
            for from in 1..=n {
                // Any leaf but the source, uniformly.
                let mut to = rng.gen_range(1..n);
                if to >= from {
                    to += 1;
                }
                qs.push(Query::Reach { from, to });
            }
            qs.extend((0..=n).map(|sw| Query::Slice { sw }));
            qs.extend((0..corpus_len).map(Query::Corpus));
            shuffle(&mut rng, &mut qs);
            for q in &qs {
                for v in q.encode() {
                    digest.update(&v.to_le_bytes());
                }
            }
            qs
        })
        .collect();
    (orders, Digest(digest.finalize()).to_hex())
}

/// A query's answer, before it is checked.
enum Answer {
    Holds(bool),
    Slice(Policy),
    Witness(Option<Packet>),
}

/// Ask one query. `call_ns` receives the time of the verifier call
/// alone, without building its arguments.
fn ask(p: &Policies, q: Query, call_ns: &mut u64) -> Answer {
    let start;
    let answer = match q {
        Query::Equiv => {
            start = Instant::now();
            Answer::Holds(equivalent(&p.fabric, &p.redundant))
        }
        Query::Reach { from, to } => {
            let init = BTreeSet::from([Packet::of(&[
                (Field::Switch, from),
                (Field::Port, 2),
                (Field::Dst, to),
            ])]);
            let goal = Pred::test(Field::Switch, to);
            start = Instant::now();
            Answer::Holds(can_reach(&p.fabric, &init, &goal))
        }
        Query::Slice { sw } => {
            start = Instant::now();
            Answer::Slice(verified_slice_for_switch(&p.fabric, sw))
        }
        Query::Counterexample => {
            start = Instant::now();
            Answer::Witness(counterexample(&p.fabric, &p.broken))
        }
        Query::Corpus(i) => {
            let pair = &p.corpus[i];
            start = Instant::now();
            Answer::Holds(equivalent(&pair.p, &pair.q))
        }
    };
    *call_ns = ns_since(start);
    answer
}

/// Check an answer against ground truth.
fn check(p: &Policies, slices: &[Policy], q: Query, answer: &Answer, invert: bool) -> bool {
    let ok = match (q, answer) {
        (Query::Equiv | Query::Reach { .. }, Answer::Holds(h)) => *h,
        (Query::Corpus(i), Answer::Holds(h)) => *h == p.corpus[i].equivalent,
        (Query::Slice { sw }, Answer::Slice(s)) => *s == slices[sw as usize],
        (Query::Counterexample, Answer::Witness(w)) => {
            w.is_some_and(|pkt| eval_packet(&p.fabric, pkt) != eval_packet(&p.broken, pkt))
        }
        _ => false,
    };
    ok != invert
}

/// Asks the queries and checks the answers.
struct Asker<'a> {
    policies: &'a Policies,
    slices: &'a [Policy],
    invert: bool,
    queries: u64,
    busy_ns: u64,
    /// The queries in reference-kernel iterations.
    clock: RefClock,
}

impl Asker<'_> {
    /// Ask one round's queries in order; with a tracer, each is a span
    /// of the verifier call inside an operation of the whole query.
    fn round(
        &mut self,
        order: &[Query],
        out: &mut Outcome,
        latencies: &mut Vec<u64>,
        mut tracer: Option<&mut Tracer>,
    ) {
        for &q in order {
            let mut call_ns = 0;
            let start = Instant::now();
            let answer = catch_unwind(AssertUnwindSafe(|| ask(self.policies, q, &mut call_ns)));
            let ns = ns_since(start);
            latencies.push(ns);
            self.busy_ns += ns;
            self.queries += 1;
            self.clock.op(ns);
            self.clock.tick();
            out.attempted += 1;
            let correct = answer
                .as_ref()
                .is_ok_and(|a| check(self.policies, self.slices, q, a, self.invert));
            if !correct {
                out.failed += 1;
            }
            if let Some(tr) = tracer.as_deref_mut() {
                let op = out.attempted;
                tr.span(q.span(), op, None, start, call_ns as i64);
                tr.op(op, ns as i64);
            }
        }
    }
}

/// Run the `verify` workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = &cfg.sizes;
    let corpus_len = policy_pairs().len();
    let (orders, digest) = generate(cfg, corpus_len);
    let mut latencies = Vec::with_capacity(4096);
    let mut out = Outcome::default();
    out.lines.push(format!(
        "workload verify: seed {}, inputs digest {digest}",
        cfg.seed
    ));
    out.lines.push(format!(
        "params: spine-leaf fabric of {} leaves, one thread; per round 1 equivalence, {} reach, \
         {} slices, 1 counterexample, {corpus_len} corpus pairs = {} queries",
        sizes.leaves,
        sizes.leaves,
        sizes.leaves + 1,
        orders[0].len()
    ));

    // Ground truth for the slice queries: the unverified specialisation.
    let fabric = fabric_step(sizes.leaves);
    let slices: Vec<Policy> = (0..=sizes.leaves)
        .map(|sw| slice_for_switch(&fabric, sw))
        .collect();

    // Peak memory is taken over one set-up and one untimed round: a fixed
    // amount of work, so the figure does not depend on how many rounds
    // the run's length allowed. Further set-ups are timed between rounds.
    let mut setups = SetupTimer::new(cfg.seconds, sizes.setups, sizes.setup_burst);
    let mut rss = PeakRss::start();
    let policies = setups.time(|| build(sizes.leaves));
    let mut asker = Asker {
        policies: &policies,
        slices: &slices,
        invert: cfg.invert_truth,
        queries: 0,
        busy_ns: 0,
        clock: RefClock::default(),
    };
    for query in orders[0].chunks(1) {
        asker.round(query, &mut out, &mut latencies, None);
        rss.sample();
    }
    latencies.clear();
    (asker.queries, asker.busy_ns) = (0, 0);
    asker.clock = RefClock::default();
    let peak_rss_mb = rss.growth_mb();

    let mut tracer = Tracer::default();
    let mut calib: Option<(u64, u64)> = None;
    let mut rounds = 0usize;
    let mut end = crate::util::deadline(if cfg.trace {
        cfg.seconds * 0.3
    } else {
        cfg.seconds
    });
    loop {
        if Instant::now() >= end && rounds >= sizes.min_rounds {
            if cfg.trace && calib.is_none() {
                // Calibration done; trace every query from here on.
                calib = Some((asker.queries, asker.busy_ns));
                end = crate::util::deadline(cfg.seconds * 0.7);
            } else {
                break;
            }
        }
        let order = &orders[(rounds + 1) % orders.len()];
        let tr = calib.is_some().then_some(&mut tracer);
        asker.round(order, &mut out, &mut latencies, tr);
        setups.maybe(|| build(sizes.leaves));
        rounds += 1;
    }
    let (queries, busy_ns) = (asker.queries, asker.busy_ns);

    if let Some((calib_queries, calib_ns)) = calib {
        let ms = |name: &str| percentile(&tracer.durations(name), 0.50) as f64 / 1e6;
        for name in [
            "netkat.equiv_ms",
            "netkat.reach_ms",
            "netkat.slice_ms",
            "netkat.oneoff_ms",
        ] {
            out.set(name, ms(name));
        }
        let traced_ops = (queries - calib_queries) as f64;
        let traced_op = (busy_ns - calib_ns) as f64 / traced_ops;
        let untraced_op = calib_ns as f64 / calib_queries as f64;
        out.set(
            "telemetry.trace_overhead_frac",
            traced_op / untraced_op - 1.0,
        );
        out.lines.push(format!(
            "traced: {traced_ops} queries; untraced calibration {calib_queries} queries"
        ));
        crate::attach_ledger(cfg, &mut out, &tracer);
    } else {
        let mut sorted = latencies;
        sorted.sort_unstable();
        let rate = queries as f64 / (busy_ns as f64 / 1e9);
        asker.clock.probe();
        crate::reference_metrics(&mut out, "queries", queries, &mut asker.clock);
        out.set("setup_s", setups.median());
        out.set("peak_rss_mb", peak_rss_mb);
        out.lines.push(format!(
            "metric queries_per_s {rate} 1/s ({queries} queries over {rounds} rounds at {} leaves)",
            sizes.leaves
        ));
        crate::latency_lines(&mut out, "query", "ms", 1e6, &sorted);
        out.lines.push(format!(
            "metric setup_s {} s (reference seconds; median of {} policy constructions, timed in \
             bursts spread over the run; wall median {} s)",
            setups.median(),
            setups.samples.len(),
            setups.wall_median()
        ));
        out.lines.push(format!(
            "metric peak_rss_mb {peak_rss_mb} MB (largest anonymous-memory growth over the \
             generated inputs, sampled after one set-up and each query of one round)"
        ));
    }
    Ok(out)
}
