//! `verdict` and `churn`: the appraiser side.
//!
//! Both drive a live `pda-svc` on loopback (see [`crate::server`]) with
//! a closed loop of two clients, each a `SvcClient` that waits for every
//! reply before it sends the next request. Evidence is generated from
//! the seed before timing, so the switch and the evidence engine do no
//! timed work here.
//!
//! * `verdict` submits one clean 3-hop chain per fresh nonce and
//!   appraises it: many small RPCs on the accept path.
//! * `churn` submits E18-style epochs in bulk (fleet restart per epoch,
//!   5% link loss, 20% control loss with retransmit duplicates, a
//!   mid-path switch-down window, a rogue `sw1` reload every third
//!   epoch) to a 2-of-3 federation with one poisoned member, then
//!   appraises every nonce.
//!
//! A run is a series of rounds. Each round boots a fresh service (its
//! set-up is timed), submits the whole pre-generated input once, and
//! stops the service, whose evidence store and audit log grow with
//! every verdict. A round's memory therefore depends on the input, not
//! on how many verdicts the run's duration allowed.

use crate::ledger::{SpanRef, Tracer};
use crate::server::{Server, ServerReport};
use crate::util::{deadline, median, ns_since, percentile, timed_reference, RefClock};
use crate::{Config, Outcome, Workload};
use pda_crypto::digest::Digest;
use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
use pda_crypto::nonce::Nonce;
use pda_crypto::sha256::Sha256;
use pda_netsim::{
    test_packet, ControlRetryPolicy, DeviceKind, EvidenceMode, FaultPlan, LinkFaults,
};
use pda_pera::config::DetailLevel;
use pda_pera::{assemble_chain, EvidenceRecord};
use pda_ra::AppraisalResult;
use pda_svc::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
use pda_svc::rpc::{from_hex, to_hex};
use pda_svc::{rogue_reload, Appraiser, Federation, Quorum, SvcClient};
use pda_telemetry::json::Json;
use pda_telemetry::{Telemetry, TraceId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Closed-loop clients: as many as a two-core host has cores, so clients
/// and service workers compete for the same cores.
pub const CLIENTS: usize = 2;
/// Hops of every chain.
const HOPS: usize = 3;

/// Ground truth for one verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// A clean, complete chain.
    Accept,
    /// A complete chain from a rogue program.
    Reject,
    /// A chain truncated by faults: the service can only judge what
    /// arrived, so no verdict is wrong.
    Indeterminate,
}

/// One verdict to request.
struct Job {
    nonce: u64,
    expect: Expect,
    /// Whether the reassembled chain carries `sw1`'s record (the
    /// poisoned member's only disagreement).
    has_sw1: bool,
}

/// One `submit-evidence` call and the verdicts that follow it.
struct Submission {
    records: Vec<EvidenceRecord>,
    jobs: Vec<Job>,
}

struct Inputs {
    submissions: Vec<Submission>,
    /// SHA-256 of the submissions and their ground truth, in hex.
    digest: String,
    retransmits: u64,
    truncated: u64,
    lost: u64,
    rogue_epochs: u64,
}

impl Inputs {
    fn new(submissions: Vec<Submission>) -> Inputs {
        let mut digest = Sha256::new();
        for s in &submissions {
            let mut bytes = Vec::new();
            for r in &s.records {
                r.write_wire(&mut bytes);
            }
            digest.update(&bytes);
            for j in &s.jobs {
                digest.update(&j.nonce.to_le_bytes());
                digest.update(&[j.expect as u8, u8::from(j.has_sw1)]);
            }
        }
        Inputs {
            submissions,
            digest: Digest(digest.finalize()).to_hex(),
            retransmits: 0,
            truncated: 0,
            lost: 0,
            rogue_epochs: 0,
        }
    }

    fn verdicts(&self) -> u64 {
        self.submissions.iter().map(|s| s.jobs.len() as u64).sum()
    }
}

/// A small random payload for one attested packet.
fn payload(rng: &mut StdRng) -> Vec<u8> {
    let mut payload = vec![0u8; rng.gen_range(8..=64)];
    rng.fill_bytes(&mut payload);
    payload
}

/// Clean 3-hop chains for fresh nonces, produced by the service's own
/// standard fleet (the evidence configuration the appraisers enroll).
fn generate_verdict(cfg: &Config) -> Inputs {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let base = rng.gen_range(1..=1u64 << 40);
    let mut fleet = standard_fleet(HOPS);
    let mut submissions = Vec::with_capacity(cfg.sizes.chains);
    for i in 0..cfg.sizes.chains as u64 {
        let nonce = base + i;
        let mut bytes = test_packet(0x0a00_0001, 0x0a00_0002, 4433, &payload(&mut rng));
        let mut prev = Digest::ZERO;
        let mut records = Vec::with_capacity(HOPS);
        for node in &mut fleet.sim.topo.nodes {
            if let DeviceKind::Pera(sw) = &mut node.kind {
                let out = sw
                    .process_packet(&bytes, 0, Some((Nonce(nonce), prev)))
                    .expect("fleet forwards the test packet");
                let record = out.evidence.expect("per-packet sampling attests");
                prev = record.chain;
                records.push(record);
                bytes = out.forward.packet.expect("fleet forwards the test packet");
            }
        }
        submissions.push(Submission {
            records,
            jobs: vec![Job {
                nonce,
                expect: Expect::Accept,
                has_sw1: true,
            }],
        });
    }
    Inputs::new(submissions)
}

/// E18-style churn epochs, generated with `pda-netsim`'s fault plane.
fn generate_churn(cfg: &Config) -> Inputs {
    let sizes = &cfg.sizes;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let base = rng.gen_range(1..=1u64 << 40);
    let mut submissions = Vec::with_capacity(sizes.epochs);
    let (mut retransmits, mut truncated, mut lost, mut rogue_epochs) = (0, 0, 0, 0);
    for epoch in 0..sizes.epochs {
        // A fresh fleet is the restart: same names and keys, state gone.
        let mut fleet = standard_fleet(HOPS);
        let rogue = (epoch + 1) % 3 == 0;
        if rogue {
            rogue_reload(&mut fleet);
            rogue_epochs += 1;
        }
        let victim = fleet.switches[HOPS / 2];
        fleet.sim.install_faults(
            FaultPlan::new(rng.next_u64())
                .with_default_link(LinkFaults::lossy(0.05))
                .with_control_loss(0.2)
                .with_control_retry(ControlRetryPolicy::default())
                .with_switch_down(victim, 5_000, 30_000),
        );
        let appraiser = fleet.appraiser;
        let first = base + (epoch * sizes.packets_per_epoch) as u64;
        for i in 0..sizes.packets_per_epoch as u64 {
            fleet.send_attested(
                Nonce(first + i),
                EvidenceMode::OutOfBand { appraiser },
                &payload(&mut rng),
            );
        }
        retransmits += fleet
            .sim
            .faults
            .as_ref()
            .map_or(0, |f| f.stats.control_retransmits);
        let records = fleet.sim.evidence_at(appraiser).to_vec();
        let mut jobs = Vec::new();
        for i in 0..sizes.packets_per_epoch as u64 {
            let nonce = first + i;
            let mine: Vec<EvidenceRecord> = records
                .iter()
                .filter(|r| r.nonce.0 == nonce)
                .cloned()
                .collect();
            if mine.is_empty() {
                lost += 1;
                continue;
            }
            let mut names: Vec<&str> = mine.iter().map(|r| r.switch.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            let expect = match (names.len() == HOPS, rogue) {
                (false, _) => Expect::Indeterminate,
                (true, true) => Expect::Reject,
                (true, false) => Expect::Accept,
            };
            if expect == Expect::Indeterminate {
                truncated += 1;
            }
            let (chain, _) = assemble_chain(mine);
            jobs.push(Job {
                nonce,
                expect,
                has_sw1: chain.iter().any(|r| r.switch == "sw1"),
            });
        }
        if jobs.is_empty() {
            continue;
        }
        submissions.push(Submission { records, jobs });
    }
    Inputs {
        retransmits,
        truncated,
        lost,
        rogue_epochs,
        ..Inputs::new(submissions)
    }
}

/// One client RPC of a traced operation.
struct Rpc {
    trace: u64,
    submit: bool,
    nonce: u64,
    start: Instant,
    ns: u64,
    ok: bool,
}

/// One traced operation: a submission and its verdicts.
struct TracedOp {
    submission: usize,
    rpcs: Vec<Rpc>,
    ns: u64,
}

/// What one client did in one round.
#[derive(Default)]
struct ClientTally {
    latencies: Vec<u64>,
    verdicts: u64,
    attempted: u64,
    failed: u64,
    indeterminate: u64,
    accepted_with_sw1: u64,
    errors: u64,
    ops: u64,
    traced: Vec<TracedOp>,
    /// The client's operations in reference-kernel iterations, probed
    /// on its own thread between operations.
    clock: RefClock,
}

/// The closed loop of one client over its share of the submissions.
fn client_loop(
    client: &SvcClient,
    inputs: &Inputs,
    k: usize,
    stride: Option<usize>,
    invert: bool,
) -> ClientTally {
    let mut t = ClientTally::default();
    for (i, sub) in inputs
        .submissions
        .iter()
        .enumerate()
        .skip(k)
        .step_by(CLIENTS)
    {
        let traced = stride.is_some_and(|s| (i / CLIENTS).is_multiple_of(s));
        let op_start = Instant::now();
        let mut rpcs = Vec::new();
        t.ops += 1;
        let start = Instant::now();
        let submitted = if traced {
            client.submit_evidence_traced(&sub.records).map(|(v, _)| v)
        } else {
            client.submit_evidence(&sub.records)
        };
        let ns = ns_since(start);
        if traced {
            let nonce = sub.records.first().map_or(0, |r| r.nonce.0);
            rpcs.push(Rpc {
                trace: TraceId::for_nonce(nonce).0,
                submit: true,
                nonce,
                start,
                ns,
                ok: submitted.is_ok(),
            });
        }
        if submitted.is_err() {
            t.errors += 1;
            t.attempted += sub.jobs.len() as u64;
            t.failed += sub.jobs.len() as u64;
            t.clock.work(ns_since(op_start));
            continue;
        }
        for job in &sub.jobs {
            let start = Instant::now();
            let reply = if traced {
                client.appraise_traced(job.nonce).map(|(v, _)| v)
            } else {
                client.appraise(job.nonce)
            };
            let ns = ns_since(start);
            t.attempted += 1;
            let ok = match reply {
                Ok(v) => v.get("ok").and_then(Json::as_bool),
                Err(_) => None,
            };
            let Some(ok) = ok else {
                t.errors += 1;
                t.failed += 1;
                continue;
            };
            t.latencies.push(ns);
            t.clock.latency(ns);
            t.verdicts += 1;
            if ok && job.has_sw1 {
                t.accepted_with_sw1 += 1;
            }
            let expect = match (job.expect, invert) {
                (Expect::Accept, true) => Expect::Reject,
                (Expect::Reject, true) => Expect::Accept,
                (e, _) => e,
            };
            match expect {
                Expect::Indeterminate => t.indeterminate += 1,
                Expect::Accept if !ok => t.failed += 1,
                Expect::Reject if ok => t.failed += 1,
                _ => {}
            }
            if traced {
                rpcs.push(Rpc {
                    trace: TraceId::for_nonce(job.nonce).0,
                    submit: false,
                    nonce: job.nonce,
                    start,
                    ns,
                    ok,
                });
            }
        }
        let op_ns = ns_since(op_start);
        if traced {
            t.traced.push(TracedOp {
                submission: i,
                rpcs,
                ns: op_ns,
            });
        }
        t.clock.work(op_ns);
        t.clock.tick();
    }
    t.clock.probe();
    t
}

/// One service instance's worth of measurement.
struct Round {
    /// `AppraisalService::new` plus bind, timed inside the service
    /// process, so process start-up is not counted.
    boot_s: f64,
    /// The same in reference seconds.
    boot_reference_s: f64,
    /// The clients' first round trips on fresh connections.
    warm_up_s: f64,
    /// The same in reference seconds.
    warm_up_reference_s: f64,
    loop_ns: u64,
    clients: Vec<ClientTally>,
    reused: u64,
    report: ServerReport,
}

impl Round {
    fn sum(&self, f: impl Fn(&ClientTally) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }
}

fn round(
    cfg: &Config,
    inputs: &Inputs,
    quorum: Quorum,
    corrupt: bool,
    stride: Option<usize>,
) -> Result<Round, String> {
    let server = Server::spawn(
        &cfg.server_exe,
        &quorum.to_string(),
        corrupt,
        stride.is_some(),
    )?;
    let (clients, warm_up_s, warm_up_reference_s) = timed_reference(|| {
        let clients: Vec<SvcClient> = (0..CLIENTS).map(|_| SvcClient::new(server.addr)).collect();
        let healthy: Result<Vec<_>, _> = clients.iter().map(SvcClient::health).collect();
        healthy.map(|_| clients)
    });
    let clients = clients.map_err(|e| format!("service warm-up: {e}"))?;
    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(k, c)| s.spawn(move || client_loop(c, inputs, k, stride, cfg.invert_truth)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_ns = ns_since(start);
    let reused = clients.iter().map(SvcClient::reused_connections).sum();
    drop(clients);
    let (boot_s, boot_reference_s) = (server.boot_s, server.boot_reference_s);
    let report = server.finish()?;
    Ok(Round {
        boot_s,
        boot_reference_s,
        warm_up_s,
        warm_up_reference_s,
        loop_ns,
        clients: tallies,
        reused,
        report,
    })
}

/// The benchmark's own federation, built the way the service builds
/// its own, for replaying the service's work on the same inputs.
fn federation(quorum: Quorum, corrupt: bool) -> (Federation, KeyRegistry) {
    let fleet = standard_fleet(HOPS);
    let golden = enroll_fleet_golden(&fleet);
    let registry = fleet_registry(&fleet);
    let mut appraisers: Vec<Appraiser> = (1..=3)
        .map(|i| Appraiser::new(format!("a{i}"), golden.clone(), registry.clone()))
        .collect();
    if corrupt {
        if let Some(last) = appraisers.last_mut() {
            last.poison("sw1", DetailLevel::Program);
        }
    }
    (Federation { appraisers, quorum }, registry)
}

/// One timed replay of the federation's work on one chain.
struct FederationRun {
    start: Instant,
    /// `Federation::appraise` under the collecting handle.
    on_ns: i64,
    /// The same call under `Telemetry::off()`.
    off_ns: i64,
    verdict_ok: bool,
    /// Each member's `Appraiser::appraise`, alone.
    members: Vec<(AppraisalResult, i64)>,
}

impl FederationRun {
    fn time(
        fed: &Federation,
        collecting: &Telemetry,
        chain: &[EvidenceRecord],
        nonce: Nonce,
    ) -> FederationRun {
        let start = Instant::now();
        std::hint::black_box(fed.appraise(chain, nonce, true, collecting));
        let on_ns = ns_since(start) as i64;
        let off = Instant::now();
        let verdict_ok = fed.appraise(chain, nonce, true, &Telemetry::off()).ok;
        let off_ns = ns_since(off) as i64;
        let members = fed
            .appraisers
            .iter()
            .map(|a| {
                let t = Instant::now();
                let result = a.appraise(chain, nonce, true, &Telemetry::off());
                (result, ns_since(t) as i64)
            })
            .collect();
        FederationRun {
            start,
            on_ns,
            off_ns,
            verdict_ok,
            members,
        }
    }

    fn total_ns(&self) -> i64 {
        self.on_ns + self.off_ns + self.members.iter().map(|&(_, ns)| ns).sum::<i64>()
    }
}

/// Replay state for a traced run's server-side spans.
struct Replayer {
    federation: Federation,
    registry: KeyRegistry,
    collecting: Telemetry,
    /// `Federation::appraise` under the collecting handle, per replay.
    federation_ns: Vec<i64>,
    checks: u64,
    failures: u64,
    extras: u64,
    replayed: u64,
    mismatched: u64,
}

impl Replayer {
    /// Record one traced operation: the client round trips, the handler
    /// times the child reported for them, and under each handler the
    /// public functions it calls, re-run here on the same inputs.
    fn op(
        &mut self,
        tr: &mut Tracer,
        inputs: &Inputs,
        op: &TracedOp,
        handled: &mut HashMap<u64, VecDeque<u64>>,
    ) {
        let sub = &inputs.submissions[op.submission];
        let op_id = op.rpcs.first().map_or(0, |r| r.trace);
        tr.op(op_id, op.ns as i64);
        for rpc in &op.rpcs {
            let name = if rpc.submit {
                "svc.submit_us"
            } else {
                "svc.appraise_us"
            };
            let span = tr.span(name, op_id, None, rpc.start, rpc.ns as i64);
            let Some(handle_ns) = handled.get_mut(&rpc.trace).and_then(VecDeque::pop_front) else {
                continue;
            };
            let handler = if rpc.submit {
                "svc.handle_submit_us"
            } else {
                "svc.handle_appraise_us"
            };
            let h = tr.span(handler, op_id, Some(span), rpc.start, handle_ns as i64);
            if rpc.submit {
                self.submit(tr, op_id, h, &sub.records);
            } else {
                self.appraise(tr, op_id, h, &sub.records, rpc.nonce, rpc.ok);
            }
        }
    }

    fn submit(&mut self, tr: &mut Tracer, op: u64, parent: SpanRef, records: &[EvidenceRecord]) {
        let mut bytes = Vec::new();
        for r in records {
            r.write_wire(&mut bytes);
        }
        let hex = to_hex(&bytes);
        let (decoded, _) = tr.best_of("svc.hex_decode_ns", op, Some(parent), || from_hex(&hex));
        let wire = decoded.unwrap_or_default();
        tr.best_of("pera.read_wire_ns", op, Some(parent), || {
            std::hint::black_box(EvidenceRecord::read_wire_all(&wire))
        });
    }

    fn appraise(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        parent: SpanRef,
        records: &[EvidenceRecord],
        nonce: u64,
        served_ok: bool,
    ) {
        let stored: Vec<EvidenceRecord> = records
            .iter()
            .filter(|r| r.nonce.0 == nonce)
            .cloned()
            .collect();
        let stored_len = stored.len();
        // `assemble_chain` consumes its input: one copy per replay, made
        // outside the timing.
        let mut copies = vec![stored; crate::ledger::REPLAYS];
        let ((chain, _), _) = tr.best_of("pera.assemble_ns", op, Some(parent), || {
            assemble_chain(copies.pop().unwrap_or_default())
        });
        self.extras += (stored_len - chain.len()) as u64;
        // The federation's work is replayed as one unit: the call under
        // the collecting handle, the same call under `Telemetry::off()`
        // (telemetry's share is the difference), then each member alone.
        // The fastest whole run is kept. The federation's own work beyond
        // its members is a vote tally of a few hundred nanoseconds, below
        // what replays resolve, so the call is not a ledger row: the
        // members and telemetry's share sit directly under the handler,
        // whose self time keeps the tally.
        let fed = &self.federation;
        let mut best: Option<FederationRun> = None;
        for _ in 0..crate::ledger::REPLAYS {
            let run = FederationRun::time(fed, &self.collecting, &chain, Nonce(nonce));
            if best.as_ref().is_none_or(|b| run.total_ns() < b.total_ns()) {
                best = Some(run);
            }
        }
        let run = best.expect("REPLAYS > 0");
        self.federation_ns.push(run.on_ns);
        tr.span(
            "telemetry.verdict_us",
            op,
            Some(parent),
            run.start,
            run.on_ns - run.off_ns,
        );
        self.replayed += 1;
        if run.verdict_ok != served_ok {
            self.mismatched += 1;
        }
        for (result, ns) in &run.members {
            let aspan = tr.span("ra.appraise_us", op, Some(parent), run.start, *ns);
            self.checks += result.checks;
            self.failures += result.failures.len() as u64;
            for r in &chain {
                let who = PrincipalId::new(r.switch.clone());
                let registry = &self.registry;
                let _ = tr.best_of("crypto.verify_ns", op, Some(aspan), || {
                    std::hint::black_box(registry.verify_as(&who, r.chain.as_bytes(), &r.sig))
                });
            }
        }
    }
}

/// Run `verdict` or `churn`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let churn = cfg.workload == Workload::Churn;
    let inputs = if churn {
        generate_churn(cfg)
    } else {
        generate_verdict(cfg)
    };
    let (quorum, corrupt) = if churn {
        (Quorum::KOfN(2), true)
    } else {
        (Quorum::Majority, false)
    };
    let mut out = Outcome::default();
    out.lines.push(format!(
        "workload {}: seed {}, inputs digest {}",
        cfg.workload.name(),
        cfg.seed,
        inputs.digest
    ));
    let sizes = &cfg.sizes;
    out.lines.push(if churn {
        format!(
            "params: {} epochs x {} packets per service instance ({} rogue sw1 epochs, 5% link \
             loss, 20% control loss with {} retransmits, switch-down window; {} verdicts, {} \
             truncated, {} packets lost), one bulk submit-evidence per epoch; 2-of-3 quorum, \
             one poisoned member",
            sizes.epochs,
            sizes.packets_per_epoch,
            inputs.rogue_epochs,
            inputs.retransmits,
            inputs.verdicts(),
            inputs.truncated,
            inputs.lost
        )
    } else {
        format!(
            "params: {} clean 3-hop chains per service instance, one submit-evidence and one \
             appraise per verdict; majority of 3 appraisers",
            sizes.chains
        )
    });
    out.lines.push(format!(
        "params: closed loop of {CLIENTS} clients; pda-svc in a child process on loopback (no \
         real link), keep-alive, {} workers, collecting telemetry; {} cores available",
        pda_svc::SvcConfig::default().workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    let mut rounds: Vec<Round> = Vec::new();
    if !cfg.trace {
        let end = deadline(cfg.seconds);
        while rounds.len() < sizes.min_rounds || Instant::now() < end {
            rounds.push(round(cfg, &inputs, quorum, corrupt, None)?);
        }
        end_to_end(&mut out, &mut rounds);
    } else {
        let end = deadline(cfg.seconds * 0.3);
        let mut calib = Vec::new();
        while calib.is_empty() || Instant::now() < end {
            calib.push(round(cfg, &inputs, quorum, corrupt, None)?);
        }
        let calib_ops: u64 = calib.iter().map(|r| r.sum(|c| c.ops)).sum();
        let calib_verdicts: u64 = calib.iter().map(|r| r.sum(|c| c.verdicts)).sum();
        let calib_ns: u64 = calib.iter().map(|r| r.loop_ns).sum();
        // Replay cost scales with verdicts, so the sampling stride caps
        // the traced verdicts (a churn submission carries a whole epoch).
        let expected = calib_verdicts as f64 * (0.7 * cfg.seconds) / (calib_ns as f64 / 1e9);
        let stride = ((expected / sizes.max_traced_ops as f64).ceil() as usize).max(1);
        let untraced_op = calib_ns as f64 * CLIENTS as f64 / calib_ops as f64;
        let end = deadline(cfg.seconds * 0.7);
        let mut tracer = Tracer::default();
        let (federation, registry) = federation(quorum, corrupt);
        let mut replayer = Replayer {
            federation,
            registry,
            collecting: Telemetry::collecting(),
            federation_ns: Vec::new(),
            checks: 0,
            failures: 0,
            extras: 0,
            replayed: 0,
            mismatched: 0,
        };
        let mut traced_ns = 0u64;
        let mut traced_ops = 0u64;
        while rounds.is_empty() || Instant::now() < end {
            let r = round(cfg, &inputs, quorum, corrupt, Some(stride))?;
            let mut handled: HashMap<u64, VecDeque<u64>> = HashMap::new();
            for &(trace, ns) in &r.report.handled {
                handled.entry(trace).or_default().push_back(ns);
            }
            for c in &r.clients {
                for op in &c.traced {
                    traced_ns += op.ns;
                    traced_ops += 1;
                    replayer.op(&mut tracer, &inputs, op, &mut handled);
                }
            }
            rounds.push(r);
        }
        out.lines.push(format!(
            "traced: {traced_ops} operations (every {stride}th submission) over {} rounds; \
             untraced calibration {} rounds",
            rounds.len(),
            calib.len()
        ));
        out.set(
            "telemetry.trace_overhead_frac",
            traced_ns as f64 / traced_ops.max(1) as f64 / untraced_op - 1.0,
        );
        per_layer(cfg, &mut out, &inputs, &rounds, &tracer, &replayer, churn);
        rounds.extend(calib);
    }
    for r in &rounds {
        out.attempted += r.sum(|c| c.attempted);
        out.failed += r.sum(|c| c.failed);
    }
    let indeterminate: u64 = rounds.iter().map(|r| r.sum(|c| c.indeterminate)).sum();
    out.lines.push(format!(
        "checks: {} verdicts attempted, {} failed, {indeterminate} indeterminate (truncated \
         chains, counted separately)",
        out.attempted, out.failed
    ));
    let stopped = rounds.iter().filter(|r| r.report.stopped).count();
    out.lines.push(format!(
        "service stops: {stopped} of {} returned within {:?} (any other missed a worker's \
         wake-up in ServerHandle::stop, and its child exited without joining that worker)",
        rounds.len(),
        crate::server::STOP_GRACE
    ));
    identities(&mut out, &rounds, churn);
    Ok(out)
}

/// End-to-end metrics over every round of the run.
fn end_to_end(out: &mut Outcome, rounds: &mut [Round]) {
    let verdicts: u64 = rounds.iter().map(|r| r.sum(|c| c.verdicts)).sum();
    let loop_s: f64 = rounds.iter().map(|r| r.loop_ns as f64 / 1e9).sum();
    let mut lat: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.clients.iter().flat_map(|c| c.latencies.iter().copied()))
        .collect();
    lat.sort_unstable();
    let setups: Vec<f64> = rounds
        .iter()
        .map(|r| r.boot_reference_s + r.warm_up_reference_s)
        .collect();
    let wall: Vec<f64> = rounds.iter().map(|r| r.boot_s + r.warm_up_s).collect();
    let boots: Vec<f64> = rounds.iter().map(|r| r.boot_s).collect();
    let rss: Vec<f64> = rounds
        .iter()
        .map(|r| r.report.hwm_kb as f64 * 1024.0 / 1e6)
        .collect();
    let rate = verdicts as f64 / loop_s;
    let mut clock = RefClock::default();
    for c in rounds.iter_mut().flat_map(|r| r.clients.iter_mut()) {
        clock.absorb(std::mem::take(&mut c.clock));
    }
    // The clients run side by side, so the loop's reference time is
    // their mean.
    clock.iters /= CLIENTS as f64;
    clock.ns /= CLIENTS as u64;
    crate::reference_metrics(out, "verdicts", verdicts, &mut clock);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", median(&rss));
    out.lines.push(format!(
        "metric verdicts_per_s {rate} 1/s ({verdicts} verdicts in {loop_s:.3} s over {} rounds, \
         submit RPCs included)",
        rounds.len()
    ));
    crate::latency_lines(out, "verdict", "us", 1e3, &lat);
    out.lines.push(format!(
        "metric setup_s {} s (reference seconds; median of {} service set-ups: service \
         construction with enrollment and bind, timed in the service process, then connection \
         warm-up; wall median {} s, of which construction and bind {} s)",
        median(&setups),
        setups.len(),
        median(&wall),
        median(&boots)
    ));
    out.lines.push(format!(
        "metric peak_rss_mb {} MB (median over rounds of the service process's peak RSS)",
        median(&rss)
    ));
}

fn identities(out: &mut Outcome, rounds: &[Round], churn: bool) {
    let verdicts: u64 = rounds.iter().map(|r| r.sum(|c| c.verdicts)).sum();
    let served: u64 = rounds
        .iter()
        .map(|r| r.report.counter("svc.appraisals"))
        .sum();
    let members: u64 = rounds
        .iter()
        .map(|r| r.report.counter("ra.appraisals"))
        .sum();
    out.identity("svc.appraisals = client verdicts", served, verdicts);
    out.identity("member appraisals = 3 x verdicts", members, 3 * verdicts);
    if churn {
        let dissent: u64 = rounds.iter().map(|r| r.report.counter("svc.dissent")).sum();
        let with_sw1: u64 = rounds.iter().map(|r| r.sum(|c| c.accepted_with_sw1)).sum();
        out.identity(
            "svc.dissent = accepted verdicts whose chain has sw1's record",
            dissent,
            with_sw1,
        );
    }
}

fn per_layer(
    cfg: &Config,
    out: &mut Outcome,
    inputs: &Inputs,
    rounds: &[Round],
    tracer: &Tracer,
    replayer: &Replayer,
    churn: bool,
) {
    let p50 = |v: Vec<i64>| percentile(&v, 0.50) as f64;
    let us = |v: Vec<i64>| percentile(&v, 0.50) as f64 / 1e3;
    out.set("svc.submit_us", us(tracer.durations("svc.submit_us")));
    out.set("svc.appraise_us", us(tracer.durations("svc.appraise_us")));
    out.set(
        "svc.handle_submit_us",
        us(tracer.durations("svc.handle_submit_us")),
    );
    out.set(
        "svc.handle_appraise_us",
        us(tracer.durations("svc.handle_appraise_us")),
    );
    let mut conn = tracer.minus_children("svc.submit_us", "svc.handle_submit_us");
    conn.extend(tracer.minus_children("svc.appraise_us", "svc.handle_appraise_us"));
    conn.sort_unstable();
    out.set("svc.conn_us", us(conn));
    out.set(
        "svc.hex_decode_ns",
        p50(tracer.durations("svc.hex_decode_ns")),
    );
    out.set(
        "pera.read_wire_ns",
        p50(tracer.durations("pera.read_wire_ns")),
    );
    out.set(
        "pera.assemble_ns",
        p50(tracer.durations("pera.assemble_ns")),
    );
    out.set("pera.assemble_extras", replayer.extras as f64);
    let mut federation = replayer.federation_ns.clone();
    federation.sort_unstable();
    out.set("svc.federation_us", us(federation));
    out.set(
        "telemetry.verdict_us",
        us(tracer.durations("telemetry.verdict_us")),
    );
    out.set("ra.appraise_us", us(tracer.durations("ra.appraise_us")));
    out.set(
        "crypto.verify_ns",
        p50(tracer.durations("crypto.verify_ns")),
    );
    out.set("ra.checks", replayer.checks as f64);
    out.set("ra.failures", replayer.failures as f64);
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    out.set("svc.rpc_errors", sum(&|r| r.sum(|c| c.errors)));
    out.set("svc.reused_connections", sum(&|r| r.reused));
    out.set("svc.dissent", sum(&|r| r.report.counter("svc.dissent")));
    let per_round =
        |f: &dyn Fn(&Round) -> u64| median(&rounds.iter().map(|r| f(r) as f64).collect::<Vec<_>>());
    out.set(
        "svc.stored_records",
        per_round(&|r| r.report.counter("svc.records")),
    );
    out.set("svc.audit_records", per_round(&|r| r.report.audit));
    if churn {
        out.set("netsim.retransmits", inputs.retransmits as f64);
        out.set("netsim.truncated_chains", inputs.truncated as f64);
    }
    out.identity(
        "replayed verdicts = served verdicts",
        replayer.replayed - replayer.mismatched,
        replayer.replayed,
    );
    out.lines.push(
        "per-layer: svc.stored_records and svc.audit_records are per service instance (median \
         over rounds); counts are run totals"
            .to_string(),
    );
    crate::attach_ledger(cfg, out, tracer);
}
