//! Experiment implementations shared by the Criterion benches and the
//! `harness` binary. Each `exp_*` function regenerates one paper
//! artifact (figure, equation, or table row set) and returns structured
//! rows; the harness prints them, EXPERIMENTS.md records them.

use pda_copland::adversary::{analyze, AdversaryModel};
use pda_copland::ast::examples as copland_examples;
use pda_copland::parser::parse_request;
use pda_core::prelude::*;
use pda_core::usecases::enroll_golden;
use pda_crypto::digest::Digest;
use pda_crypto::lamport::LamportSecretKey;
use pda_crypto::merkle::{merkle_verify, MerkleSigner};
use pda_crypto::sha256::Sha256;
use pda_crypto::sig::{verify as sig_verify, SigScheme, Signer};
use pda_dataplane::programs;
use pda_hybrid::ast::table1;
use pda_hybrid::resolve::{resolve as hybrid_resolve, Composition as HComposition, NodeInfo};
use pda_hybrid::wire;
use pda_netkat::ast::{Field, Packet, Pred};
use pda_netkat::reach::can_reach;
use pda_netsim::{
    linear_path, linear_path_bw, ControlRetryPolicy, EvidenceMode, FaultPlan, LinkFaults,
};
use pda_pera::config::{DetailLevel, EvidenceComposition, PeraConfig, Sampling};
use pda_pera::switch::PeraSwitch;
use pda_pera::{AdmissionPolicy, FailMode};
use pda_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::time::Instant;

// ---------------------------------------------------------------------
// E1 / Fig. 1 — RA principals round trip
// ---------------------------------------------------------------------

/// One row of the Fig. 1 experiment.
#[derive(Debug)]
pub struct Fig1Row {
    /// Signing backend used by the attester.
    pub scheme: SigScheme,
    /// Protocol messages in one claim→evidence→result round.
    pub messages: u64,
    /// Evidence bytes transferred.
    pub bytes: u64,
    /// Appraisal checks performed.
    pub checks: u64,
    /// Did appraisal pass?
    pub ok: bool,
}

/// Fig. 1: run the out-of-band PERA attestation (eq 3) once per signing
/// backend and report the message/byte/check shape. Appraisal verdicts
/// and spans land in `tel`'s registry and audit log (pass
/// [`Telemetry::off`] to record nothing).
pub fn exp_fig1(tel: &Telemetry) -> Vec<Fig1Row> {
    SigScheme::ALL
        .iter()
        .map(|&scheme| {
            let mut env = Environment::new().with_telemetry(tel.clone());
            env.add_place(PlaceRuntime::new("RP1"));
            env.add_place(
                PlaceRuntime::new("Switch")
                    .with_scheme(scheme, 6)
                    .with_source("Hardware", b"tofino-sim-v1")
                    .with_source("Program", b"firewall_v5.p4"),
            );
            env.add_place(PlaceRuntime::new("Appraiser"));
            let req = copland_examples::pera_out_of_band();
            let shape = pda_copland::eval_request(&req);
            let report = run_request(&req, &mut env, Some(Nonce(1))).expect("runs");
            let result = pda_ra::appraise(&report.evidence, &shape, &env, Some(Nonce(1)));
            Fig1Row {
                scheme,
                messages: report.stats.messages,
                bytes: report.stats.bytes,
                checks: result.checks,
                ok: result.ok,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E2 / Fig. 2 — in-band vs out-of-band evidence
// ---------------------------------------------------------------------

/// One row of the Fig. 2 experiment.
#[derive(Debug)]
pub struct Fig2Row {
    /// "in-band" or "out-of-band".
    pub variant: &'static str,
    /// PERA hops on the path.
    pub hops: usize,
    /// Data-plane wire bytes (bytes × links).
    pub wire_bytes: u64,
    /// Control-plane messages.
    pub control_messages: u64,
    /// Control-plane bytes.
    pub control_bytes: u64,
    /// End-to-end packet latency (ns).
    pub latency_ns: u64,
    /// Evidence records available to the relying party.
    pub records: usize,
    /// Whether the chain appraised clean.
    pub ok: bool,
}

/// Fig. 2: drive one attested packet over paths of increasing length in
/// both evidence modes. Links are 1 Gbit/s (8 ns/byte), so the in-band
/// chain's growth shows up as end-to-end latency.
pub fn exp_fig2(path_lengths: &[usize]) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for &n in path_lengths {
        let config = PeraConfig::default()
            .with_details(&[DetailLevel::Hardware, DetailLevel::Program])
            .with_sampling(Sampling::PerPacket);
        // In-band.
        {
            let mut net = linear_path_bw(n, &config, &[], 8);
            let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
            net.send_attested(Nonce(1), EvidenceMode::InBand, b"payload!");
            let chain = &net.server_chains()[0].chain;
            rows.push(Fig2Row {
                variant: "in-band",
                hops: n,
                wire_bytes: net.sim.stats.wire_bytes,
                control_messages: net.sim.stats.control_messages,
                control_bytes: net.sim.stats.control_bytes,
                latency_ns: net.sim.deliveries[0].time,
                records: chain.len(),
                ok: pda_core::appraise_chain(chain, &net.sim.registry, &golden, Nonce(1), true)
                    .is_ok(),
            });
        }
        // Out-of-band.
        {
            let mut net = linear_path_bw(n, &config, &[], 8);
            let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
            let appraiser = net.appraiser;
            net.send_attested(Nonce(1), EvidenceMode::OutOfBand { appraiser }, b"payload!");
            let recs = net.sim.evidence_at(appraiser);
            rows.push(Fig2Row {
                variant: "out-of-band",
                hops: n,
                wire_bytes: net.sim.stats.wire_bytes,
                control_messages: net.sim.stats.control_messages,
                control_bytes: net.sim.stats.control_bytes,
                latency_ns: net
                    .sim
                    .deliveries
                    .first()
                    .map(|d| d.time)
                    .unwrap_or_default(),
                records: recs.len(),
                ok: pda_core::appraise_chain(recs, &net.sim.registry, &golden, Nonce(1), true)
                    .is_ok(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// E3 / equations (1)-(2) — adversary analysis
// ---------------------------------------------------------------------

/// One row of the adversary-analysis experiment.
#[derive(Debug)]
pub struct Eq12Row {
    /// Policy label.
    pub policy: &'static str,
    /// Analysis verdict (rendered).
    pub verdict: String,
    /// Corruptions in the cheapest evasion (0 when secure).
    pub corruptions: usize,
    /// Recent (mid-protocol) corruptions required.
    pub recent: usize,
    /// Repairs required.
    pub repairs: usize,
    /// Number of measurement linearizations admitting evasion.
    pub evadable_linearizations: usize,
}

/// Equations (1)-(2) plus a re-measurement hardening, analyzed against a
/// userspace adversary targeting `exts`.
pub fn exp_eqn12() -> Vec<Eq12Row> {
    let adversary = AdversaryModel::controlling(&["us"]);
    let hardened =
        parse_request("*bank : @ks [av us bmon] -<- (@us [bmon us exts] -<- @ks [av us bmon])")
            .expect("hardened variant parses");
    [
        ("eq (1) parallel", copland_examples::bank_eq1()),
        ("eq (2) sequenced", copland_examples::bank_eq2()),
        ("eq (2) + re-measure", hardened),
    ]
    .into_iter()
    .map(|(label, req)| {
        let a = analyze(&req, &adversary, "exts");
        let (c, r, rep) = a
            .best_strategy
            .as_ref()
            .map(|s| (s.corruptions, s.recent_corruptions, s.repairs))
            .unwrap_or((0, 0, 0));
        Eq12Row {
            policy: label,
            verdict: a.verdict.to_string(),
            corruptions: c,
            recent: r,
            repairs: rep,
            evadable_linearizations: a.strategies.len(),
        }
    })
    .collect()
}

// ---------------------------------------------------------------------
// E4-E6 / Table 1 — the three attestation policies
// ---------------------------------------------------------------------

/// One row of the Table 1 experiment.
#[derive(Debug)]
pub struct Table1Row {
    /// Policy id.
    pub policy: &'static str,
    /// Path length used.
    pub path_len: usize,
    /// Clauses in the policy.
    pub clauses: usize,
    /// Directives after resolution.
    pub directives: usize,
    /// Abstract variables bound.
    pub bindings: usize,
    /// Non-attesting elements skipped.
    pub skipped: usize,
    /// Serialized options-header bytes.
    pub wire_bytes: usize,
    /// Resolution time (ns, single shot — indicative only).
    pub resolve_ns: u128,
}

fn ap1_path(n: usize) -> Vec<NodeInfo> {
    let mut path: Vec<NodeInfo> = (1..=n).map(|i| NodeInfo::pera(format!("sw{i}"))).collect();
    path.push(NodeInfo::pera("client-host"));
    path
}

fn ap3_path(transit: usize) -> Vec<NodeInfo> {
    let mut path = vec![
        NodeInfo::pera("alice").with_test("Peer1"),
        NodeInfo::pera("fw-switch").with_function("firewall_v5.p4"),
        NodeInfo::pera("ids-switch").with_function("ids_v3.p4"),
    ];
    for i in 0..transit {
        path.push(NodeInfo::legacy(format!("transit-{i}")));
    }
    path.push(NodeInfo::pera("edge").with_test("Q"));
    path.push(NodeInfo::pera("bob").with_test("Peer2"));
    path
}

/// Table 1: compile AP1-AP3 against representative paths; report
/// structure and wire cost.
pub fn exp_table1(path_lengths: &[usize]) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for &n in path_lengths {
        let ap1 = table1::ap1();
        let path = ap1_path(n);
        let t0 = Instant::now();
        let r = hybrid_resolve(
            &ap1,
            &path,
            &[("n", "1"), ("X", "prog")],
            HComposition::Chained,
        )
        .expect("ap1 resolves");
        let dt = t0.elapsed().as_nanos();
        let bytes = wire::encode(&wire::WirePolicy {
            nonce: 1,
            flags: wire::Flags::default(),
            directives: r.directives.clone(),
        })
        .len();
        rows.push(Table1Row {
            policy: "AP1",
            path_len: path.len(),
            clauses: ap1.body.clause_count(),
            directives: r.directives.len(),
            bindings: r.bindings.len(),
            skipped: r.skipped.len(),
            wire_bytes: bytes,
            resolve_ns: dt,
        });
    }
    // AP2: no path needed.
    {
        let ap2 = table1::ap2();
        let t0 = Instant::now();
        let r = hybrid_resolve(&ap2, &[], &[("P", "c2_beacon")], HComposition::Chained)
            .expect("ap2 resolves");
        let dt = t0.elapsed().as_nanos();
        let bytes = wire::encode(&wire::WirePolicy {
            nonce: 1,
            flags: wire::Flags::default(),
            directives: r.directives.clone(),
        })
        .len();
        rows.push(Table1Row {
            policy: "AP2",
            path_len: 0,
            clauses: ap2.body.clause_count(),
            directives: r.directives.len(),
            bindings: r.bindings.len(),
            skipped: r.skipped.len(),
            wire_bytes: bytes,
            resolve_ns: dt,
        });
    }
    // AP3 with growing non-attesting segments.
    for transit in [0usize, 2, 6] {
        let ap3 = table1::ap3();
        let path = ap3_path(transit);
        let t0 = Instant::now();
        let r = hybrid_resolve(
            &ap3,
            &path,
            &[
                ("F1", "firewall_v5.p4"),
                ("F2", "ids_v3.p4"),
                ("Peer1", "Peer1"),
                ("Peer2", "Peer2"),
            ],
            HComposition::Chained,
        )
        .expect("ap3 resolves");
        let dt = t0.elapsed().as_nanos();
        let bytes = wire::encode(&wire::WirePolicy {
            nonce: 1,
            flags: wire::Flags::default(),
            directives: r.directives.clone(),
        })
        .len();
        rows.push(Table1Row {
            policy: "AP3",
            path_len: path.len(),
            clauses: ap3.body.clause_count(),
            directives: r.directives.len(),
            bindings: r.bindings.len(),
            skipped: r.skipped.len(),
            wire_bytes: bytes,
            resolve_ns: dt,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E7 / Fig. 3 — PERA pipeline cost
// ---------------------------------------------------------------------

/// One row of the pipeline-cost experiment.
#[derive(Debug)]
pub struct Fig3Row {
    /// Configuration label.
    pub config: String,
    /// Packets pushed through.
    pub packets: u64,
    /// Nanoseconds per packet (wall clock, single-threaded).
    pub ns_per_packet: f64,
    /// Evidence records produced.
    pub records: u64,
    /// Slowdown vs the no-RA baseline.
    pub slowdown: f64,
}

/// Build the packets for the pipeline experiment.
fn pipeline_packets(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            pda_dataplane::build_udp_packet(
                0xa,
                0xb,
                0x0a00_0000 + (i as u32 % 64),
                0x0a00_ffff,
                40_000 + (i as u16 % 16),
                443,
                b"payload!",
            )
        })
        .collect()
}

/// Fig. 3: packets/sec through the PISA pipeline alone vs PERA with
/// different signing backends and sampling rates. Per-stage pipeline
/// spans and PERA counters are recorded into `tel`; the baseline pass
/// runs traced too, so the `pipeline.*` latency histograms cover the
/// no-RA case as well.
pub fn exp_fig3(packets: usize, tel: &Telemetry) -> Vec<Fig3Row> {
    let pkts = pipeline_packets(packets);
    let mut rows: Vec<Fig3Row> = Vec::new();

    // Baseline: plain PISA, no RA.
    let baseline_ns = {
        let prog = programs::forwarding(&[(0, 0, 1)]);
        let mut regs = prog.make_registers();
        let t0 = Instant::now();
        for p in &pkts {
            let _ = prog.process_traced(p, 0, &mut regs, tel).expect("parses");
        }
        t0.elapsed().as_nanos() as f64 / pkts.len() as f64
    };
    rows.push(Fig3Row {
        config: "PISA baseline (no RA)".into(),
        packets: pkts.len() as u64,
        ns_per_packet: baseline_ns,
        records: 0,
        slowdown: 1.0,
    });

    let variants: Vec<(String, SigScheme, Sampling)> = vec![
        (
            "PERA hmac / per-packet".into(),
            SigScheme::Hmac,
            Sampling::PerPacket,
        ),
        (
            "PERA hmac / per-flow".into(),
            SigScheme::Hmac,
            Sampling::PerFlow,
        ),
        (
            "PERA hmac / every-100".into(),
            SigScheme::Hmac,
            Sampling::EveryN(100),
        ),
        (
            "PERA lamport / per-flow".into(),
            SigScheme::LamportOts,
            Sampling::PerFlow,
        ),
        (
            "PERA merkle / per-flow".into(),
            SigScheme::MerkleMss,
            Sampling::PerFlow,
        ),
    ];
    for (label, scheme, sampling) in variants {
        let config = PeraConfig::default()
            .with_details(&[DetailLevel::Hardware, DetailLevel::Program])
            .with_sampling(sampling);
        let mut sw = PeraSwitch::new("sw", "hw", programs::forwarding(&[(0, 0, 1)]), config)
            .with_scheme(scheme, 10)
            .with_telemetry(tel.clone());
        let t0 = Instant::now();
        let mut prev = Digest::ZERO;
        for p in &pkts {
            let out = sw
                .process_packet(p, 0, Some((Nonce(1), prev)))
                .expect("parses");
            if let Some(r) = out.evidence {
                prev = r.chain;
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / pkts.len() as f64;
        rows.push(Fig3Row {
            config: label,
            packets: pkts.len() as u64,
            ns_per_packet: ns,
            records: sw.stats.records,
            slowdown: ns / baseline_ns,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E8 / Fig. 4 — the design space: inertia × detail × composition
// ---------------------------------------------------------------------

/// One row of the design-space sweep.
#[derive(Debug)]
pub struct Fig4Row {
    /// Detail levels attested.
    pub details: String,
    /// Sampling mode.
    pub sampling: String,
    /// Composition mode.
    pub composition: String,
    /// Cache on?
    pub cache: bool,
    /// Evidence records per 1000 packets.
    pub records: u64,
    /// Evidence bytes per packet (average).
    pub bytes_per_packet: f64,
    /// Cache hit rate.
    pub cache_hit_rate: f64,
}

/// Fig. 4: sweep the three axes (plus the cache ablation) over a fixed
/// 1000-packet, 32-flow workload.
pub fn exp_fig4() -> Vec<Fig4Row> {
    let detail_sets: [(&str, &[DetailLevel]); 4] = [
        ("hw", &[DetailLevel::Hardware]),
        ("hw+prog", &[DetailLevel::Hardware, DetailLevel::Program]),
        (
            "hw+prog+tables",
            &[
                DetailLevel::Hardware,
                DetailLevel::Program,
                DetailLevel::Tables,
            ],
        ),
        ("all", &DetailLevel::ALL),
    ];
    let samplings = [
        Sampling::PerPacket,
        Sampling::EveryN(10),
        Sampling::PerFlow,
        Sampling::PerEpoch(100),
    ];
    let compositions = [EvidenceComposition::Chained, EvidenceComposition::Pointwise];
    let pkts = pipeline_packets(1000);

    let mut rows = Vec::new();
    for (dlabel, details) in detail_sets {
        for sampling in samplings {
            for composition in compositions {
                for cache in [true, false] {
                    let config = PeraConfig::default()
                        .with_details(details)
                        .with_sampling(sampling)
                        .with_composition(composition)
                        .with_cache(cache);
                    let mut sw = PeraSwitch::new("sw", "hw", programs::flow_monitor(64, 1), config);
                    let mut prev = Digest::ZERO;
                    for p in &pkts {
                        let out = sw
                            .process_packet(p, 0, Some((Nonce(1), prev)))
                            .expect("parses");
                        if let Some(r) = out.evidence {
                            prev = r.chain;
                        }
                    }
                    rows.push(Fig4Row {
                        details: dlabel.to_string(),
                        sampling: sampling.to_string(),
                        composition: composition.to_string(),
                        cache,
                        records: sw.stats.records,
                        bytes_per_packet: sw.stats.evidence_bytes as f64 / pkts.len() as f64,
                        cache_hit_rate: sw.cache.stats.hit_rate(),
                    });
                }
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// E9 / UC3 — DDoS mitigation
// ---------------------------------------------------------------------

/// Result of the DDoS-gate experiment.
#[derive(Debug)]
pub struct Uc3Row {
    /// Legitimate flows presented.
    pub legit: u64,
    /// Attack packets presented.
    pub attack: u64,
    /// Legitimate flows admitted (recall numerator).
    pub legit_admitted: u64,
    /// Attack packets admitted (false positives).
    pub attack_admitted: u64,
    /// Precision of admission.
    pub precision: f64,
    /// Recall of legitimate traffic.
    pub recall: f64,
}

/// UC3: legitimate flows carry valid chains; the botnet sends bare or
/// forged evidence. Measure the gate's precision/recall.
pub fn exp_uc3(legit: u64, attack: u64) -> Uc3Row {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let net = linear_path(3, &config, &[]);
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
    let mut gate = EvidenceGate::new(golden, net.sim.registry);

    let mut legit_admitted = 0;
    for i in 0..legit {
        let mut net = linear_path(3, &config, &[]);
        net.send_attested(Nonce(100 + i), EvidenceMode::InBand, b"legit!!!");
        let chain = net.server_chains()[0].chain.clone();
        if gate.admit(Some(&chain), Nonce(100 + i)) {
            legit_admitted += 1;
        }
    }
    let mut attack_admitted = 0;
    for i in 0..attack {
        // Attackers alternate: no evidence / forged self-signed chain.
        let admitted = if i % 2 == 0 {
            gate.admit(None, Nonce(0))
        } else {
            let mut signer = Signer::new(SigScheme::Hmac, [0xEE; 32], 0);
            let forged = pda_pera::evidence::EvidenceRecord::create(
                "sw1",
                vec![(DetailLevel::Program, Digest::of(b"claimed-clean"))],
                Nonce(9999 + i),
                Digest::ZERO,
                &mut signer,
            )
            .unwrap();
            gate.admit(Some(&[forged]), Nonce(9999 + i))
        };
        if admitted {
            attack_admitted += 1;
        }
    }
    let admitted_total = legit_admitted + attack_admitted;
    Uc3Row {
        legit,
        attack,
        legit_admitted,
        attack_admitted,
        precision: if admitted_total == 0 {
            1.0
        } else {
            legit_admitted as f64 / admitted_total as f64
        },
        recall: legit_admitted as f64 / legit as f64,
    }
}

// ---------------------------------------------------------------------
// E10 / UC1 — detection latency vs sampling frequency
// ---------------------------------------------------------------------

/// One row of the detection-latency experiment.
#[derive(Debug)]
pub struct Uc1Row {
    /// Sampling mode.
    pub sampling: String,
    /// Packets until the rogue program is first detected.
    pub packets_to_detection: Option<u64>,
    /// Evidence records produced in that window.
    pub records: u64,
}

/// UC1: swap a rogue program mid-stream; how many packets pass before
/// the appraiser sees a mismatching record under each sampling mode?
pub fn exp_uc1_detection(samplings: &[Sampling]) -> Vec<Uc1Row> {
    samplings
        .iter()
        .map(|&sampling| {
            let config = PeraConfig::default()
                .with_details(&[DetailLevel::Program])
                .with_sampling(sampling);
            let mut sw = PeraSwitch::new("sw", "hw", programs::forwarding(&[(0, 0, 1)]), config);
            let golden = sw.program.digest();
            let pkts = pipeline_packets(1);
            // Warm up with 10 clean packets.
            let mut prev = Digest::ZERO;
            for _ in 0..10 {
                if let Some(r) = sw
                    .process_packet(&pkts[0], 0, Some((Nonce(1), prev)))
                    .unwrap()
                    .evidence
                {
                    prev = r.chain;
                }
            }
            // The swap.
            sw.load_program(programs::rogue_wiretap(&[(0, 0, 1)], &[1], 31));
            // Same-flow traffic continues; count packets until a record
            // with a mismatching digest shows up.
            let mut detection = None;
            let mut records = 0;
            for i in 0..1000u64 {
                let out = sw
                    .process_packet(&pkts[0], 0, Some((Nonce(1), prev)))
                    .unwrap();
                if let Some(r) = out.evidence {
                    records += 1;
                    prev = r.chain;
                    if r.detail(DetailLevel::Program) != Some(golden) {
                        detection = Some(i + 1);
                        break;
                    }
                }
            }
            Uc1Row {
                sampling: sampling.to_string(),
                packets_to_detection: detection,
                records,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E11 — crypto primitive costs
// ---------------------------------------------------------------------

/// One row of the crypto-cost experiment.
#[derive(Debug)]
pub struct CryptoRow {
    /// Operation label.
    pub op: &'static str,
    /// Mean nanoseconds per operation (single shot loop).
    pub ns_per_op: f64,
    /// Output/signature size in bytes where applicable.
    pub size_bytes: usize,
}

/// E11: rough single-threaded costs of the root-of-trust primitives
/// (Criterion benches give the rigorous numbers; this feeds the harness
/// table).
pub fn exp_crypto(iters: u32) -> Vec<CryptoRow> {
    let mut rows = Vec::new();
    let data = vec![0xabu8; 1500]; // one MTU

    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(Sha256::digest(&data));
    }
    rows.push(CryptoRow {
        op: "sha256 (1500B)",
        ns_per_op: t0.elapsed().as_nanos() as f64 / f64::from(iters),
        size_bytes: 32,
    });

    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(pda_crypto::hmac::hmac_sha256(b"key", &data));
    }
    rows.push(CryptoRow {
        op: "hmac-sha256 (1500B)",
        ns_per_op: t0.elapsed().as_nanos() as f64 / f64::from(iters),
        size_bytes: 32,
    });

    let (sk, pk) = LamportSecretKey::derive(&[7u8; 32], 0);
    let t0 = Instant::now();
    for _ in 0..iters.min(64) {
        std::hint::black_box(sk.sign(&data));
    }
    let sig = sk.sign(&data);
    rows.push(CryptoRow {
        op: "lamport sign",
        ns_per_op: t0.elapsed().as_nanos() as f64 / f64::from(iters.min(64)),
        size_bytes: pda_crypto::lamport::LamportSignature::SIZE,
    });
    let t0 = Instant::now();
    for _ in 0..iters.min(64) {
        std::hint::black_box(pda_crypto::lamport::lamport_verify(&pk, &data, &sig));
    }
    rows.push(CryptoRow {
        op: "lamport verify",
        ns_per_op: t0.elapsed().as_nanos() as f64 / f64::from(iters.min(64)),
        size_bytes: 0,
    });

    let mut signer = MerkleSigner::new([9u8; 32], 6);
    let root = signer.public_root();
    let t0 = Instant::now();
    let sig = signer.sign(&data).unwrap();
    rows.push(CryptoRow {
        op: "merkle-mss sign",
        ns_per_op: t0.elapsed().as_nanos() as f64,
        size_bytes: sig.wire_size(),
    });
    let t0 = Instant::now();
    for _ in 0..iters.min(64) {
        std::hint::black_box(merkle_verify(&root, &data, &sig));
    }
    rows.push(CryptoRow {
        op: "merkle-mss verify",
        ns_per_op: t0.elapsed().as_nanos() as f64 / f64::from(iters.min(64)),
        size_bytes: 0,
    });

    // Signature sizes across schemes (the wire-cost axis).
    for scheme in SigScheme::ALL {
        let mut s = Signer::new(scheme, [3u8; 32], 6);
        let vk = s.verify_key(4);
        let sig = s.sign(&data).unwrap();
        assert!(sig_verify(&vk, &data, &sig));
        rows.push(CryptoRow {
            op: match scheme {
                SigScheme::Hmac => "sig size: hmac",
                SigScheme::LamportOts => "sig size: lamport",
                SigScheme::MerkleMss => "sig size: merkle",
            },
            ns_per_op: 0.0,
            size_bytes: sig.wire_size(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E12 — wire overhead vs path length
// ---------------------------------------------------------------------

/// One row of the wire-overhead experiment.
#[derive(Debug)]
pub struct WireRow {
    /// PERA hops.
    pub hops: usize,
    /// Policy options-header bytes.
    pub policy_bytes: usize,
    /// In-band evidence bytes at the receiver.
    pub evidence_bytes: usize,
}

/// E12: serialized policy size and accumulated in-band evidence size as
/// the path grows.
pub fn exp_wire(path_lengths: &[usize]) -> Vec<WireRow> {
    path_lengths
        .iter()
        .map(|&n| {
            let ap1 = table1::ap1();
            let path = ap1_path(n);
            let r = hybrid_resolve(
                &ap1,
                &path,
                &[("n", "1"), ("X", "prog")],
                HComposition::Chained,
            )
            .expect("resolves");
            let policy_bytes = wire::encode(&wire::WirePolicy {
                nonce: 1,
                flags: wire::Flags {
                    in_band_evidence: true,
                },
                directives: r.directives,
            })
            .len();
            let config = PeraConfig::default()
                .with_details(&[DetailLevel::Hardware, DetailLevel::Program])
                .with_sampling(Sampling::PerPacket);
            let mut net = linear_path(n, &config, &[]);
            net.send_attested(Nonce(1), EvidenceMode::InBand, b"payload!");
            let evidence_bytes = net.server_chains()[0].in_band_bytes();
            WireRow {
                hops: n,
                policy_bytes,
                evidence_bytes,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E19 — symbolic vs enumerative NetKAT verification scaling
// ---------------------------------------------------------------------

/// One row of E19: verification time on a spine-leaf fabric of `switches`
/// leaves, symbolic (hash-consed SPP) vs enumerative (finite-model
/// oracle) backends. Enumerative columns are `None` above the cap —
/// the oracle's cost is super-linear in mentioned constants and becomes
/// impractical long before the symbolic backend does.
#[derive(Debug)]
pub struct E19Row {
    /// Leaf count of the fabric.
    pub switches: usize,
    /// AST size of the step policy under verification.
    pub policy_size: usize,
    /// Symbolic equivalence check (step vs redundant step), ns.
    pub sym_equiv_ns: u128,
    /// Enumerative equivalence check, ns (None above the cap).
    pub enum_equiv_ns: Option<u128>,
    /// Symbolic reachability (spine→last leaf), ns.
    pub sym_reach_ns: u128,
    /// Enumerative reachability, ns (None above the cap).
    pub enum_reach_ns: Option<u128>,
    /// Equivalence verdict (must hold: the redundant fabric is a
    /// rewriting of the clean one).
    pub equivalent: bool,
    /// Reachability verdict (must hold: the fabric connects leaf 1 to
    /// the last leaf through the spine).
    pub reachable: bool,
}

/// E19 — verify-time scaling, switch count × policy size, symbolic vs
/// enumerative. For each size the harness checks `fabric_step(n)` ≡
/// `fabric_step_redundant(n)` (dead/duplicated/reordered clauses added)
/// and spine-leaf reachability from leaf 1 to leaf `n`, timing both
/// backends; the enumerative oracle only runs at sizes ≤ `enum_cap`.
pub fn exp_e19(sizes: &[usize], enum_cap: usize) -> Vec<E19Row> {
    use pda_netkat::corpus::{fabric_step, fabric_step_redundant};
    use pda_netkat::equiv::{equivalent_with, Backend};
    use pda_netkat::reach::can_reach_enumerative;

    sizes
        .iter()
        .map(|&n| {
            let p = fabric_step(n as u32);
            let q = fabric_step_redundant(n as u32);

            let t0 = Instant::now();
            let equivalent = equivalent_with(Backend::Symbolic, &p, &q);
            let sym_equiv_ns = t0.elapsed().as_nanos();
            assert!(equivalent, "redundant fabric must stay equivalent");

            let enum_equiv_ns = (n <= enum_cap).then(|| {
                let t0 = Instant::now();
                let e = equivalent_with(Backend::Enumerative, &p, &q);
                assert!(e, "oracle must agree");
                t0.elapsed().as_nanos()
            });

            // Reachability: start at leaf 1 with dst = last leaf; the
            // step policy hops leaf → spine → leaf dst.
            let init = BTreeSet::from([Packet::of(&[
                (Field::Switch, 1),
                (Field::Port, 2),
                (Field::Dst, n as u32),
            ])]);
            let goal = Pred::test(Field::Switch, n as u32);
            let t0 = Instant::now();
            let reachable = can_reach(&p, &init, &goal);
            let sym_reach_ns = t0.elapsed().as_nanos();
            assert!(reachable, "fabric must connect leaf 1 to leaf {n}");

            let enum_reach_ns = (n <= enum_cap).then(|| {
                let t0 = Instant::now();
                let r = can_reach_enumerative(&p, &init, &goal);
                assert!(r, "oracle must agree");
                t0.elapsed().as_nanos()
            });

            E19Row {
                switches: n,
                policy_size: p.size(),
                sym_equiv_ns,
                enum_equiv_ns,
                sym_reach_ns,
                enum_reach_ns,
                equivalent,
                reachable,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E13 — in-dataplane enforcement (Fig. 3's verify unit, UC3 in-network)
// ---------------------------------------------------------------------

/// One row of the in-network enforcement experiment.
#[derive(Debug)]
pub struct EnforceRow {
    /// Enforcement on?
    pub enforce: bool,
    /// Legitimate packets delivered to the victim.
    pub legit_delivered: u64,
    /// Attack packets delivered to the victim.
    pub attack_delivered: u64,
    /// Packets dropped by the verify unit.
    pub enforcement_drops: u64,
}

/// E13: the UC3 DDoS scenario executed inside the simulator — an edge
/// switch's verify unit drops traffic lacking a valid ≥2-hop evidence
/// chain, with and without enforcement.
pub fn exp_enforcement(legit: u64, attack: u64) -> Vec<EnforceRow> {
    [false, true]
        .into_iter()
        .map(|enforce| {
            let mut s = pda_netsim::ddos::build(enforce);
            let out = s.run(legit, attack);
            EnforceRow {
                enforce,
                legit_delivered: out.legit_delivered,
                attack_delivered: out.attack_delivered,
                enforcement_drops: out.enforcement_drops,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E14 / UC4 — C2-scanner fidelity over a generated workload
// ---------------------------------------------------------------------

/// Result of the UC4 scanner experiment.
#[derive(Debug)]
pub struct Uc4Row {
    /// Flows in the workload.
    pub flows: u32,
    /// Flows carrying the beacon (ground truth).
    pub beacon_flows: usize,
    /// Beacon packets flagged by the dataplane scanner.
    pub flagged_packets: u64,
    /// Beacon packets present (ground truth).
    pub beacon_packets: u64,
    /// Audit-trail entries committed.
    pub audit_entries: usize,
    /// Scanner accuracy: flagged == present and nothing else flagged.
    pub exact: bool,
}

/// E14: generate a seeded workload with a known beacon fraction, run it
/// through the `c2scan_v1.p4` PERA switch, commit every flagged packet
/// to the audit trail, and compare against ground truth.
pub fn exp_uc4(flows: u32, beacon_percent: u32, seed: u64) -> Uc4Row {
    use pda_core::usecases::AuditTrail;
    use pda_netsim::traffic::{self, WorkloadSpec, BEACON};

    let spec = WorkloadSpec {
        flows,
        packets_per_flow: (1, 8),
        beacon_percent,
        ..WorkloadSpec::default()
    };
    let workload = traffic::generate(&spec, seed);
    let beacon_flows = workload.iter().filter(|f| f.payload == BEACON).count();
    let beacon_packets: u64 = workload
        .iter()
        .filter(|f| f.payload == BEACON)
        .map(|f| u64::from(f.packets))
        .sum();

    let beacon_sig = u64::from_be_bytes(BEACON);
    let mut sw = PeraSwitch::new(
        "scanner",
        "hw-edge",
        programs::c2_scanner(&[beacon_sig], 1, 7),
        PeraConfig::default()
            .with_details(&[DetailLevel::Program, DetailLevel::Packets])
            .with_sampling(Sampling::PerPacket),
    );
    let mut trail = AuditTrail::new();
    let mut flagged = 0u64;
    let mut prev = Digest::ZERO;
    for flow in &workload {
        for pkt in traffic::flow_packets(flow) {
            let out = sw
                .process_packet(&pkt, 0, Some((Nonce(4), prev)))
                .expect("parses");
            if out.forward.phv.get("meta.c2_hit") == 1 {
                flagged += 1;
                let record = out.evidence.expect("per-packet sampling");
                prev = record.chain;
                trail.append(&record, format!("beacon from {:#010x}", flow.src));
            } else if let Some(r) = out.evidence {
                prev = r.chain;
            }
        }
    }
    let audit_entries = if trail.is_empty() {
        0
    } else {
        trail.commit().entries
    };
    Uc4Row {
        flows,
        beacon_flows,
        flagged_packets: flagged,
        beacon_packets,
        audit_entries,
        exact: flagged == beacon_packets && audit_entries as u64 == flagged,
    }
}

// ---------------------------------------------------------------------
// E15 — evidence-path throughput (the per-packet hot path)
// ---------------------------------------------------------------------

/// One row of the evidence-path throughput experiment.
#[derive(Debug)]
pub struct E15Row {
    /// Variant label (scheme / sampling / cache).
    pub variant: String,
    /// Is this the seed-behaviour emulation (pre-fix hot path)?
    pub seed_emulation: bool,
    /// Evidence batch size (1 = per-record signing via `process_packet`;
    /// >1 = `process_batch` with one signature per batch).
    pub batch: u32,
    /// Packets pushed through `process_packet`.
    pub packets: u64,
    /// Throughput, packets per second (wall clock, single-threaded).
    pub pkts_per_sec: f64,
    /// Evidence records produced.
    pub records: u64,
    /// Digest computations actually performed (`PeraStats::measurements`).
    pub measurements: u64,
    /// Evidence-cache hit rate.
    pub hit_rate: f64,
}

fn e15_run(
    variant: &str,
    scheme: SigScheme,
    sampling: Sampling,
    cache: bool,
    seed_emulation: bool,
    pkts: &[Vec<u8>],
    tel: &Telemetry,
) -> E15Row {
    const DETAILS: [DetailLevel; 3] = [
        DetailLevel::Hardware,
        DetailLevel::Program,
        DetailLevel::Tables,
    ];
    let config = PeraConfig::default()
        .with_details(&DETAILS)
        .with_sampling(sampling)
        .with_cache(cache);
    let mut sw = PeraSwitch::new("sw", "hw", programs::forwarding(&[(0, 0, 1)]), config)
        .with_scheme(scheme, 12)
        .with_telemetry(tel.clone());
    let hw_id = sw.hardware_id.clone();

    let t0 = Instant::now();
    let mut prev = Digest::ZERO;
    for p in pkts {
        let before = if seed_emulation {
            // Pre-fix `process_packet` serialized the register file
            // unconditionally before the pipeline ran…
            Some(sw.regs.canonical_bytes())
        } else {
            None
        };
        let out = sw
            .process_packet(p, 0, Some((Nonce(1), prev)))
            .expect("parses");
        if let Some(before) = before {
            // …and again after, comparing digests to decide whether to
            // invalidate the ProgState cache line.
            let after = sw.regs.canonical_bytes();
            std::hint::black_box(Digest::of(&before) != Digest::of(&after));
            if out.evidence.is_some() {
                // Pre-fix `attest` also measured every detail level
                // eagerly and only then consulted the cache, so hits
                // saved nothing. Re-pay that cost per record.
                for level in DETAILS {
                    std::hint::black_box(match level {
                        DetailLevel::Hardware => Digest::of_parts(&[b"hw:", hw_id.as_bytes()]),
                        DetailLevel::Program => sw.program.digest(),
                        DetailLevel::Tables => sw.program.tables_digest(),
                        DetailLevel::LintVerdict => {
                            pda_analyze::analyze_default(&sw.program).verdict_digest()
                        }
                        DetailLevel::ProgState => Digest::of(&sw.regs.canonical_bytes()),
                        DetailLevel::Packets => Digest::of(&p[..]),
                    });
                }
            }
        }
        if let Some(r) = out.evidence {
            prev = r.chain;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    E15Row {
        variant: variant.into(),
        seed_emulation,
        batch: 1,
        packets: pkts.len() as u64,
        pkts_per_sec: pkts.len() as f64 / elapsed,
        records: sw.stats.records,
        measurements: sw.stats.measurements,
        hit_rate: sw.cache.stats.hit_rate(),
    }
}

/// The batch-amortized hot path: `process_batch` with `batch` records
/// per signature (Merkle root signature + per-record inclusion proofs).
/// Same detail set, same warm-cache steady state as [`e15_run`], so the
/// delta against the matching `batch == 1` row isolates signing
/// amortization.
fn e15_batch_run(
    variant: &str,
    scheme: SigScheme,
    sampling: Sampling,
    batch: u32,
    pkts: &[Vec<u8>],
    tel: &Telemetry,
) -> E15Row {
    let config = PeraConfig::default()
        .with_details(&[
            DetailLevel::Hardware,
            DetailLevel::Program,
            DetailLevel::Tables,
        ])
        .with_sampling(sampling)
        .with_batch(batch);
    let mut sw = PeraSwitch::new("sw", "hw", programs::forwarding(&[(0, 0, 1)]), config)
        .with_scheme(scheme, 12)
        .with_telemetry(tel.clone());

    let t0 = Instant::now();
    let out = sw.process_batch(pkts, 0, Some((Nonce(1), Digest::ZERO)));
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(out.forwards.iter().all(|f| f.is_ok()), "all packets parse");

    E15Row {
        variant: variant.into(),
        seed_emulation: false,
        batch,
        packets: pkts.len() as u64,
        pkts_per_sec: pkts.len() as f64 / elapsed,
        records: sw.stats.records,
        measurements: sw.stats.measurements,
        hit_rate: sw.cache.stats.hit_rate(),
    }
}

/// E15: packets/sec through `process_packet` across sampling × cache ×
/// scheme, plus an emulation of the seed hot path (evidence-cache
/// bypass + double register serialization) to quantify the fix.
///
/// The emulation re-pays the removed costs through public APIs — two
/// `Registers::canonical_bytes` serializations per packet and an eager
/// measurement of every detail level per record — so the speedup column
/// in the harness is regenerable from this crate alone.
///
/// The evidence hot path is instrumented into `tel` (per-stage pipeline
/// spans, `pera.attest` latency, cache audit trail).
pub fn exp_e15(packets: usize, tel: &Telemetry) -> Vec<E15Row> {
    let pkts = pipeline_packets(packets);
    vec![
        e15_run(
            "seed-emulated hmac / per-packet / cache",
            SigScheme::Hmac,
            Sampling::PerPacket,
            true,
            true,
            &pkts,
            tel,
        ),
        e15_run(
            "hmac / per-packet / cache",
            SigScheme::Hmac,
            Sampling::PerPacket,
            true,
            false,
            &pkts,
            tel,
        ),
        e15_run(
            "hmac / per-packet / no-cache",
            SigScheme::Hmac,
            Sampling::PerPacket,
            false,
            false,
            &pkts,
            tel,
        ),
        e15_run(
            "hmac / every-100 / cache",
            SigScheme::Hmac,
            Sampling::EveryN(100),
            true,
            false,
            &pkts,
            tel,
        ),
        e15_run(
            "hmac / every-100 / no-cache",
            SigScheme::Hmac,
            Sampling::EveryN(100),
            false,
            false,
            &pkts,
            tel,
        ),
        e15_run(
            "lamport / every-100 / cache",
            SigScheme::LamportOts,
            Sampling::EveryN(100),
            true,
            false,
            &pkts,
            tel,
        ),
        e15_run(
            "merkle / every-100 / cache",
            SigScheme::MerkleMss,
            Sampling::EveryN(100),
            true,
            false,
            &pkts,
            tel,
        ),
        // The batch-signing tentpole rows: per-packet *signed* evidence
        // with one signature per 32 records. The lamport pair (batch 1
        // vs batch 32) is the headline delta — per-record OTS signing
        // dominates the unbatched row, and the Merkle commit amortizes
        // it away. (No unbatched merkle/per-packet row: 10k records
        // would exhaust a height-12 MSS key tree; batch 32 needs only
        // ⌈10k/32⌉ = 313 of its 4096 keys.)
        e15_run(
            "lamport / per-packet / cache",
            SigScheme::LamportOts,
            Sampling::PerPacket,
            true,
            false,
            &pkts,
            tel,
        ),
        e15_batch_run(
            "lamport / per-packet / cache / batch-32",
            SigScheme::LamportOts,
            Sampling::PerPacket,
            32,
            &pkts,
            tel,
        ),
        e15_batch_run(
            "merkle / per-packet / cache / batch-32",
            SigScheme::MerkleMss,
            Sampling::PerPacket,
            32,
            &pkts,
            tel,
        ),
        e15_batch_run(
            "hmac / per-packet / cache / batch-32",
            SigScheme::Hmac,
            Sampling::PerPacket,
            32,
            &pkts,
            tel,
        ),
    ]
}

// ---------------------------------------------------------------------
// E16 — attestation under loss: fault plane × retry budget × fail mode
// ---------------------------------------------------------------------

/// One row of the E16 degradation sweep.
#[derive(Debug)]
pub struct E16Row {
    /// Loss probability applied to every data link *and* the
    /// out-of-band control channel.
    pub loss: f64,
    /// Control-channel retransmit budget (0 = fire-and-forget).
    pub retry_budget: u32,
    /// Enforcement degradation mode at the last switch.
    pub fail_mode: FailMode,
    /// Packets injected (half in-band attested, half plain).
    pub injected: u64,
    /// Fraction of control-channel evidence pushes that reached the
    /// appraiser (after retransmits).
    pub completeness: f64,
    /// Control-channel retransmissions performed.
    pub retransmits: u64,
    /// Fraction of injected packets delivered at the server.
    pub goodput: f64,
    /// Fraction of injected packets dropped by enforcement even though
    /// they were legitimate (no forged traffic exists in this sweep).
    pub false_drop_rate: f64,
    /// Admissions granted only because the policy failed open.
    pub fail_open_admits: u64,
}

fn e16_run(loss: f64, retry: ControlRetryPolicy, fail_mode: FailMode, tel: &Telemetry) -> E16Row {
    const PACKETS: u64 = 400;
    let cfg = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let mut lp = linear_path(3, &cfg, &[]);
    lp.sim.attach_telemetry(tel.clone());
    let edge = lp.switches[2];
    lp.sim.install_enforcement(
        edge,
        AdmissionPolicy {
            fail_mode,
            ..AdmissionPolicy::default()
        },
    );
    lp.sim.install_faults(
        FaultPlan::new(0xE16)
            .with_default_link(LinkFaults::lossy(loss))
            .with_control_loss(loss)
            .with_control_retry(retry),
    );
    let appraiser = lp.appraiser;
    // Legitimate mix: half the traffic attests in-band (the enforcement
    // point can inspect its chain), half attests out-of-band (evidence
    // bypasses the data path, so the chain the enforcer sees is empty —
    // exactly the loss-vs-absence ambiguity the fail mode arbitrates).
    for i in 0..PACKETS {
        let mode = if i % 2 == 0 {
            EvidenceMode::InBand
        } else {
            EvidenceMode::OutOfBand { appraiser }
        };
        lp.send_attested(Nonce(i + 1), mode, b"payload!");
    }
    let fstats = lp.sim.faults.as_ref().unwrap().stats;
    let collected = lp.sim.evidence_at(appraiser).len() as u64;
    let attempts = collected + fstats.control_gave_up;
    let unit = &lp.sim.enforcement[&edge];
    E16Row {
        loss,
        retry_budget: retry.max_retries,
        fail_mode,
        injected: lp.sim.stats.injected,
        completeness: if attempts == 0 {
            1.0
        } else {
            collected as f64 / attempts as f64
        },
        retransmits: fstats.control_retransmits,
        goodput: lp.sim.stats.delivered as f64 / lp.sim.stats.injected as f64,
        false_drop_rate: lp.sim.stats.enforcement_drops as f64 / lp.sim.stats.injected as f64,
        fail_open_admits: unit.stats.fail_open_admits,
    }
}

/// E16: degradation sweep — loss rate × control-channel retry budget ×
/// enforcement fail mode over a 3-switch PERA path. Reports out-of-band
/// appraisal completeness (the ≥99%-at-≤10%-loss acceptance bar lives
/// here), goodput, and the enforcement false-drop rate: every drop in
/// this sweep is a false one, since no forged traffic is injected.
/// Netsim and enforcement telemetry (fault gauges, `pera.enforce.*`
/// counters, enforcement audit records) land in `tel`.
pub fn exp_e16(tel: &Telemetry) -> Vec<E16Row> {
    let mut rows = Vec::new();
    for &loss in &[0.0, 0.05, 0.10, 0.20] {
        for retry in [ControlRetryPolicy::none(), ControlRetryPolicy::default()] {
            for fail_mode in [FailMode::FailClosed, FailMode::FailOpen] {
                rows.push(e16_run(loss, retry, fail_mode, tel));
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// E17 — static appraisal: rogue/benign separation without hash lists
// ---------------------------------------------------------------------

/// One row of the E17 static-analysis sweep.
#[derive(Debug)]
pub struct E17Row {
    /// Builtin program name (corpus key, not the claimed `.p4` name).
    pub builtin: &'static str,
    /// Ground truth: is this one of the rogue variants?
    pub rogue: bool,
    /// Info-severity diagnostics.
    pub info: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Error-severity diagnostics.
    pub errors: usize,
    /// Verdict of `RequireLintClean { max_severity: Warning }` — the
    /// hash-free appraisal that must equal `!rogue` for separation.
    pub lint_clean_ok: bool,
    /// Mean wall-clock time of one full analysis run.
    pub analysis_ns: u64,
}

/// E17: run the `pda-analyze` static analyzer over every builtin
/// program and appraise each with `RequireLintClean(Warning)`. The
/// point of the experiment: both rogue variants are rejected and every
/// benign program passes **with zero hash-list maintenance** — the
/// analyzer never saw a blacklist, only the program itself. Also
/// reports per-program analysis latency (it runs off the hot path, at
/// `LintVerdict` cache-fill time). Every appraisal verdict is recorded
/// in `tel`'s audit log and `ra.*` counters.
pub fn exp_e17(tel: &Telemetry) -> Vec<E17Row> {
    use pda_analyze::{analyze_default, corpus, Severity};
    let env = Environment::new().with_telemetry(tel.clone());
    let policy = pda_ra::RequireLintClean::new(Severity::Warning);
    corpus::builtins()
        .into_iter()
        .map(|(builtin, program, rogue)| {
            const REPS: u32 = 16;
            let start = Instant::now();
            let mut report = analyze_default(&program);
            for _ in 1..REPS {
                report = analyze_default(&program);
            }
            let analysis_ns = (start.elapsed().as_nanos() / u128::from(REPS)) as u64;
            let verdict = policy.appraise_program(&env, "bench-switch", &program, None);
            E17Row {
                builtin,
                rogue,
                info: report.count(Severity::Info),
                warnings: report.count(Severity::Warning),
                errors: report.count(Severity::Error),
                lint_clean_ok: verdict.result.ok,
                analysis_ns,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E18 — the appraisal service under churn (pda-svc, live TCP)
// ---------------------------------------------------------------------

/// One row of the E18 service-under-churn experiment.
#[derive(Debug)]
pub struct E18Row {
    /// Scenario label (`majority/clean`, `2-of-3/churn+corrupt`, …).
    pub variant: String,
    /// Quorum rule in force.
    pub quorum: String,
    /// Whether one appraiser's golden store was deliberately poisoned.
    pub corrupt_appraiser: bool,
    /// Churn epochs driven (each one a fleet restart).
    pub epochs: usize,
    /// Appraisals completed through the live service.
    pub appraisals: u64,
    /// Quorum accepted / rejected.
    pub accepted: u64,
    /// Quorum rejections.
    pub rejected: u64,
    /// Verdicts matching ground truth (rogue reloads rejected,
    /// clean complete chains accepted).
    pub correct: u64,
    /// Epochs where a switch restarted with a rogue program.
    pub rogue_epochs: usize,
    /// Rogue-epoch appraisals correctly rejected.
    pub rogue_detected: u64,
    /// Individual appraiser verdicts that disagreed with the quorum
    /// (from the service's `svc.dissent` counter).
    pub dissent: u64,
    /// Sustained verdict throughput through the live API.
    pub appraisals_per_sec: f64,
    /// Client-observed verdict latency, 50th percentile (ns).
    pub p50_ns: u64,
    /// Client-observed verdict latency, 99th percentile (ns).
    pub p99_ns: u64,
}

/// E18: boot the `pda-svc` appraisal service on a loopback port and
/// stream churn-driven continuous attestation through it over real
/// TCP — fleet restarts every epoch, lossy links, control-channel loss
/// with retries, switch-down windows, periodic rogue program reloads.
/// Three scenarios: a clean majority-quorum baseline, the same
/// federation under full churn, and a 2-of-3 quorum with one appraiser
/// deliberately corrupted (its dissent must stay visible while the
/// quorum out-votes it).
///
/// `tel` is shared by the service *and* every epoch's fleet: one
/// subscriber sees the whole evidence lifecycle (switch attest spans,
/// channel send/retry events, per-appraiser and quorum spans), all
/// joined by nonce-derived trace ids.
pub fn exp_e18(tel: &Telemetry) -> Vec<E18Row> {
    use pda_svc::{run_churn_with, AppraisalService, ChurnConfig, Quorum, SvcClient, SvcConfig};
    use std::sync::Arc;

    let clean = ChurnConfig {
        epochs: 6,
        packets_per_epoch: 25,
        link_loss: 0.0,
        control_loss: 0.0,
        rogue_every: 0,
        switch_down: false,
        ..ChurnConfig::default()
    };
    let churn = ChurnConfig {
        epochs: 6,
        packets_per_epoch: 25,
        link_loss: 0.05,
        control_loss: 0.2,
        rogue_every: 3,
        switch_down: true,
        ..ChurnConfig::default()
    };
    let scenarios = [
        ("majority/clean", Quorum::Majority, false, clean),
        ("majority/churn", Quorum::Majority, false, churn.clone()),
        ("2-of-3/churn+corrupt", Quorum::KOfN(2), true, churn),
    ];

    scenarios
        .into_iter()
        .map(|(variant, quorum, corrupt, churn_cfg)| {
            // Share the harness handle when instrumented; scenarios
            // then accumulate into one registry, so the per-scenario
            // dissent figure is a before/after delta.
            let svc_tel = if tel.enabled() {
                tel.clone()
            } else {
                Telemetry::collecting()
            };
            let dissent_at = |t: &Telemetry| {
                t.registry()
                    .map(|r| r.counter("svc.dissent").get())
                    .unwrap_or(0)
            };
            let dissent_before = dissent_at(&svc_tel);
            let svc = Arc::new(AppraisalService::new(
                SvcConfig {
                    quorum,
                    corrupt,
                    ..SvcConfig::default()
                },
                svc_tel.clone(),
            ));
            let mut server =
                pda_svc::serve("127.0.0.1:0", 4, Arc::clone(&svc)).expect("bind loopback");
            let client = SvcClient::new(server.addr);
            let report = run_churn_with(&client, &churn_cfg, tel).expect("churn run completes");
            let dissent = dissent_at(&svc_tel) - dissent_before;
            server.stop();
            E18Row {
                variant: variant.to_string(),
                quorum: quorum.to_string(),
                corrupt_appraiser: corrupt,
                epochs: report.epochs,
                appraisals: report.appraisals,
                accepted: report.accepted,
                rejected: report.rejected,
                correct: report.correct,
                rogue_epochs: report.rogue_epochs,
                rogue_detected: report.rogue_detected,
                dissent,
                appraisals_per_sec: report.appraisals_per_sec,
                p50_ns: report.p50_ns,
                p99_ns: report.p99_ns,
            }
        })
        .collect()
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One cell of the E18 connection-plane sweep.
#[derive(Debug)]
pub struct E18SweepRow {
    /// Cell label (`keep-alive/w4`, `close/w1`, …).
    pub variant: String,
    /// Whether the client kept connections alive (server always
    /// negotiates; a `Connection: close` client forces one connection
    /// per RPC — the pre-keep-alive behavior).
    pub keep_alive: bool,
    /// Server worker threads.
    pub workers: usize,
    /// Appraise RPCs timed.
    pub verdicts: u64,
    /// Sustained verdict throughput over live TCP.
    pub verdicts_per_sec: f64,
    /// Client-observed verdict latency, 50th percentile (ns).
    pub p50_ns: u64,
    /// Client-observed verdict latency, 99th percentile (ns).
    pub p99_ns: u64,
    /// Connections the pooled client reused instead of re-dialing.
    pub client_reuses: u64,
}

/// E18 sweep: verdicts/sec through the live service as a function of
/// connection persistence × server worker count. Evidence for a batch
/// of nonces is submitted once; the timed loop is pure appraise RPCs
/// against a single-appraiser federation (so verdict compute stays
/// small and the per-call connection cost is the visible quantity).
/// The delta between rows is then the connection plane itself — TCP
/// dial + accept + worker handoff per call (close mode) vs a pooled
/// socket that only pays per-request work (keep-alive).
pub fn exp_e18_sweep() -> Vec<E18SweepRow> {
    use pda_svc::{AppraisalService, ServeOptions, SvcClient, SvcConfig};
    use std::sync::Arc;

    const NONCES: u64 = 16;
    const VERDICTS: u64 = 3000;
    /// Timed repeats per cell; the fastest is kept. Each repeat is
    /// tens of milliseconds, and max-of-k is a far better estimator of
    /// the machine's true rate under scheduler noise than one draw.
    const REPEATS: usize = 5;

    // One fleet run's evidence, shared by every cell: the workload is
    // the RPC plane, not evidence generation — so the chain is kept
    // short (2 hops) for the same reason the federation is kept to one
    // appraiser.
    let mut fleet = pda_svc::fleet::standard_fleet(2);
    let appraiser = fleet.appraiser;
    for i in 0..NONCES {
        fleet.send_attested(
            Nonce(1 + i),
            EvidenceMode::OutOfBand { appraiser },
            b"sweep!",
        );
    }
    let records = fleet.sim.evidence_at(appraiser).to_vec();

    [(false, 1), (true, 1), (false, 4), (true, 4)]
        .into_iter()
        .map(|(keep_alive, workers)| {
            let svc = Arc::new(AppraisalService::new(
                SvcConfig {
                    hops: 2,
                    appraisers: 1,
                    ..SvcConfig::default()
                },
                Telemetry::off(),
            ));
            let options = if keep_alive {
                ServeOptions::default()
            } else {
                ServeOptions::closing()
            };
            let mut server = pda_svc::serve_with("127.0.0.1:0", workers, Arc::clone(&svc), options)
                .expect("bind loopback");
            let client = SvcClient::new(server.addr).with_keep_alive(keep_alive);
            client
                .submit_evidence(&records)
                .expect("evidence submission");
            // Warm the pool / page in the appraisal path off the clock
            // — and assert the loop measures real accepted verdicts.
            for n in 0..NONCES.min(4) {
                let verdict = client.appraise(1 + n).expect("warmup appraise");
                assert_eq!(
                    verdict
                        .get("ok")
                        .and_then(pda_telemetry::json::Json::as_bool),
                    Some(true),
                    "sweep evidence must appraise clean"
                );
            }
            let mut best_elapsed_ns = u64::MAX;
            let mut latencies = Vec::with_capacity(VERDICTS as usize);
            for _ in 0..REPEATS {
                let mut run_latencies = Vec::with_capacity(VERDICTS as usize);
                let start = Instant::now();
                for i in 0..VERDICTS {
                    let call = Instant::now();
                    client.appraise(1 + i % NONCES).expect("appraise");
                    run_latencies.push(call.elapsed().as_nanos() as u64);
                }
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                if elapsed_ns < best_elapsed_ns {
                    best_elapsed_ns = elapsed_ns;
                    latencies = run_latencies;
                }
            }
            server.stop();
            latencies.sort_unstable();
            E18SweepRow {
                variant: format!(
                    "{}/w{workers}",
                    if keep_alive { "keep-alive" } else { "close" }
                ),
                keep_alive,
                workers,
                verdicts: VERDICTS,
                verdicts_per_sec: VERDICTS as f64 * 1e9 / best_elapsed_ns as f64,
                p50_ns: percentile(&latencies, 0.50),
                p99_ns: percentile(&latencies, 0.99),
                client_reuses: client.reused_connections(),
            }
        })
        .collect()
}
