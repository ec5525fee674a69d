//! Batch ≡ per-packet equivalence: a batch-signed run must appraise
//! exactly like a per-packet run. Across random batch sizes, sampling
//! modes, programs (a stateless forwarder and a register-writing flow
//! monitor), and evidence loss, the two paths must produce the same
//! forwarding results, the same chain digests, the same appraisal
//! verdicts, and the same audit-log event sequences — differing only in
//! the signature *kind* (`batch(hmac)` vs `hmac`) and the amortized
//! signature byte counts.

use pda_crypto::digest::Digest;
use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
use pda_crypto::nonce::Nonce;
use pda_dataplane::parser::build_udp_packet;
use pda_dataplane::{programs, DataplaneProgram};
use pda_pera::config::{DetailLevel, PeraConfig, Sampling};
use pda_pera::{assemble_chain, verify_chain, EvidenceRecord, PeraSwitch};
use pda_telemetry::{AuditEvent, Telemetry, TraceCtx};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

const NONCE: Nonce = Nonce(7);

fn sampling_from(mode: u8) -> Sampling {
    match mode % 5 {
        0 => Sampling::PerPacket,
        1 => Sampling::EveryN(3),
        2 => Sampling::PerFlow,
        3 => Sampling::PerEpoch(5),
        _ => Sampling::PerFlowEpoch(7),
    }
}

/// A deterministic 24-packet stream over 6 flows, scrambled by `seed`.
fn packet_stream(seed: u64) -> Vec<Vec<u8>> {
    (0..24u64)
        .map(|i| {
            let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i);
            let flow = (x % 6) as u32;
            build_udp_packet(0xa, 0xb, flow, 0x0a000001, 1000, 53, b"payload!")
        })
        .collect()
}

/// The stateless forwarder, or the flow monitor, which writes a
/// register on every packet (so ProgState changes between records).
fn program(monitor: bool) -> DataplaneProgram {
    if monitor {
        programs::flow_monitor(8, 1)
    } else {
        programs::forwarding(&[(0, 0, 1)])
    }
}

fn fresh_switch(cfg: &PeraConfig, monitor: bool, tel: &Telemetry) -> PeraSwitch {
    PeraSwitch::new("sw1", "tofino-sim-1", program(monitor), cfg.clone())
        .with_telemetry(tel.clone())
}

struct Run {
    egress: Vec<u64>,
    evidence: Vec<EvidenceRecord>,
    stats: pda_pera::PeraStats,
    audit: Vec<pda_telemetry::AuditRecord>,
    /// `(name, trace context)` of every traced span event, in
    /// emission order — the run's trace tree.
    trace_tree: Vec<(String, TraceCtx)>,
    key: pda_crypto::sig::VerifyKey,
}

/// The trace-identity skeleton of a run's span events: timing and
/// free-form fields stripped, causal identity kept.
fn trace_tree(ring: &pda_telemetry::MemorySubscriber) -> Vec<(String, TraceCtx)> {
    ring.events()
        .into_iter()
        .filter_map(|e| Some((e.name, e.trace?)))
        .collect()
}

fn run_per_packet(cfg: &PeraConfig, monitor: bool, packets: &[Vec<u8>]) -> Run {
    let (tel, ring) = Telemetry::in_memory(256);
    let mut sw = fresh_switch(cfg, monitor, &tel);
    let key = sw.verify_key(0);
    let mut prev = Digest::ZERO;
    let mut egress = Vec::new();
    let mut evidence = Vec::new();
    for p in packets {
        let out = sw.process_packet(p, 0, Some((NONCE, prev))).unwrap();
        egress.push(out.forward.egress_port);
        if let Some(r) = out.evidence {
            prev = r.chain;
            evidence.push(r);
        }
    }
    Run {
        egress,
        evidence,
        stats: sw.stats,
        audit: tel.audit_log().unwrap().records(),
        trace_tree: trace_tree(&ring),
        key,
    }
}

fn run_batched(cfg: &PeraConfig, monitor: bool, packets: &[Vec<u8>]) -> Run {
    let (tel, ring) = Telemetry::in_memory(256);
    let mut sw = fresh_switch(cfg, monitor, &tel);
    let key = sw.verify_key(0);
    let out = sw.process_batch(packets, 0, Some((NONCE, Digest::ZERO)));
    Run {
        egress: out
            .forwards
            .iter()
            .map(|f| f.as_ref().unwrap().egress_port)
            .collect(),
        evidence: out.evidence,
        stats: sw.stats,
        audit: tel.audit_log().unwrap().records(),
        trace_tree: trace_tree(&ring),
        key,
    }
}

/// Appraise a run's evidence after dropping the records whose index bit
/// is set in `loss` — the out-of-band delivery loss a lossy control
/// plane would inflict. Returns everything verdict-relevant.
fn appraise(run: &Run, loss: u64) -> (usize, usize, Result<(), Vec<pda_pera::ChainFailure>>) {
    let mut reg = KeyRegistry::new();
    reg.register(PrincipalId::new("sw1"), run.key.clone());
    let delivered: Vec<EvidenceRecord> = run
        .evidence
        .iter()
        .enumerate()
        .filter(|(i, _)| loss & (1 << (i % 64)) == 0)
        .map(|(_, r)| r.clone())
        .collect();
    let (ordered, orphans) = assemble_chain(delivered);
    let verdict = verify_chain(&ordered, &reg, NONCE, true);
    (ordered.len(), orphans.len(), verdict)
}

/// Audit events of one type, in log order.
fn events<'a>(
    run: &'a Run,
    keep: impl Fn(&AuditEvent) -> bool + 'a,
) -> impl Iterator<Item = &'a AuditEvent> {
    run.audit.iter().map(|r| &r.event).filter(move |e| keep(e))
}

/// Run `packets` per-packet and batched under `batch`, sampling `mode`
/// and the chosen program, and check every equivalence.
fn check_equivalent(seed: u64, batch: u32, mode: u8, monitor: bool, loss: u64) -> TestCaseResult {
    let cfg = PeraConfig::default()
        .with_sampling(sampling_from(mode))
        .with_details(&[
            DetailLevel::Hardware,
            DetailLevel::Program,
            DetailLevel::ProgState,
            DetailLevel::Packets,
        ])
        .with_batch(batch);
    let packets = packet_stream(seed);
    let single = run_per_packet(&cfg, monitor, &packets);
    let batched = run_batched(&cfg, monitor, &packets);

    // Forwarding is untouched by evidence batching.
    prop_assert_eq!(&single.egress, &batched.egress);

    // Same records, same chain linkage — only signatures differ.
    prop_assert_eq!(single.evidence.len(), batched.evidence.len());
    for (a, b) in single.evidence.iter().zip(&batched.evidence) {
        prop_assert_eq!(a.chain, b.chain);
        prop_assert_eq!(a.prev, b.prev);
        prop_assert_eq!(&a.details, &b.details);
    }

    // Stats agree wherever batching is not *supposed* to differ:
    // signature ops are amortized and evidence bytes shrink, but
    // packet/record/measurement accounting is identical.
    prop_assert_eq!(single.stats.packets, batched.stats.packets);
    prop_assert_eq!(
        single.stats.attested_packets,
        batched.stats.attested_packets
    );
    prop_assert_eq!(single.stats.records, batched.stats.records);
    prop_assert_eq!(single.stats.measurements, batched.stats.measurements);
    // Signature ops amortize; bytes need not shrink under HMAC
    // (the inclusion proof outweighs a 32-byte MAC — the byte win
    // is for Lamport/Merkle, covered by the E15 bench).
    prop_assert!(batched.stats.signatures <= single.stats.signatures);

    // Audit equivalence. Cache lookups are bit-identical…
    let single_lookups: Vec<_> =
        events(&single, |e| matches!(e, AuditEvent::CacheLookup { .. })).collect();
    let batched_lookups: Vec<_> =
        events(&batched, |e| matches!(e, AuditEvent::CacheLookup { .. })).collect();
    prop_assert_eq!(single_lookups, batched_lookups);

    // …evidence events agree modulo the amortized byte count…
    let evidence_key = |e: &AuditEvent| match e {
        AuditEvent::Evidence {
            attester,
            nonce,
            levels,
            chained,
            ..
        } => (attester.clone(), *nonce, levels.clone(), *chained),
        _ => unreachable!(),
    };
    let single_evidence: Vec<_> = events(&single, |e| matches!(e, AuditEvent::Evidence { .. }))
        .map(evidence_key)
        .collect();
    let batched_evidence: Vec<_> = events(&batched, |e| matches!(e, AuditEvent::Evidence { .. }))
        .map(evidence_key)
        .collect();
    prop_assert_eq!(single_evidence, batched_evidence);

    // …and signature events agree modulo kind: one per record in
    // both runs, batch leaves labelled as such.
    let sig_schemes: Vec<String> = events(&batched, |e| matches!(e, AuditEvent::Signature { .. }))
        .map(|e| match e {
            AuditEvent::Signature { scheme, .. } => scheme.clone(),
            _ => unreachable!(),
        })
        .collect();
    prop_assert_eq!(sig_schemes.len() as u64, batched.stats.records);
    for s in &sig_schemes {
        prop_assert!(s == "hmac" || s == "batch(hmac)", "unexpected scheme {}", s);
    }

    // The trace tree is identical too: span ids derive from
    // (trace, switch, attested-packet index), and the batch path
    // counts attested packets exactly like the per-packet path, so
    // both runs stamp the same spans in the same causal order.
    prop_assert!(!single.trace_tree.is_empty(), "attest spans were stamped");
    prop_assert_eq!(&single.trace_tree, &batched.trace_tree);

    // The appraisal verdict — including under evidence loss — is
    // identical: same reassembly shape, same verify_chain result.
    prop_assert_eq!(appraise(&single, 0), appraise(&batched, 0));
    prop_assert_eq!(appraise(&single, loss), appraise(&batched, loss));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_signed_run_appraises_identically(
        seed in any::<u64>(),
        batch in 1u32..=33,
        mode in 0u8..5,
        monitor in any::<bool>(),
        loss in any::<u64>(),
    ) {
        check_equivalent(seed, batch, mode, monitor, loss)?;
    }
}

/// Every batch size from 1 to 33 (one chunk up to past the 24-packet
/// stream), for both programs and every sampling mode.
#[test]
fn equivalent_at_every_batch_size_for_both_programs() {
    for monitor in [false, true] {
        for batch in 1..=33 {
            for mode in 0..5 {
                let verdict = check_equivalent(0x5eed, batch, mode, monitor, 0b1010);
                assert!(
                    verdict.is_ok(),
                    "monitor={monitor} batch={batch} mode={mode}: {verdict:?}"
                );
            }
        }
    }
}
