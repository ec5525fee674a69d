//! End-to-end integration tests spanning every crate: the full
//! author-policy → resolve → execute-on-network → appraise flow, plus
//! failure injection at each layer.

use pda_core::prelude::*;
use pda_dataplane::programs;
use pda_netsim::DeviceKind;
use pda_pera::evidence::ChainFailure;

fn per_packet() -> PeraConfig {
    PeraConfig::default()
        .with_details(&[DetailLevel::Hardware, DetailLevel::Program])
        .with_sampling(Sampling::PerPacket)
}

#[test]
fn uc1_end_to_end_clean_and_attacked() {
    let mut net = linear_path(5, &per_packet(), &[]);
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);

    // Clean run.
    net.send_attested(Nonce(1), EvidenceMode::InBand, b"payload!");
    let chain = net.server_chains()[0].chain.clone();
    assert_eq!(
        uc1_configuration_assurance(&chain, &net.sim.registry, &golden, Nonce(1)),
        Ok(5)
    );

    // Swap sw3's program for the wiretap.
    let sw3 = net.sim.topo.by_name("sw3").unwrap();
    if let DeviceKind::Pera(sw) = &mut net.sim.topo.nodes[sw3].kind {
        sw.load_program(programs::rogue_wiretap(&[(0, 0, 1)], &[0x0a00_0001], 31));
    }
    net.send_attested(Nonce(2), EvidenceMode::InBand, b"payload!");
    let chain = net.server_chains()[1].chain.clone();
    let failures =
        uc1_configuration_assurance(&chain, &net.sim.registry, &golden, Nonce(2)).unwrap_err();
    // Exactly one mismatch, on sw3's Program level.
    let mismatches: Vec<_> = failures
        .iter()
        .filter_map(|f| match f {
            ChainFailure::ValueMismatch { switch, level, .. } => Some((switch.as_str(), *level)),
            _ => None,
        })
        .collect();
    assert_eq!(mismatches, vec![("sw3", DetailLevel::Program)]);
}

#[test]
fn out_of_band_and_in_band_collect_identical_detail_digests() {
    let appraiser_records = {
        let mut net = linear_path(3, &per_packet(), &[]);
        let appraiser = net.appraiser;
        net.send_attested(Nonce(9), EvidenceMode::OutOfBand { appraiser }, b"payload!");
        net.sim.evidence_at(appraiser).to_vec()
    };
    let in_band_records = {
        let mut net = linear_path(3, &per_packet(), &[]);
        net.send_attested(Nonce(9), EvidenceMode::InBand, b"payload!");
        net.server_chains()[0].chain.clone()
    };
    assert_eq!(appraiser_records.len(), in_band_records.len());
    for (a, b) in appraiser_records.iter().zip(&in_band_records) {
        assert_eq!(a.switch, b.switch);
        assert_eq!(a.details, b.details);
        assert_eq!(a.chain, b.chain, "same chain values either way");
    }
}

#[test]
fn in_band_bytes_exceed_out_of_band_packet_bytes() {
    let mut inband = linear_path(4, &per_packet(), &[]);
    inband.send_attested(Nonce(1), EvidenceMode::InBand, b"payload!");
    let mut oob = linear_path(4, &per_packet(), &[]);
    let appraiser = oob.appraiser;
    oob.send_attested(Nonce(1), EvidenceMode::OutOfBand { appraiser }, b"payload!");
    assert!(
        inband.sim.stats.wire_bytes > oob.sim.stats.wire_bytes,
        "in-band inflates data-plane bytes: {} vs {}",
        inband.sim.stats.wire_bytes,
        oob.sim.stats.wire_bytes
    );
    assert_eq!(inband.sim.stats.control_messages, 0);
    assert_eq!(oob.sim.stats.control_messages, 4);
}

#[test]
fn replayed_chain_rejected_under_new_nonce() {
    let mut net = linear_path(3, &per_packet(), &[]);
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
    net.send_attested(Nonce(10), EvidenceMode::InBand, b"payload!");
    let chain = net.server_chains()[0].chain.clone();
    // Fresh appraisal passes; replay under nonce 11 fails on every record.
    assert!(appraise_chain(&chain, &net.sim.registry, &golden, Nonce(10), true).is_ok());
    let errs = appraise_chain(&chain, &net.sim.registry, &golden, Nonce(11), true).unwrap_err();
    let nonce_failures = errs
        .iter()
        .filter(|f| matches!(f, ChainFailure::WrongNonce { .. }))
        .count();
    assert_eq!(nonce_failures, 3);
}

#[test]
fn evidence_chain_robust_to_mixed_legacy_hops() {
    for legacy in [vec![0], vec![1], vec![0, 2], vec![1, 3]] {
        let mut net = linear_path(5, &per_packet(), &legacy);
        let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
        net.send_attested(Nonce(3), EvidenceMode::InBand, b"payload!");
        let chain = net.server_chains()[0].chain.clone();
        assert_eq!(chain.len(), 5 - legacy.len());
        assert!(
            appraise_chain(&chain, &net.sim.registry, &golden, Nonce(3), true).is_ok(),
            "legacy at {legacy:?}"
        );
    }
}

#[test]
fn per_flow_sampling_amortizes_evidence() {
    let config = per_packet().with_sampling(Sampling::PerFlow);
    let mut net = linear_path(3, &config, &[]);
    // 10 packets of the same flow: only the first is attested.
    for _ in 0..10 {
        net.send_attested(Nonce(4), EvidenceMode::InBand, b"sameflow");
    }
    let attested: usize = net
        .server_chains()
        .iter()
        .filter(|c| !c.chain.is_empty())
        .count();
    assert_eq!(attested, 1, "only the first packet of the flow attests");
    assert_eq!(net.sim.stats.delivered, 10, "all packets still delivered");
}

#[test]
fn hybrid_policy_resolved_against_simulated_topology() {
    use pda_hybrid::parser::parse_hybrid;
    // Build the network, derive the path view from the topology, resolve
    // AP1 onto it, and check directives target real devices.
    let net = linear_path(3, &per_packet(), &[1]);
    let path_ids = net.sim.topo.trace_path(net.client, 1, 16);
    let view: Vec<NodeInfo> = path_ids
        .iter()
        .map(|&id| {
            let node = &net.sim.topo.nodes[id];
            match &node.kind {
                DeviceKind::Pera(_) => NodeInfo::pera(node.name.clone()),
                _ if node.name == "server" => NodeInfo::pera(node.name.clone()),
                _ => NodeInfo::legacy(node.name.clone()),
            }
        })
        .skip(1) // drop the client itself
        .collect();
    let ap1 = parse_hybrid(
        "*bank<n, X> : forall hop, client : \
         (@hop [K |> attest(n, X) -> !] -+> @Appraiser [appraise -> store(n)]) \
         *=> @client [K |> !]",
    )
    .unwrap();
    let resolved = resolve(
        &ap1,
        &view,
        &[("n", "5"), ("X", "prog")],
        Composition::Chained,
    )
    .unwrap();
    assert_eq!(resolved.bindings["client"], "server");
    assert_eq!(resolved.skipped, vec!["sw2".to_string()]);
    let attesting: Vec<&str> = resolved
        .directives
        .iter()
        .map(|d| d.node.as_str())
        .filter(|n| n.starts_with("sw"))
        .collect();
    assert_eq!(attesting, vec!["sw1", "sw3"]);
}

#[test]
fn wire_policy_survives_network_transit() {
    use pda_hybrid::wire;
    // Encode a resolved policy, "transmit" it, decode at a switch.
    let ap2 = pda_hybrid::ast::table1::ap2();
    let resolved = resolve(&ap2, &[], &[("P", "c2")], Composition::Chained).unwrap();
    let policy = wire::WirePolicy {
        nonce: 77,
        flags: wire::Flags {
            in_band_evidence: true,
        },
        directives: resolved.directives.clone(),
    };
    let bytes = wire::encode(&policy);
    let decoded = wire::decode(&bytes).unwrap();
    assert_eq!(decoded.directives, resolved.directives);
    assert_eq!(decoded.nonce, 77);
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let run = || {
        let mut net = linear_path(4, &per_packet(), &[2]);
        for i in 0..8u64 {
            net.send_attested(Nonce(i), EvidenceMode::InBand, b"payload!");
        }
        let chains: Vec<_> = net
            .server_chains()
            .iter()
            .map(|c| c.chain.iter().map(|r| r.chain).collect::<Vec<_>>())
            .collect();
        (net.sim.stats, chains)
    };
    let (s1, c1) = run();
    let (s2, c2) = run();
    assert_eq!(s1, s2);
    assert_eq!(c1, c2);
}

#[test]
fn pseudonymous_chain_appraisal_and_audit_lift() {
    // The paper's footnotes 1-2: switches are known to users by
    // per-user pseudonyms; an auditor can lift them. The evidence chain
    // works unchanged because keys are registered under the pseudonym.
    use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
    use pda_crypto::sig::{SigScheme, Signer};
    use pda_pera::evidence::EvidenceRecord;

    let mut operator_registry = KeyRegistry::new();
    let real = PrincipalId::new("switch-serial-8271");
    let pseud = operator_registry.assign_pseudonym("alice", &real);

    // The switch signs under its (pseudonymous) identity for alice.
    let mut signer = Signer::new(SigScheme::Hmac, Digest::of(pseud.as_bytes()).0, 0);
    let mut alice_registry = KeyRegistry::new();
    alice_registry.register(PrincipalId::new(pseud.clone()), signer.verify_key(0));

    let record = EvidenceRecord::create(
        &pseud,
        vec![(DetailLevel::Program, Digest::of(b"fw.p4"))],
        Nonce(1),
        Digest::ZERO,
        &mut signer,
    )
    .unwrap();
    // Alice verifies without learning the serial number…
    assert_eq!(
        verify_chain(
            std::slice::from_ref(&record),
            &alice_registry,
            Nonce(1),
            true
        ),
        Ok(())
    );
    assert!(!pseud.contains("8271"), "pseudonym leaks nothing: {pseud}");
    // …and the auditor lifts the pseudonym under court order.
    assert_eq!(operator_registry.lift_pseudonym(&pseud).unwrap(), &real);
}

#[test]
fn netkat_to_attested_dataplane_pipeline() {
    // The full SDN→attestation loop: a reviewed network-wide NetKAT
    // policy is sliced per switch, compiled to dataplane programs,
    // loaded onto PERA switches, and the switches then attest the
    // digests of exactly those compiled programs.
    use pda_hybrid::nkcompile::compile;
    use pda_netkat::ast::{Field, Policy, Pred};
    use pda_netkat::specialize::slice_for_switch;
    use pda_netsim::sim::Simulator;
    use pda_netsim::{DeviceKind, SimPacket, Topology};

    // Network policy: switch 1 forwards everything out port 1; switch 2
    // drops UDP from the embargoed prefix and forwards the rest.
    let network = Policy::filter(Pred::test(Field::Switch, 1))
        .seq(Policy::assign(Field::Port, 1))
        .union(
            Policy::filter(Pred::test(Field::Switch, 2).and(Pred::test(Field::Src, 0xbad)))
                .seq(Policy::drop()),
        )
        .union(
            Policy::filter(Pred::test(Field::Switch, 2).and(Pred::test(Field::Src, 0xbad).not()))
                .seq(Policy::assign(Field::Port, 1)),
        );

    // Slice and compile per switch.
    let prog1 = compile(&slice_for_switch(&network, 1), "sw1_policy").unwrap();
    let prog2 = compile(&slice_for_switch(&network, 2), "sw2_policy").unwrap();
    let golden1 = prog1.digest();
    let golden2 = prog2.digest();
    assert_ne!(golden1, golden2);

    // Deploy.
    let config = per_packet();
    let mut topo = Topology::new();
    let client = topo.add("client", DeviceKind::Host);
    let s1 = topo.add(
        "sw1",
        DeviceKind::Pera(Box::new(pda_pera::switch::PeraSwitch::new(
            "sw1",
            "hw1",
            prog1,
            config.clone(),
        ))),
    );
    let s2 = topo.add(
        "sw2",
        DeviceKind::Pera(Box::new(pda_pera::switch::PeraSwitch::new(
            "sw2", "hw2", prog2, config,
        ))),
    );
    let server = topo.add("server", DeviceKind::Host);
    topo.link(client, 1, s1, 0, 1_000);
    topo.link(s1, 1, s2, 0, 1_000);
    topo.link(s2, 1, server, 0, 1_000);
    let mut sim = Simulator::new(topo);

    // Allowed traffic flows and is attested with the compiled digests.
    let ok_pkt = pda_netsim::test_packet(0x1, 0x2, 443, b"allowed!");
    sim.inject(
        0,
        client,
        1,
        SimPacket::attested(ok_pkt, client, Nonce(1), EvidenceMode::InBand),
    );
    // Embargoed traffic is dropped by sw2's compiled slice.
    let bad_pkt = pda_netsim::test_packet(0xbad, 0x2, 443, b"embargo!");
    sim.inject(
        10,
        client,
        1,
        SimPacket::attested(bad_pkt, client, Nonce(2), EvidenceMode::InBand),
    );
    sim.run();

    assert_eq!(sim.stats.delivered, 1, "embargoed packet dropped in-plane");
    let chain = &sim
        .deliveries
        .iter()
        .find(|d| d.node == server)
        .unwrap()
        .packet
        .attest
        .as_ref()
        .unwrap()
        .chain;
    assert_eq!(chain.len(), 2);
    assert_eq!(chain[0].detail(DetailLevel::Program), Some(golden1));
    assert_eq!(chain[1].detail(DetailLevel::Program), Some(golden2));
    assert_eq!(verify_chain(chain, &sim.registry, Nonce(1), true), Ok(()));
}
