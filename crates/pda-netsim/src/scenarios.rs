//! Scenario builders: the topologies and traffic mixes the experiments
//! and examples run on.

use crate::packet::{EvidenceMode, SimPacket};
use crate::sim::Simulator;
use crate::topology::{DeviceKind, NodeId, Topology};
use pda_crypto::nonce::Nonce;
use pda_dataplane::parser::build_udp_packet;
use pda_dataplane::programs;
use pda_pera::config::PeraConfig;
use pda_pera::switch::PeraSwitch;

/// A linear path: `client — sw1 — sw2 — … — swN — server`, every switch
/// a PERA device running the LPM forwarder (everything routed towards
/// the server). Ports: each device receives on 0 and sends on 1.
pub struct LinearPath {
    /// The simulator.
    pub sim: Simulator,
    /// Client host id.
    pub client: NodeId,
    /// Server host id.
    pub server: NodeId,
    /// Switch ids in path order.
    pub switches: Vec<NodeId>,
    /// Appraiser node id.
    pub appraiser: NodeId,
}

/// Build a linear path of `n` PERA switches with the given config.
/// `legacy_at` lists switch indices (0-based) built as legacy
/// (non-attesting) devices instead.
pub fn linear_path(n: usize, config: &PeraConfig, legacy_at: &[usize]) -> LinearPath {
    assert!(n >= 1, "need at least one switch");
    let mut topo = Topology::new();
    let client = topo.add("client", DeviceKind::Host);
    let mut switches = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("sw{}", i + 1);
        let prog = programs::forwarding(&[(0, 0, 1)]); // route everything out port 1
        let kind = if legacy_at.contains(&i) {
            DeviceKind::Legacy {
                regs: prog.make_registers(),
                program: prog,
            }
        } else {
            DeviceKind::Pera(Box::new(PeraSwitch::new(
                name.clone(),
                format!("tofino-sim-{i}"),
                prog,
                config.clone(),
            )))
        };
        switches.push(topo.add(name, kind));
    }
    let server = topo.add("server", DeviceKind::Host);
    let appraiser = topo.add("appraiser", DeviceKind::Appraiser);

    topo.link(client, 1, switches[0], 0, 1_000);
    for w in switches.windows(2) {
        topo.link(w[0], 1, w[1], 0, 1_000);
    }
    topo.link(*switches.last().unwrap(), 1, server, 0, 1_000);

    LinearPath {
        sim: Simulator::new(topo),
        client,
        server,
        switches,
        appraiser,
    }
}

/// Build a standard test packet from `src_ip` to `dst_ip`.
pub fn test_packet(src_ip: u32, dst_ip: u32, dport: u16, payload: &[u8]) -> Vec<u8> {
    build_udp_packet(0x02, 0x01, src_ip, dst_ip, 40_000, dport, payload)
}

impl LinearPath {
    /// Send one attested packet from the client and run to quiescence.
    /// Returns the number of evidence records that reached the server
    /// in-band (or the appraiser out-of-band).
    pub fn send_attested(&mut self, nonce: Nonce, mode: EvidenceMode, payload: &[u8]) {
        let bytes = test_packet(0x0a00_0001, 0x0a00_0002, 4433, payload);
        let pkt = SimPacket::attested(bytes, self.client, nonce, mode);
        self.sim.inject(self.sim.now, self.client, 1, pkt);
        self.sim.run();
    }

    /// Send one plain packet.
    pub fn send_plain(&mut self, payload: &[u8]) {
        let bytes = test_packet(0x0a00_0001, 0x0a00_0002, 4433, payload);
        let pkt = SimPacket::plain(bytes, self.client);
        self.sim.inject(self.sim.now, self.client, 1, pkt);
        self.sim.run();
    }

    /// In-band chains delivered at the server.
    pub fn server_chains(&self) -> Vec<&crate::packet::AttestState> {
        self.sim
            .deliveries
            .iter()
            .filter(|d| d.node == self.server)
            .filter_map(|d| d.packet.attest.as_ref())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_pera::config::Sampling;
    use pda_pera::evidence::verify_chain;

    #[test]
    fn in_band_chain_grows_per_hop() {
        let mut lp = linear_path(
            4,
            &PeraConfig::default().with_sampling(Sampling::PerPacket),
            &[],
        );
        lp.send_attested(Nonce(1), EvidenceMode::InBand, b"hello!!!");
        let chains = lp.server_chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].chain.len(), 4, "one record per PERA hop");
        // The chain verifies against the simulator's registry.
        assert_eq!(
            verify_chain(&chains[0].chain, &lp.sim.registry, Nonce(1), true),
            Ok(())
        );
        // Switch names in path order.
        let names: Vec<_> = chains[0].chain.iter().map(|r| r.switch.as_str()).collect();
        assert_eq!(names, vec!["sw1", "sw2", "sw3", "sw4"]);
    }

    #[test]
    fn out_of_band_collects_at_appraiser() {
        let mut lp = linear_path(
            3,
            &PeraConfig::default().with_sampling(Sampling::PerPacket),
            &[],
        );
        let appraiser = lp.appraiser;
        lp.send_attested(Nonce(2), EvidenceMode::OutOfBand { appraiser }, b"hello!!!");
        // Packet still reaches the server, small:
        let chains = lp.server_chains();
        assert_eq!(chains.len(), 1);
        assert!(chains[0].chain.is_empty(), "no in-band growth");
        // Appraiser has all three records.
        let recs = lp.sim.evidence_at(appraiser);
        assert_eq!(recs.len(), 3);
        assert_eq!(verify_chain(recs, &lp.sim.registry, Nonce(2), true), Ok(()));
        assert_eq!(lp.sim.stats.control_messages, 3);
        assert!(lp.sim.stats.control_bytes > 0);
    }

    #[test]
    fn legacy_hops_are_skipped_in_the_chain() {
        let mut lp = linear_path(
            4,
            &PeraConfig::default().with_sampling(Sampling::PerPacket),
            &[1], // sw2 is legacy
        );
        lp.send_attested(Nonce(3), EvidenceMode::InBand, b"hello!!!");
        let chains = lp.server_chains();
        let names: Vec<_> = chains[0].chain.iter().map(|r| r.switch.as_str()).collect();
        assert_eq!(names, vec!["sw1", "sw3", "sw4"]);
        // Chain still verifies: linkage is between attesting elements.
        assert_eq!(
            verify_chain(&chains[0].chain, &lp.sim.registry, Nonce(3), true),
            Ok(())
        );
    }

    /// What a switch attests and what enrollment expects come from one
    /// digest rule: a clean path attesting every static level appraises
    /// with zero failures against the store enrolled from it.
    #[test]
    fn attested_static_levels_match_enrollment() {
        use crate::sim::enroll_golden;
        use pda_pera::config::DetailLevel::{Hardware, LintVerdict, Program, Tables};
        use pda_pera::golden::appraise_chain;
        let levels = [Hardware, Program, Tables, LintVerdict];
        let config = PeraConfig::default()
            .with_details(&levels)
            .with_sampling(Sampling::PerPacket);
        let mut lp = linear_path(3, &config, &[]);
        let golden = enroll_golden(&lp.sim, &levels);
        lp.send_attested(Nonce(4), EvidenceMode::InBand, b"hello!!!");
        let chain = &lp.server_chains()[0].chain;
        assert_eq!(chain.len(), 3);
        assert!(chain.iter().all(|r| r.details.len() == levels.len()));
        assert_eq!(
            appraise_chain(chain, &lp.sim.registry, &golden, Nonce(4), true),
            Ok(())
        );
    }

    #[test]
    fn plain_traffic_flows_without_evidence() {
        let mut lp = linear_path(2, &PeraConfig::default(), &[]);
        lp.send_plain(b"ordinary");
        assert_eq!(lp.sim.stats.delivered, 1);
        assert!(lp.server_chains().is_empty());
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = || {
            let mut lp = linear_path(
                3,
                &PeraConfig::default().with_sampling(Sampling::PerPacket),
                &[],
            );
            for i in 0..5 {
                lp.send_attested(Nonce(i), EvidenceMode::InBand, b"payload!");
            }
            (lp.sim.stats, lp.sim.now)
        };
        assert_eq!(run().0, run().0);
        assert_eq!(run().1, run().1);
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let mut lp = linear_path(3, &PeraConfig::default(), &[]);
        lp.send_plain(b"timing!!");
        // 4 links × 1000ns.
        let t = lp.sim.deliveries[0].time;
        assert_eq!(t, 4_000);
    }
}

/// Like [`linear_path`], but links have finite bandwidth
/// (`ns_per_byte`, 8 ≈ 1 Gbit/s), so packets carrying in-band evidence
/// chains pay real serialization delay per hop.
pub fn linear_path_bw(
    n: usize,
    config: &PeraConfig,
    legacy_at: &[usize],
    ns_per_byte: u64,
) -> LinearPath {
    let mut lp = linear_path(n, config, legacy_at);
    // Rebuild the links with bandwidth. (Links are immutable once wired,
    // so patch the Link entries directly.)
    for node in &mut lp.sim.topo.nodes {
        for link in node.ports.values_mut() {
            link.ns_per_byte = ns_per_byte;
        }
    }
    lp
}

#[cfg(test)]
mod bw_tests {
    use super::*;
    use crate::packet::EvidenceMode;
    use pda_crypto::nonce::Nonce;
    use pda_pera::config::Sampling;

    #[test]
    fn in_band_evidence_pays_serialization_delay() {
        let cfg = PeraConfig::default().with_sampling(Sampling::PerPacket);
        let mut plain = linear_path_bw(4, &cfg, &[], 8);
        plain.send_plain(b"payload!");
        let t_plain = plain.sim.deliveries[0].time;

        let mut attested = linear_path_bw(4, &cfg, &[], 8);
        attested.send_attested(Nonce(1), EvidenceMode::InBand, b"payload!");
        let t_attested = attested.sim.deliveries[0].time;
        assert!(
            t_attested > t_plain,
            "in-band chain adds latency: {t_attested} vs {t_plain}"
        );

        // Out-of-band keeps the data path almost as fast as plain.
        let mut oob = linear_path_bw(4, &cfg, &[], 8);
        let appraiser = oob.appraiser;
        oob.send_attested(Nonce(1), EvidenceMode::OutOfBand { appraiser }, b"payload!");
        let t_oob = oob
            .sim
            .deliveries
            .iter()
            .find(|d| d.node == oob.server)
            .unwrap()
            .time;
        assert!(t_oob < t_attested, "oob {t_oob} < in-band {t_attested}");
    }
}
