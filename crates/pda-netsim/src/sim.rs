//! The discrete-event simulation engine.
//!
//! Deterministic: events are ordered by (time, sequence number), link
//! latencies are fixed, and all device behaviour is deterministic, so a
//! given scenario always produces byte-identical results — a property
//! the integration tests assert.

use crate::faults::{FaultPlan, FaultPlane, TxFate};
use crate::packet::{EvidenceMode, SimPacket};
use crate::topology::{DeviceKind, NodeId, SimTime, Topology};
use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
use pda_pera::config::DetailLevel;
use pda_pera::evidence::EvidenceRecord;
use pda_pera::golden::GoldenStore;
use pda_pera::verify_unit::{AdmissionPolicy, VerifyUnit};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Latency of the out-of-band control channel from any switch to the
/// appraiser (a separate management network in a real deployment).
pub const CONTROL_LATENCY: SimTime = 10_000;

/// Safety net against forwarding loops.
pub const MAX_HOPS: u32 = 64;

enum EventKind {
    /// A packet arrives at `node` on `port`.
    Packet {
        node: NodeId,
        port: u64,
        packet: SimPacket,
    },
    /// An out-of-band evidence record arrives at the appraiser `node`.
    Control {
        node: NodeId,
        record: EvidenceRecord,
        bytes: usize,
    },
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A packet that reached a host or appraiser.
pub struct Delivery {
    /// Arrival time.
    pub time: SimTime,
    /// Receiving node.
    pub node: NodeId,
    /// The packet, including any in-band evidence chain.
    pub packet: SimPacket,
}

/// Aggregate simulation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered to hosts/appraisers.
    pub delivered: u64,
    /// Packets dropped (pipeline drop, unwired port, or hop limit).
    pub dropped: u64,
    /// Total data-plane bytes × hops (wire-byte metric).
    pub wire_bytes: u64,
    /// Out-of-band control messages sent.
    pub control_messages: u64,
    /// Out-of-band control bytes sent.
    pub control_bytes: u64,
    /// Packets rejected by in-dataplane enforcement (verify units).
    pub enforcement_drops: u64,
}

/// The simulator.
pub struct Simulator {
    /// The network.
    pub topo: Topology,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Current simulated time.
    pub now: SimTime,
    /// Packets that reached hosts.
    pub deliveries: Vec<Delivery>,
    /// Out-of-band evidence collected per appraiser node.
    pub collected: HashMap<NodeId, Vec<EvidenceRecord>>,
    /// Verification keys of every PERA switch in the topology.
    pub registry: KeyRegistry,
    /// In-dataplane enforcement points (Fig. 3's verify unit), by node.
    pub enforcement: HashMap<NodeId, VerifyUnit>,
    /// Statistics.
    pub stats: SimStats,
    /// The fault-injection plane, when a [`FaultPlan`] is installed.
    /// `None` (the default) is the seed's perfect-world behaviour.
    pub faults: Option<FaultPlane>,
    /// Telemetry handle: [`run`](Self::run) publishes [`SimStats`] as
    /// `netsim.*` gauges and times the drain. Disabled by default;
    /// attach with [`attach_telemetry`](Self::attach_telemetry).
    pub telemetry: pda_telemetry::Telemetry,
}

impl Simulator {
    /// Build a simulator over a topology, registering every PERA
    /// switch's verification key.
    pub fn new(topo: Topology) -> Simulator {
        let mut registry = KeyRegistry::new();
        for node in &topo.nodes {
            if let DeviceKind::Pera(sw) = &node.kind {
                registry.register(PrincipalId::new(node.name.clone()), sw.verify_key(64));
            }
        }
        Simulator {
            topo,
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            deliveries: Vec::new(),
            collected: HashMap::new(),
            registry: KeyRegistry::new(),
            enforcement: HashMap::new(),
            stats: SimStats::default(),
            faults: None,
            telemetry: pda_telemetry::Telemetry::off(),
        }
        .with_registry(registry)
    }

    /// Install a fault plan; faulted behaviour is a deterministic
    /// function of the plan (including its seed) and the injection
    /// sequence. Installing replaces any previous plane, resetting its
    /// PRNG and counters.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultPlane::new(plan));
    }

    /// Attach a telemetry handle to the simulation *and* to every PERA
    /// switch in the topology, so one handle observes the whole stack:
    /// per-stage pipeline spans, `pera.*` counters and audit events
    /// from the switches, and `netsim.*` scenario gauges from the sim.
    pub fn attach_telemetry(&mut self, tel: pda_telemetry::Telemetry) {
        for node in &mut self.topo.nodes {
            if let DeviceKind::Pera(sw) = &mut node.kind {
                sw.set_telemetry(tel.clone());
            }
        }
        for (node, unit) in self.enforcement.iter_mut() {
            unit.set_telemetry(tel.clone(), self.topo.nodes[*node].name.clone());
        }
        self.telemetry = tel;
    }

    fn with_registry(mut self, r: KeyRegistry) -> Simulator {
        self.registry = r;
        self
    }

    /// Install an in-dataplane enforcement point (Fig. 3's verify unit)
    /// at a PERA switch: arriving attested packets have their in-band
    /// chains checked against `policy`; failing packets are dropped
    /// before forwarding (the UC3 authorization gate in the network).
    pub fn install_enforcement(&mut self, node: NodeId, policy: AdmissionPolicy) {
        assert!(
            matches!(self.topo.nodes[node].kind, DeviceKind::Pera(_)),
            "enforcement requires a PERA device"
        );
        let mut unit = VerifyUnit::new(self.registry.clone(), policy);
        unit.set_telemetry(self.telemetry.clone(), self.topo.nodes[node].name.clone());
        self.enforcement.insert(node, unit);
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Inject a packet from `host` out of its port `port` at `time`.
    pub fn inject(&mut self, time: SimTime, host: NodeId, port: u64, packet: SimPacket) {
        self.stats.injected += 1;
        self.send_over_link(host, port, time, packet);
    }

    /// Put one packet on the wire from `node` out of `egress_port` at
    /// `time`, consulting the fault plane (loss, duplication,
    /// corruption, jitter, link-down) when one is installed.
    fn send_over_link(&mut self, node: NodeId, egress_port: u64, time: SimTime, packet: SimPacket) {
        let Some(&link) = self.topo.nodes[node].ports.get(&egress_port) else {
            self.stats.dropped += 1;
            return;
        };
        let fate = match self.faults.as_mut() {
            None => TxFate::Deliver {
                extra: 0,
                duplicate_extra: None,
                corrupt: false,
            },
            Some(plane) => plane.data_fate(node, egress_port, time),
        };
        match fate {
            TxFate::LinkDown => {
                self.stats.dropped += 1;
            }
            TxFate::Lost => {
                // The transmission consumed the wire before vanishing.
                self.stats.wire_bytes += packet.wire_bytes() as u64;
                self.stats.dropped += 1;
            }
            TxFate::Deliver {
                extra,
                duplicate_extra,
                corrupt,
            } => {
                let mut packet = packet;
                if corrupt {
                    if let Some(plane) = self.faults.as_mut() {
                        plane.corrupt_bytes(&mut packet.bytes);
                    }
                }
                let bytes = packet.wire_bytes();
                if let Some(dup_extra) = duplicate_extra {
                    self.stats.wire_bytes += bytes as u64;
                    self.push(
                        time + link.delay(bytes) + dup_extra,
                        EventKind::Packet {
                            node: link.peer,
                            port: link.peer_port,
                            packet: packet.clone(),
                        },
                    );
                }
                self.stats.wire_bytes += bytes as u64;
                self.push(
                    time + link.delay(bytes) + extra,
                    EventKind::Packet {
                        node: link.peer,
                        port: link.peer_port,
                        packet,
                    },
                );
            }
        }
    }

    /// Run until the event queue drains; returns the final time.
    pub fn run(&mut self) -> SimTime {
        let span = self.telemetry.span("netsim.run");
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.now = ev.time;
            match ev.kind {
                EventKind::Packet { node, port, packet } => self.handle_packet(node, port, packet),
                EventKind::Control {
                    node,
                    record,
                    bytes,
                } => {
                    self.stats.control_messages += 1;
                    self.stats.control_bytes += bytes as u64;
                    self.collected.entry(node).or_default().push(record);
                }
            }
        }
        drop(span);
        self.publish_stats();
        self.now
    }

    /// Publish the current [`SimStats`] snapshot as `netsim.*` gauges
    /// (idempotent: gauges are set, not accumulated, so interleaved
    /// `run` calls always reflect the latest totals).
    pub fn publish_stats(&self) {
        let Some(reg) = self.telemetry.registry() else {
            return;
        };
        let set = |name: &str, v: u64| reg.gauge(name).set(v as i64);
        set("netsim.injected", self.stats.injected);
        set("netsim.delivered", self.stats.delivered);
        set("netsim.dropped", self.stats.dropped);
        set("netsim.wire_bytes", self.stats.wire_bytes);
        set("netsim.control_messages", self.stats.control_messages);
        set("netsim.control_bytes", self.stats.control_bytes);
        set("netsim.enforcement_drops", self.stats.enforcement_drops);
        set("netsim.now", self.now);
        if let Some(plane) = &self.faults {
            let f = plane.stats;
            set("netsim.faults.data_lost", f.data_lost);
            set("netsim.faults.data_duplicated", f.data_duplicated);
            set("netsim.faults.data_corrupted", f.data_corrupted);
            set("netsim.faults.link_down_drops", f.link_down_drops);
            set("netsim.faults.switch_down_drops", f.switch_down_drops);
            set("netsim.faults.control_lost", f.control_lost);
            set("netsim.faults.control_retransmits", f.control_retransmits);
            set("netsim.faults.control_gave_up", f.control_gave_up);
        }
    }

    fn handle_packet(&mut self, node: NodeId, port: u64, mut packet: SimPacket) {
        packet.hops += 1;
        if packet.hops > MAX_HOPS {
            self.stats.dropped += 1;
            return;
        }
        // A switch inside one of its outage windows drops everything.
        if !matches!(
            self.topo.nodes[node].kind,
            DeviceKind::Host | DeviceKind::Appraiser
        ) {
            if let Some(plane) = self.faults.as_mut() {
                if plane.switch_down_drop(node, self.now) {
                    self.stats.dropped += 1;
                    return;
                }
            }
        }
        // Split-borrow: temporarily take the device out to mutate it
        // while scheduling through &mut self.
        match &mut self.topo.nodes[node].kind {
            DeviceKind::Host | DeviceKind::Appraiser => {
                self.stats.delivered += 1;
                self.deliveries.push(Delivery {
                    time: self.now,
                    node,
                    packet,
                });
            }
            DeviceKind::Pera(sw) => {
                // Ingress enforcement: Fig. 3 case (A), inspect in-band
                // evidence before match+action. An unattested packet has
                // no chain and no nonce; the policy decides its fate.
                if let Some(unit) = self.enforcement.get_mut(&node) {
                    let verdict = match &packet.attest {
                        Some(a) => unit.check(Some(&a.chain), Some(a.nonce)),
                        None => unit.check(None, None),
                    };
                    if !verdict.admits() {
                        self.stats.dropped += 1;
                        self.stats.enforcement_drops += 1;
                        return;
                    }
                }
                let attestation = packet.attest.as_ref().map(|a| (a.nonce, a.prev));
                let out = match sw.process_packet(&packet.bytes, port, attestation) {
                    Ok(o) => o,
                    Err(_) => {
                        self.stats.dropped += 1;
                        return;
                    }
                };
                let evidence = out.evidence;
                let Some(egress_bytes) = out.forward.packet else {
                    self.stats.dropped += 1;
                    return;
                };
                let egress_port = out.forward.egress_port;
                if let (Some(record), Some(attest)) = (evidence, packet.attest.as_mut()) {
                    match attest.mode {
                        EvidenceMode::InBand => attest.push(record),
                        EvidenceMode::OutOfBand { appraiser } => {
                            let bytes = record.wire_size();
                            // The packet keeps only the chain value; the
                            // record itself travels the control channel.
                            attest.prev = record.chain;
                            // The control channel may lose the push;
                            // the fault plane resolves the retransmit
                            // timeline (timeout + exponential backoff)
                            // at send time.
                            let retrans_before = self
                                .faults
                                .as_ref()
                                .map_or(0, |p| p.stats.control_retransmits);
                            let deliver_at = match self.faults.as_mut() {
                                None => Some(self.now + CONTROL_LATENCY),
                                Some(plane) => {
                                    plane.control_delivery_time(self.now, CONTROL_LATENCY)
                                }
                            };
                            if self.telemetry.enabled() {
                                let retransmits = self
                                    .faults
                                    .as_ref()
                                    .map_or(0, |p| p.stats.control_retransmits)
                                    - retrans_before;
                                let name = match (deliver_at.is_some(), retransmits) {
                                    (false, _) => "channel.gave_up",
                                    (true, 0) => "channel.send",
                                    (true, _) => "channel.retry",
                                };
                                // Span index from the chained digest: unique
                                // per record yet identical on replay, so the
                                // channel span is deterministic.
                                let chain8 = u64::from_le_bytes(
                                    record.chain.as_bytes()[..8]
                                        .try_into()
                                        .expect("digest holds at least 8 bytes"),
                                );
                                let ctx = record.trace_ctx().child("channel", chain8);
                                self.telemetry.event(
                                    name,
                                    || ctx,
                                    || {
                                        vec![
                                            (
                                                "switch".to_string(),
                                                self.topo.nodes[node].name.clone().into(),
                                            ),
                                            ("retransmits".to_string(), retransmits.into()),
                                            ("delivered".to_string(), deliver_at.is_some().into()),
                                            ("bytes".to_string(), bytes.into()),
                                        ]
                                    },
                                );
                            }
                            if let Some(t) = deliver_at {
                                self.push(
                                    t,
                                    EventKind::Control {
                                        node: appraiser,
                                        record,
                                        bytes,
                                    },
                                );
                            }
                        }
                    }
                }
                packet.bytes = egress_bytes;
                self.forward(node, egress_port, packet);
            }
            DeviceKind::Legacy { program, regs } => {
                let out = match program.process(&packet.bytes, port, regs) {
                    Ok(o) => o,
                    Err(_) => {
                        self.stats.dropped += 1;
                        return;
                    }
                };
                let Some(egress_bytes) = out.packet else {
                    self.stats.dropped += 1;
                    return;
                };
                packet.bytes = egress_bytes;
                self.forward(node, out.egress_port, packet);
            }
        }
    }

    fn forward(&mut self, node: NodeId, egress_port: u64, packet: SimPacket) {
        self.send_over_link(node, egress_port, self.now, packet);
    }

    /// Convenience: evidence records collected at an appraiser node.
    pub fn evidence_at(&self, node: NodeId) -> &[EvidenceRecord] {
        self.collected.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Enroll golden values for every PERA switch of `sim` at `levels`:
/// trusted setup reading each switch's current values
/// ([`GoldenStore::enroll`]).
pub fn enroll_golden(sim: &Simulator, levels: &[DetailLevel]) -> GoldenStore {
    let mut golden = GoldenStore::new();
    for node in &sim.topo.nodes {
        if let DeviceKind::Pera(sw) = &node.kind {
            golden.enroll(sw, levels);
        }
    }
    golden
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::packet::SimPacket;
    use pda_dataplane::programs;

    /// A two-switch forwarding loop: the hop limit must kill the packet
    /// instead of spinning the event queue forever.
    #[test]
    fn forwarding_loops_hit_the_hop_limit() {
        let fwd = || programs::forwarding(&[(0, 0, 1)]);
        let mut topo = Topology::new();
        let h = topo.add("h", DeviceKind::Host);
        let a = topo.add(
            "a",
            DeviceKind::Legacy {
                regs: fwd().make_registers(),
                program: fwd(),
            },
        );
        let b = topo.add(
            "b",
            DeviceKind::Legacy {
                regs: fwd().make_registers(),
                program: fwd(),
            },
        );
        topo.link(h, 1, a, 0, 10);
        topo.link(a, 1, b, 0, 10);
        topo.link(b, 1, a, 2, 10);
        // a forwards out port 1 → b; b forwards out port 1 → a (port 2
        // side); a receives on port 2 and forwards out port 1 again: loop.
        let mut sim = Simulator::new(topo);
        let pkt = SimPacket::plain(crate::scenarios::test_packet(1, 2, 53, b"loop!!!!"), h);
        sim.inject(0, h, 1, pkt);
        sim.run();
        assert_eq!(sim.stats.dropped, 1, "loop guard dropped the packet");
        assert_eq!(sim.stats.delivered, 0);
    }

    /// One telemetry handle attached to the sim observes the whole
    /// stack: scenario gauges from the sim, `pera.*` counters and audit
    /// events from the switches, per-stage spans from the pipeline.
    #[test]
    fn attached_telemetry_observes_whole_stack() {
        use crate::packet::EvidenceMode;
        use pda_pera::config::PeraConfig;

        let tel = pda_telemetry::Telemetry::collecting();
        let mut lp = crate::scenarios::linear_path(2, &PeraConfig::default(), &[]);
        lp.sim.attach_telemetry(tel.clone());
        for n in 0..4u64 {
            lp.send_attested(
                pda_crypto::nonce::Nonce(n),
                EvidenceMode::InBand,
                b"telem!!!",
            );
        }
        let reg = tel.registry().unwrap();
        assert_eq!(reg.gauge("netsim.injected").get(), 4);
        assert_eq!(reg.gauge("netsim.delivered").get(), 4);
        assert_eq!(
            reg.counter("pera.packets").get(),
            8,
            "4 packets × 2 PERA hops"
        );
        assert!(reg.histogram("pipeline.parse.ns").count() >= 8);
        assert!(reg.histogram("netsim.run.ns").count() >= 4);
        assert!(
            !tel.audit_log().unwrap().is_empty(),
            "switch attestations must audit through the sim's handle"
        );
    }

    /// Injecting out an unwired port is a clean drop.
    #[test]
    fn unwired_port_drops() {
        let mut topo = Topology::new();
        let h = topo.add("h", DeviceKind::Host);
        let mut sim = Simulator::new(topo);
        let pkt = SimPacket::plain(vec![0u8; 64], h);
        sim.inject(0, h, 9, pkt);
        assert_eq!(sim.stats.dropped, 1);
        sim.run();
    }
}
