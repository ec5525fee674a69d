//! The full PISA pipeline: parser → match-action stages → deparser,
//! bundled as a [`DataplaneProgram`] whose canonical encoding yields the
//! **program digest** — the primary attestation target of the paper
//! (UC1: "RA protects against unvetted or unwanted dataplane programs").

use crate::actions::{execute, Registers};
use crate::parser::{deparse, ParseErr, ParserDef};
use crate::phv::{meta, Phv};
use crate::tables::Table;
use pda_crypto::digest::Digest;
use pda_telemetry::Telemetry;
use std::fmt;

/// One match-action stage (one table per stage, as in the simplest PISA
/// arrangement; wider stages are modeled as consecutive stages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    /// The stage's table.
    pub table: Table,
}

/// A complete dataplane program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataplaneProgram {
    /// Program name, e.g. `firewall_v5.p4`.
    pub name: String,
    /// Version string.
    pub version: String,
    /// The parse graph.
    pub parser: ParserDef,
    /// Match-action stages, in order.
    pub stages: Vec<Stage>,
    /// Register arrays the program declares: (name, size).
    pub registers: Vec<(String, usize)>,
}

/// Result of pushing one packet through a pipeline.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// The egress packet bytes (`None` when dropped).
    pub packet: Option<Vec<u8>>,
    /// Egress port (meaningless when dropped).
    pub egress_port: u64,
    /// The final PHV (inspection/telemetry).
    pub phv: Phv,
    /// Tables hit (stage indices) — used for table-detail attestation.
    pub stages_executed: usize,
}

impl DataplaneProgram {
    /// The program digest: hash of the canonical encoding of the parser,
    /// stages, tables, and actions. Two programs differing in any rule
    /// or action have different digests — this is the value a PERA
    /// switch attests for the `Program` property.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.canonical_bytes())
    }

    /// Canonical encoding (name, version, parser shape, all tables).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.name.as_bytes());
        out.push(0);
        out.extend_from_slice(self.version.as_bytes());
        out.push(0);
        out.extend_from_slice(format!("{:?}", self.parser).as_bytes());
        for s in &self.stages {
            out.extend_from_slice(&s.table.canonical_bytes());
        }
        for (name, size) in &self.registers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(*size as u64).to_be_bytes());
        }
        out
    }

    /// Instantiate a register file with the program's declared arrays.
    pub fn make_registers(&self) -> Registers {
        let mut regs = Registers::new();
        for (name, size) in &self.registers {
            regs.declare(name.clone(), *size);
        }
        regs
    }

    /// Digest of the *tables only* (the Fig. 4 "Tables" detail level —
    /// lower inertia than the program, higher than registers).
    pub fn tables_digest(&self) -> Digest {
        let mut out = Vec::new();
        for s in &self.stages {
            out.extend_from_slice(&s.table.canonical_bytes());
        }
        Digest::of(&out)
    }

    /// Process one packet: parse, run every stage's matched action,
    /// deparse. `ingress_port` seeds the intrinsic metadata.
    pub fn process(
        &self,
        bytes: &[u8],
        ingress_port: u64,
        regs: &mut Registers,
    ) -> Result<PipelineOutput, ParseErr> {
        self.process_traced(bytes, ingress_port, regs, &Telemetry::off())
    }

    /// [`process`](Self::process) with per-stage telemetry: one timed
    /// span per pipeline phase (`pipeline.parse`, one
    /// `pipeline.stage.{table}` per stage, `pipeline.deparse`). With a
    /// disabled handle each span is a single branch, so this *is* the
    /// hot path — `process` simply delegates here.
    pub fn process_traced(
        &self,
        bytes: &[u8],
        ingress_port: u64,
        regs: &mut Registers,
        tel: &Telemetry,
    ) -> Result<PipelineOutput, ParseErr> {
        let mut parsed = {
            let _s = tel.span("pipeline.parse");
            self.parser.parse(bytes)?
        };
        parsed.phv.set(meta::INGRESS_PORT, ingress_port);
        let mut stages_executed = 0;
        for stage in &self.stages {
            let mut span = tel.span_with(|| format!("pipeline.stage.{}", stage.table.name));
            let action = stage.table.lookup(&parsed.phv).clone();
            execute(&action, &mut parsed.phv, regs);
            stages_executed += 1;
            if parsed.phv.get(meta::EGRESS_PORT) == meta::DROP {
                span.set("dropped", true);
                drop(span);
                return Ok(PipelineOutput {
                    packet: None,
                    egress_port: meta::DROP,
                    phv: parsed.phv,
                    stages_executed,
                });
            }
        }
        let egress_port = parsed.phv.get(meta::EGRESS_PORT);
        let packet = {
            let _s = tel.span("pipeline.deparse");
            deparse(&parsed, bytes)
        };
        Ok(PipelineOutput {
            packet: Some(packet),
            egress_port,
            phv: parsed.phv,
            stages_executed,
        })
    }
}

impl fmt::Display for DataplaneProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} v{} ({} stages, digest {})",
            self.name,
            self.version,
            self.stages.len(),
            self.digest().short()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::parser::{build_udp_packet, standard_parser};
    use crate::tables::{Entry, KeyCell, KeyCol, MatchKind};

    fn one_table_program(default: Action) -> DataplaneProgram {
        let table = Table::new(
            "t0",
            vec![KeyCol {
                field: "ipv4.dst".into(),
                kind: MatchKind::Exact,
            }],
            default,
        );
        DataplaneProgram {
            name: "test.p4".into(),
            version: "1".into(),
            parser: standard_parser(),
            stages: vec![Stage { table }],
            registers: Vec::new(),
        }
    }

    #[test]
    fn forward_action_sets_egress() {
        let mut prog = one_table_program(Action::drop_());
        prog.stages[0]
            .table
            .insert(Entry {
                key: vec![KeyCell::Exact(0xc0a80002)],
                priority: 0,
                action: Action::fwd(7),
            })
            .unwrap();
        let pkt = build_udp_packet(1, 2, 0xc0a80001, 0xc0a80002, 10, 20, b"payload!");
        let mut regs = Registers::new();
        let out = prog.process(&pkt, 0, &mut regs).unwrap();
        assert_eq!(out.egress_port, 7);
        assert!(out.packet.is_some());
    }

    #[test]
    fn default_drop_on_miss() {
        let prog = one_table_program(Action::drop_());
        let pkt = build_udp_packet(1, 2, 1, 2, 10, 20, b"payload!");
        let mut regs = Registers::new();
        let out = prog.process(&pkt, 0, &mut regs).unwrap();
        assert!(out.packet.is_none());
        assert_eq!(out.egress_port, meta::DROP);
    }

    #[test]
    fn drop_short_circuits_later_stages() {
        let mut prog = one_table_program(Action::drop_());
        prog.stages.push(Stage {
            table: Table::new("t1", vec![], Action::fwd(9)),
        });
        let pkt = build_udp_packet(1, 2, 1, 2, 10, 20, b"payload!");
        let mut regs = Registers::new();
        let out = prog.process(&pkt, 0, &mut regs).unwrap();
        assert_eq!(out.stages_executed, 1);
        assert!(out.packet.is_none());
    }

    #[test]
    fn digests_differ_between_programs_and_rule_sets() {
        let p1 = one_table_program(Action::drop_());
        let mut p2 = one_table_program(Action::drop_());
        assert_eq!(p1.digest(), p2.digest());
        p2.stages[0]
            .table
            .insert(Entry {
                key: vec![KeyCell::Exact(1)],
                priority: 0,
                action: Action::fwd(1),
            })
            .unwrap();
        assert_ne!(p1.digest(), p2.digest(), "rule change must change digest");
        let mut p3 = one_table_program(Action::drop_());
        p3.name = "other.p4".into();
        assert_ne!(p1.digest(), p3.digest(), "name change must change digest");
    }

    #[test]
    fn tables_digest_ignores_name() {
        let p1 = one_table_program(Action::drop_());
        let mut p3 = one_table_program(Action::drop_());
        p3.name = "other.p4".into();
        assert_eq!(p1.tables_digest(), p3.tables_digest());
    }

    #[test]
    fn traced_processing_times_every_stage() {
        let tel = pda_telemetry::Telemetry::collecting();
        let mut prog = one_table_program(Action::fwd(3));
        prog.stages.push(Stage {
            table: Table::new("acl", vec![], Action::fwd(3)),
        });
        let pkt = build_udp_packet(1, 2, 1, 2, 10, 20, b"payload!");
        let mut regs = Registers::new();
        let out = prog.process_traced(&pkt, 0, &mut regs, &tel).unwrap();
        assert_eq!(out.stages_executed, 2);
        let reg = tel.registry().unwrap();
        for name in [
            "pipeline.parse.ns",
            "pipeline.stage.t0.ns",
            "pipeline.stage.acl.ns",
            "pipeline.deparse.ns",
        ] {
            assert_eq!(reg.histogram(name).count(), 1, "{name} must have 1 sample");
        }
        // The untraced path must not record anywhere (and must still work).
        prog.process(&pkt, 0, &mut regs).unwrap();
        assert_eq!(reg.histogram("pipeline.parse.ns").count(), 1);
    }

    #[test]
    fn ttl_decrement_visible_in_egress_bytes() {
        let mut prog = one_table_program(Action::nop());
        prog.stages[0].table.default_action = Action::named(
            "route",
            vec![
                crate::actions::Primitive::AddToField {
                    field: "ipv4.ttl".into(),
                    delta: u64::MAX,
                },
                crate::actions::Primitive::Forward { port: 1 },
            ],
        );
        let pkt = build_udp_packet(1, 2, 1, 2, 10, 20, b"payload!");
        let mut regs = Registers::new();
        let out = prog.process(&pkt, 0, &mut regs).unwrap();
        let egress = out.packet.unwrap();
        let reparsed = standard_parser().parse(&egress).unwrap();
        assert_eq!(reparsed.phv.get("ipv4.ttl"), 63);
    }
}
