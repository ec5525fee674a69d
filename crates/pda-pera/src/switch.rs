//! The PERA switch: a PISA pipeline extended with the RA units of
//! Fig. 3 — Parse, Match+Action, Sign/Verify, and the evidence engine
//! (Create/Inspect/Compose) — with the Fig. 4 configuration knobs.

use crate::cache::{CacheStats, EvidenceCache};
use crate::config::{DetailLevel, EvidenceComposition, PeraConfig, Sampling};
use crate::evidence::{EvidenceRecord, PendingRecord};
use crate::golden::reference_digest;
use pda_crypto::digest::Digest;
use pda_crypto::nonce::Nonce;
use pda_crypto::sig::{SigScheme, Signature, Signer, VerifyKey};
use pda_dataplane::actions::Registers;
use pda_dataplane::parser::ParseErr;
use pda_dataplane::phv::{meta, Phv};
use pda_dataplane::pipeline::{DataplaneProgram, PipelineOutput};
use pda_telemetry::{AuditEvent, Counter, Telemetry};
use std::collections::HashSet;

/// Counters reported by the PERA experiments. With the cache's
/// [`CacheStats`] these are the switch's only books: the `pera.*`
/// registry counters are published from them, never bumped apart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeraStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets that carried evidence out (attested packets).
    pub attested_packets: u64,
    /// Evidence records produced.
    pub records: u64,
    /// Total evidence bytes emitted.
    pub evidence_bytes: u64,
    /// Signatures performed by the sign/verify unit.
    pub signatures: u64,
    /// Measurement-function executions (actual digests computed, as
    /// opposed to cache lookups). With the cache enabled this counts
    /// only misses; it is the regression guard for the historical bug
    /// where evidence was measured eagerly and the cache merely
    /// *recorded* hits without saving the measurement cost.
    pub measurements: u64,
    /// Static-analysis runs (`DetailLevel::LintVerdict` cache misses —
    /// the analyzer executes only when program or tables changed).
    pub lint_runs: u64,
    /// Total diagnostics found across all lint runs.
    pub lint_findings: u64,
    /// Error-severity diagnostics across all lint runs.
    pub lint_errors: u64,
}

/// The switch's books: its own stats and its cache's.
type Books = (PeraStats, CacheStats);

/// Reads one entry of the books.
type BookEntry = fn(&Books) -> u64;

/// Each `pera.*` registry counter and the book entry it publishes.
const PUBLISHED: [(&str, BookEntry); 13] = [
    ("pera.packets", |(s, _)| s.packets),
    ("pera.attested_packets", |(s, _)| s.attested_packets),
    ("pera.records", |(s, _)| s.records),
    ("pera.evidence_bytes", |(s, _)| s.evidence_bytes),
    ("pera.signatures", |(s, _)| s.signatures),
    ("pera.measurements", |(s, _)| s.measurements),
    ("pera.lint.runs", |(s, _)| s.lint_runs),
    ("pera.lint.findings", |(s, _)| s.lint_findings),
    ("pera.lint.errors", |(s, _)| s.lint_errors),
    ("pera.cache.hits", |(_, c)| c.hits),
    ("pera.cache.misses", |(_, c)| c.misses),
    ("pera.cache.uncacheable", |(_, c)| c.uncacheable),
    ("pera.cache.lookups", |(_, c)| c.lookups()),
];

const SIGNER_EXHAUSTED: &str = "evidence signer exhausted — raise mss_height";

/// Output of processing one packet through a PERA switch.
#[derive(Debug)]
pub struct PeraOutput {
    /// The forwarding result from the PISA pipeline.
    pub forward: PipelineOutput,
    /// Evidence produced for this packet (None when sampling skipped it
    /// or the packet carried no attestation request).
    pub evidence: Option<EvidenceRecord>,
}

/// Output of processing a burst of packets through a PERA switch.
#[derive(Debug)]
pub struct PeraBatchOutput {
    /// Per-packet forwarding results, index-aligned with the input.
    pub forwards: Vec<Result<PipelineOutput, ParseErr>>,
    /// Evidence produced for the burst, in attestation order. Under
    /// chained composition consecutive records link through the burst
    /// (the first onto the caller-provided prev digest).
    pub evidence: Vec<EvidenceRecord>,
}

/// A PISA switch extended with RA (the paper's PERA device).
pub struct PeraSwitch {
    /// Device name (as registered with appraisers; may be a pseudonym).
    pub name: String,
    /// The loaded dataplane program.
    pub program: DataplaneProgram,
    /// Register file (program state).
    pub regs: Registers,
    /// Evidence-engine configuration.
    pub config: PeraConfig,
    /// Hardware platform identity string (model/serial).
    pub hardware_id: String,
    /// The signing identity of the evidence-producing unit.
    signer: Signer,
    /// Inertia-keyed evidence cache.
    pub cache: EvidenceCache,
    /// Flows already attested (PerFlow sampling).
    seen_flows: HashSet<FlowKey>,
    /// Counters.
    pub stats: PeraStats,
    /// Telemetry handle (disabled by default; see [`Self::set_telemetry`]).
    tel: Telemetry,
    /// Registry handles of the `PUBLISHED` counters, index-aligned;
    /// empty when `tel` is disabled.
    counters: Vec<Counter>,
}

impl PeraSwitch {
    /// Build a switch with an HMAC evidence unit (override with
    /// [`Self::with_scheme`]).
    pub fn new(
        name: impl Into<String>,
        hardware_id: impl Into<String>,
        program: DataplaneProgram,
        config: PeraConfig,
    ) -> PeraSwitch {
        let name = name.into();
        let seed = Digest::of_parts(&[b"pera-seed", name.as_bytes()]).0;
        let regs = program.make_registers();
        PeraSwitch {
            name,
            regs,
            program,
            config,
            hardware_id: hardware_id.into(),
            signer: Signer::new(SigScheme::Hmac, seed, 0),
            cache: EvidenceCache::new(),
            seen_flows: HashSet::new(),
            stats: PeraStats::default(),
            tel: Telemetry::off(),
            counters: Vec::new(),
        }
    }

    /// Builder: attach a telemetry handle (see [`Self::set_telemetry`]).
    pub fn with_telemetry(mut self, tel: Telemetry) -> PeraSwitch {
        self.set_telemetry(tel);
        self
    }

    /// Attach a telemetry handle. The `pera.*` and `pera.cache.*`
    /// counter handles are resolved from the registry once, here, so
    /// publishing never takes the registry lock. Pass
    /// [`Telemetry::off`] to detach.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.counters = tel.registry().map_or_else(Vec::new, |r| {
            PUBLISHED.iter().map(|(name, _)| r.counter(name)).collect()
        });
        self.tel = tel;
    }

    /// The attached telemetry handle (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Builder: switch the signing backend (the E7/E11 ablation knob).
    pub fn with_scheme(mut self, scheme: SigScheme, mss_height: u32) -> PeraSwitch {
        let seed = Digest::of_parts(&[b"pera-seed", self.name.as_bytes()]).0;
        self.signer = Signer::new(scheme, seed, mss_height);
        self
    }

    /// Verification key to register with appraisers.
    pub fn verify_key(&self, epochs: u64) -> VerifyKey {
        self.signer.verify_key(epochs)
    }

    /// Hot-swap the dataplane program (legitimate upgrade *or* the UC1
    /// attack — the evidence cache is invalidated either way, so the
    /// next attestation measures the new program).
    pub fn load_program(&mut self, program: DataplaneProgram) {
        self.regs = program.make_registers();
        self.program = program;
        self.cache.invalidate(DetailLevel::Program);
    }

    /// Does the current packet open a sampling epoch (`PerEpoch` /
    /// `PerFlowEpoch`)? Called after the packet counter is incremented,
    /// so `self.stats.packets` is the 1-based index of the current
    /// packet; epochs are phase-aligned to the *first* packet.
    fn epoch_opens(&self) -> bool {
        let index0 = self.stats.packets.saturating_sub(1);
        match self.config.sampling {
            Sampling::PerEpoch(n) | Sampling::PerFlowEpoch(n) => index0.is_multiple_of(n.max(1)),
            _ => false,
        }
    }

    /// Should the current packet, whose pipeline pass left `phv`, be
    /// attested per the sampling config? Periodic modes are
    /// phase-aligned to the *first* packet: `EveryN(n)` attests packets
    /// 1, n+1, 2n+1, … and an epoch of length n opens at packet 1. Only
    /// the per-flow modes read the flow key.
    fn sample(&mut self, phv: &Phv) -> bool {
        match self.config.sampling {
            Sampling::PerPacket => true,
            Sampling::EveryN(n) => self
                .stats
                .packets
                .saturating_sub(1)
                .is_multiple_of(u64::from(n.max(1))),
            Sampling::PerFlow => self.seen_flows.insert(flow_key(phv)),
            Sampling::PerEpoch(_) => self.epoch_opens(),
            Sampling::PerFlowEpoch(_) => {
                // Epoch boundary: forget which flows were attested.
                if self.epoch_opens() {
                    self.seen_flows.clear();
                }
                self.seen_flows.insert(flow_key(phv))
            }
        }
    }

    /// One packet through the switch — the only hot path, shared by
    /// [`Self::process_packet`] and [`Self::process_batch`]. Runs the
    /// PISA pipeline; a packet that wrote registers invalidates the
    /// ProgState cache level, so its record attests the state after
    /// this packet. Counts the packet and, when it carries an
    /// attestation request and the sampling policy picks it, measures
    /// the configured details through the cache and chains them onto
    /// `prev` into an *unsigned* record. Signing is left to the caller:
    /// it is the only thing batching changes.
    fn step(
        &mut self,
        bytes: &[u8],
        ingress_port: u64,
        attestation: Option<(Nonce, Digest)>,
    ) -> Result<(PipelineOutput, Option<PendingRecord>), ParseErr> {
        // The register file's write generation replaces the historical
        // full-state serialization (two `canonical_bytes()` calls per
        // packet) for ProgState invalidation: O(1) instead of O(cells).
        let regs_gen_before = self.regs.generation();
        let forward =
            self.program
                .process_traced(bytes, ingress_port, &mut self.regs, &self.tel)?;
        if self.regs.generation() != regs_gen_before {
            self.cache.invalidate(DetailLevel::ProgState);
        }
        self.stats.packets += 1;
        let Some((nonce, prev)) = attestation else {
            return Ok((forward, None));
        };
        if forward.packet.is_none() || !self.sample(&forward.phv) {
            return Ok((forward, None));
        }
        self.stats.attested_packets += 1;
        let mut span = self.tel.span("pera.attest");
        if span.is_active() {
            // Trace identity is stamped at measurement time: the trace
            // is the nonce's canonical one, the span is site-scoped by
            // (switch, attested-packet index), so per-packet and batched
            // runs stamp identical trace trees.
            span.set("switch", self.name.as_str());
            pda_telemetry::TraceCtx::for_nonce(nonce.0)
                .child(&self.name, self.stats.attested_packets)
                .stamp(&mut span);
        }
        let chained = matches!(self.config.composition, EvidenceComposition::Chained);
        let prev = if chained { prev } else { Digest::ZERO };
        let details = self.measure_details(bytes);
        let record = PendingRecord::new(&self.name, details, nonce, prev);
        drop(span);
        Ok((forward, Some(record)))
    }

    /// Measure every configured detail level through the cache — the
    /// Create/Inspect half of the evidence engine. Each lookup lands in
    /// the cache's books (hit / miss / uncacheable) and the audit log;
    /// a `LintVerdict` miss that ran the analyzer adds its findings to
    /// the lint books.
    fn measure_details(&mut self, packet: &[u8]) -> Vec<(DetailLevel, Digest)> {
        let mut details = Vec::with_capacity(self.config.details.len());
        // Split the borrows up front: the cache (and the measurement
        // counter) are borrowed mutably while the measured objects are
        // borrowed shared, so the closure handed to `get_or_measure` can
        // run *lazily* — a cache hit never touches the program, tables,
        // or register file at all. (The telemetry fields are disjoint,
        // so auditing inside the loop coexists with these borrows.)
        let cache = &mut self.cache;
        let measurements = &mut self.stats.measurements;
        let (program, regs, hardware_id) = (&self.program, &self.regs, &*self.hardware_id);
        // When the LintVerdict level actually measures (analyzer run,
        // not a cache hit), the full report lands here so the lint
        // books and audit event below see the findings.
        let mut lint_outcome: Option<pda_analyze::AnalysisReport> = None;
        for &level in &self.config.details {
            let hits_before = cache.stats.hits;
            let mut measure = || {
                measure_level(
                    program,
                    regs,
                    hardware_id,
                    level,
                    packet,
                    measurements,
                    &mut lint_outcome,
                )
            };
            let d = if self.config.cache_enabled {
                cache.get_or_measure(level, measure)
            } else {
                cache.stats.misses += 1;
                measure()
            };
            let hit = cache.stats.hits > hits_before;
            self.tel.audit_with(|| AuditEvent::CacheLookup {
                attester: self.name.clone(),
                level: format!("{level:?}"),
                hit,
            });
            details.push((level, d));
        }
        if let Some(report) = lint_outcome {
            let findings = report.diagnostics.len() as u64;
            let errors = report.count(pda_analyze::Severity::Error) as u64;
            self.stats.lint_runs += 1;
            self.stats.lint_findings += findings;
            self.stats.lint_errors += errors;
            self.tel.audit_with(|| AuditEvent::Lint {
                subject: self.name.clone(),
                program: self.program.name.clone(),
                findings,
                errors,
                worst: report.worst().map(|w| w.name().to_string()),
                verdict: report.verdict_digest().to_hex(),
            });
        }
        details
    }

    /// Sign one record on its own: one signing operation, one
    /// `pera.sign` span.
    fn sign(&mut self, record: PendingRecord) -> EvidenceRecord {
        let sig = {
            let _span = self.tel.span("pera.sign");
            self.signer
                .sign(record.chain.as_bytes())
                .expect(SIGNER_EXHAUSTED)
        };
        self.stats.signatures += 1;
        self.emit(record, sig)
    }

    /// Sign everything in `pending` with ONE signing operation and move
    /// the finished records into `out`. A lone record is signed on its
    /// own, exactly as on the per-packet path; two or more share one
    /// Merkle root signature through per-record inclusion proofs
    /// ([`Signer::sign_batch`]). No-op when `pending` is empty.
    fn flush(&mut self, pending: &mut Vec<PendingRecord>, out: &mut Vec<EvidenceRecord>) {
        if pending.len() <= 1 {
            out.extend(pending.pop().map(|record| self.sign(record)));
            return;
        }
        let sigs = {
            let _span = self.tel.span("pera.sign");
            let msgs: Vec<&[u8]> = pending
                .iter()
                .map(|p| p.chain.as_bytes() as &[u8])
                .collect();
            self.signer.sign_batch(&msgs).expect(SIGNER_EXHAUSTED)
        };
        self.stats.signatures += 1;
        for (record, sig) in pending.drain(..).zip(sigs) {
            let record = self.emit(record, sig);
            out.push(record);
        }
    }

    /// Attach `sig` to a measured record and account for it: the
    /// `records` / `evidence_bytes` books plus the per-record Evidence
    /// and Signature audit events. Signing operations are counted where
    /// they happen, not here — under batching, N records share one.
    fn emit(&mut self, record: PendingRecord, sig: Signature) -> EvidenceRecord {
        let record = record.into_record(sig);
        let bytes = record.wire_size() as u64;
        self.stats.records += 1;
        self.stats.evidence_bytes += bytes;
        self.tel.audit_with(|| AuditEvent::Evidence {
            attester: self.name.clone(),
            nonce: record.nonce.0,
            levels: record
                .details
                .iter()
                .map(|(l, _)| format!("{l:?}"))
                .collect(),
            bytes,
            chained: matches!(self.config.composition, EvidenceComposition::Chained),
        });
        self.tel.audit_with(|| AuditEvent::Signature {
            signer: self.name.clone(),
            scheme: record.sig.label(),
            sig_bytes: record.sig.wire_size() as u64,
        });
        record
    }

    /// A snapshot of the books.
    fn books(&self) -> Books {
        (self.stats, self.cache.stats)
    }

    /// Add what every book entry gained since `before` to its `pera.*`
    /// registry counter — the only place this switch writes them. Runs
    /// at the end of each public processing call.
    fn publish(&self, before: Books) {
        let now = self.books();
        for ((_, read), counter) in PUBLISHED.iter().zip(&self.counters) {
            let gained = read(&now) - read(&before);
            if gained > 0 {
                counter.add(gained);
            }
        }
    }

    /// Process one packet: run the PISA pipeline; if the packet carries
    /// an attestation request (`nonce`), produce evidence per the
    /// sampling policy, chaining onto `prev`, and sign it on its own.
    ///
    /// Register writes performed by the pipeline invalidate the
    /// ProgState cache level.
    pub fn process_packet(
        &mut self,
        bytes: &[u8],
        ingress_port: u64,
        attestation: Option<(Nonce, Digest)>,
    ) -> Result<PeraOutput, ParseErr> {
        let before = self.books();
        // A packet that fails to parse changes no books.
        let (forward, record) = self.step(bytes, ingress_port, attestation)?;
        let evidence = record.map(|record| self.sign(record));
        self.publish(before);
        Ok(PeraOutput { forward, evidence })
    }

    /// Process a burst of packets. Every packet takes the per-packet
    /// step of [`Self::process_packet`]; batching changes only how the
    /// records are signed. They accumulate unsigned and are signed with
    /// ONE signing operation every `batch_size` packets: a Merkle root
    /// signature plus a per-record inclusion proof
    /// ([`pda_crypto::sign_batch`]). Pending records also flush early
    /// at epoch boundaries (`PerEpoch` / `PerFlowEpoch` sampling), so
    /// one batch commit never spans two epochs, and at the end of the
    /// call.
    ///
    /// Records carry the same chain values and details as a per-packet
    /// run; with `batch_size == 1` (the default) every record is signed
    /// individually and results — forwarding, evidence, stats, audit
    /// events — match [`Self::process_packet`] exactly.
    ///
    /// Under chained composition evidence links *through* the burst:
    /// the first record onto `attestation`'s prev digest, each later
    /// record onto its predecessor's chain value.
    pub fn process_batch<P: AsRef<[u8]>>(
        &mut self,
        packets: &[P],
        ingress_port: u64,
        attestation: Option<(Nonce, Digest)>,
    ) -> PeraBatchOutput {
        let before = self.books();
        let batch = self.config.batch_size.max(1) as usize;
        let mut forwards = Vec::with_capacity(packets.len());
        let mut evidence = Vec::new();
        let mut pending = Vec::new();
        let mut prev = attestation.map_or(Digest::ZERO, |(_, prev)| prev);
        for chunk in packets.chunks(batch) {
            for bytes in chunk {
                let request = attestation.map(|(nonce, _)| (nonce, prev));
                let step = self.step(bytes.as_ref(), ingress_port, request);
                forwards.push(step.map(|(forward, record)| {
                    if let Some(record) = record {
                        // Epoch boundary: sign what the previous epoch
                        // accumulated before this epoch's first record.
                        if self.epoch_opens() {
                            self.flush(&mut pending, &mut evidence);
                        }
                        prev = record.chain;
                        pending.push(record);
                    }
                    forward
                }));
            }
            // Size boundary: the chunk ends, sign what it produced.
            self.flush(&mut pending, &mut evidence);
        }
        self.publish(before);
        PeraBatchOutput { forwards, evidence }
    }

    /// Update a table entry at runtime (control-plane write): bumps the
    /// Tables cache generation.
    pub fn table_update(
        &mut self,
        table: &str,
        entry: pda_dataplane::tables::Entry,
    ) -> Result<(), String> {
        let t = self
            .program
            .stages
            .iter_mut()
            .map(|s| &mut s.table)
            .find(|t| t.name == table)
            .ok_or_else(|| format!("no table named {table}"))?;
        t.insert(entry).map_err(|e| e.to_string())?;
        self.cache.invalidate(DetailLevel::Tables);
        Ok(())
    }
}

/// A flow as the per-flow sampling modes tell flows apart: IP protocol,
/// source and destination address, source and destination port, and
/// the pipeline's own `meta.hash`.
type FlowKey = [u64; 6];

/// The exact flow key of the packet whose pipeline pass left `phv`. The
/// ports are those of whichever of `tcp` and `udp` is valid (zero when
/// neither is). Nothing is folded, so distinct flows never share a key.
fn flow_key(phv: &Phv) -> FlowKey {
    let (sport, dport) = if phv.is_valid("tcp") {
        (phv.get("tcp.sport"), phv.get("tcp.dport"))
    } else if phv.is_valid("udp") {
        (phv.get("udp.sport"), phv.get("udp.dport"))
    } else {
        (0, 0)
    };
    [
        phv.get("ipv4.proto"),
        phv.get("ipv4.src"),
        phv.get("ipv4.dst"),
        sport,
        dport,
        phv.get(meta::HASH),
    ]
}

/// Measure one detail level right now (uncached). A free function over
/// the individual measured objects — rather than a `&self` method — so
/// `measure_details` can hand it to [`EvidenceCache::get_or_measure`]
/// as a lazy closure while the cache itself is mutably borrowed: the
/// measurement runs only on a cache miss.
///
/// The `measurements` counter is a parameter (not bumped by the caller)
/// so that *every* path that computes a digest counts it — the
/// regression tests rely on this to detect any future reintroduction of
/// eager measurement ahead of the cache lookup.
///
/// Static levels go through [`reference_digest`], the rule enrollment
/// reads. `lint_out` receives the full analysis report when (and only
/// when) the `LintVerdict` level is measured, so `measure_details` can
/// surface the findings through the books and the audit log without
/// re-running the analyzer.
fn measure_level(
    program: &DataplaneProgram,
    regs: &Registers,
    hardware_id: &str,
    level: DetailLevel,
    packet: &[u8],
    measurements: &mut u64,
    lint_out: &mut Option<pda_analyze::AnalysisReport>,
) -> Digest {
    *measurements += 1;
    if level == DetailLevel::LintVerdict {
        let report = pda_analyze::analyze_default(program);
        let d = report.verdict_digest();
        *lint_out = Some(report);
        return d;
    }
    match reference_digest(program, hardware_id, level) {
        Some(d) => d,
        None if level == DetailLevel::ProgState => Digest::of(&regs.canonical_bytes()),
        None => Digest::of(packet),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
    use pda_dataplane::parser::{build_udp_packet, standard_parser};
    use pda_dataplane::programs;

    fn switch(config: PeraConfig) -> PeraSwitch {
        PeraSwitch::new(
            "sw1",
            "tofino-sim-1",
            programs::forwarding(&[(0, 0, 1)]),
            config,
        )
    }

    fn pkt(src: u32, dport: u16) -> Vec<u8> {
        build_udp_packet(0xa, 0xb, src, 0x0a000001, 1000, dport, b"payload!")
    }

    #[test]
    fn per_packet_sampling_attests_everything() {
        let mut sw = switch(PeraConfig::default().with_sampling(Sampling::PerPacket));
        for i in 0..10 {
            let out = sw
                .process_packet(&pkt(i, 53), 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap();
            assert!(out.evidence.is_some());
        }
        assert_eq!(sw.stats.attested_packets, 10);
    }

    #[test]
    fn per_flow_sampling_attests_once_per_flow() {
        let mut sw = switch(PeraConfig::default().with_sampling(Sampling::PerFlow));
        let mut evid = 0;
        for _ in 0..5 {
            for src in 0..3 {
                let out = sw
                    .process_packet(&pkt(src, 53), 0, Some((Nonce(1), Digest::ZERO)))
                    .unwrap();
                evid += usize::from(out.evidence.is_some());
            }
        }
        assert_eq!(evid, 3, "one record per distinct flow");
    }

    /// Attest `frames` in order under `PerFlow` sampling; returns how
    /// many records they produced.
    fn per_flow_records(frames: &[Vec<u8>]) -> usize {
        let mut sw = switch(PeraConfig::default().with_sampling(Sampling::PerFlow));
        frames
            .iter()
            .filter(|f| {
                sw.process_packet(f, 0, Some((Nonce(1), Digest::ZERO)))
                    .expect("frame parses")
                    .evidence
                    .is_some()
            })
            .count()
    }

    /// Two UDP flows whose fields cancel under an XOR fold (the high half
    /// of one destination against the low bit of the source port) are
    /// still two flows.
    #[test]
    fn per_flow_sampling_separates_flows_a_folded_key_would_merge() {
        let udp = |dst: u32, sport: u16| {
            build_udp_packet(0xa, 0xb, 0x0a00_0001, dst, sport, 2000, b"payload!")
        };
        assert_eq!(
            per_flow_records(&[udp(0x0001_0000, 1000), udp(0, 1001)]),
            2,
            "10.0.0.1:1000 -> 0.1.0.0:2000 and 10.0.0.1:1001 -> 0.0.0.0:2000"
        );
    }

    /// An Ethernet/IPv4/TCP frame: the IPv4 header of a UDP frame with
    /// the protocol rewritten, a 20-byte TCP header (SYN) and an 8-byte
    /// payload. Length and checksum fields are not maintained.
    fn tcp_pkt(src: u32, dst: u32, sport: u16, dport: u16) -> Vec<u8> {
        let mut b = build_udp_packet(0xa, 0xb, src, dst, 0, 0, b"")[..34].to_vec();
        b[23] = pda_dataplane::headers::consts::PROTO_TCP as u8;
        b.extend_from_slice(&sport.to_be_bytes());
        b.extend_from_slice(&dport.to_be_bytes());
        b.extend_from_slice(&[0; 8]); // seq, ack
        b.extend_from_slice(&[0x50, 0x02, 0xff, 0xff, 0, 0, 0, 0]);
        b.extend_from_slice(b"payload!");
        b
    }

    /// Per-flow sampling keys TCP connections on their own ports: two
    /// connections between the same hosts are two flows.
    #[test]
    fn per_flow_sampling_separates_tcp_connections() {
        let (a, b) = (0x0a00_0001, 0x0a00_0002);
        let frames = [tcp_pkt(a, b, 40000, 80), tcp_pkt(a, b, 40001, 80)];
        let parsed = standard_parser()
            .parse(&frames[0])
            .expect("tcp frame parses");
        assert!(parsed.phv.is_valid("tcp") && !parsed.phv.is_valid("udp"));
        assert_eq!(per_flow_records(&frames), 2);
        assert_eq!(per_flow_records(&[frames[0].clone(), frames[0].clone()]), 1);
    }

    #[test]
    fn every_n_sampling() {
        let mut sw = switch(PeraConfig::default().with_sampling(Sampling::EveryN(4)));
        let mut evid = 0;
        for i in 0..16 {
            let out = sw
                .process_packet(&pkt(i, 53), 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap();
            evid += usize::from(out.evidence.is_some());
        }
        assert_eq!(evid, 4);
    }

    /// Attestation sampling is aligned to the *first* packet: `EveryN`
    /// and the epoch schemes must attest packet 1, not wait a full
    /// period. This pins the intended phase so the historical off-by-one
    /// (pre-increment + `packets % n == 0`, which skipped packet 1 and
    /// first attested packet `n`) cannot silently return.
    #[test]
    fn sampling_phase_attests_first_packet() {
        for sampling in [
            Sampling::EveryN(4),
            Sampling::PerEpoch(5),
            Sampling::PerFlowEpoch(7),
        ] {
            let mut sw = switch(PeraConfig::default().with_sampling(sampling));
            let mut attested = Vec::new();
            for i in 1..=15u32 {
                let out = sw
                    .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
                    .unwrap();
                if out.evidence.is_some() {
                    attested.push(i);
                }
            }
            assert_eq!(
                attested.first(),
                Some(&1),
                "{sampling:?}: first packet must be attested"
            );
            match sampling {
                Sampling::EveryN(4) => assert_eq!(attested, vec![1, 5, 9, 13]),
                Sampling::PerEpoch(5) => assert_eq!(attested, vec![1, 6, 11]),
                // Single flow: re-attested at each epoch boundary.
                Sampling::PerFlowEpoch(7) => assert_eq!(attested, vec![1, 8, 15]),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn no_attestation_request_no_evidence() {
        let mut sw = switch(PeraConfig::default().with_sampling(Sampling::PerPacket));
        let out = sw.process_packet(&pkt(1, 53), 0, None).unwrap();
        assert!(out.evidence.is_none());
    }

    #[test]
    fn evidence_verifies_and_detects_program_swap() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::Hardware, DetailLevel::Program]),
        );
        let mut reg = KeyRegistry::new();
        reg.register(PrincipalId::new("sw1"), sw.verify_key(0));
        let golden_program = sw.program.digest();

        let out = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(7), Digest::ZERO)))
            .unwrap();
        let record = out.evidence.unwrap();
        assert_eq!(record.detail(DetailLevel::Program), Some(golden_program));
        assert_eq!(
            crate::evidence::verify_chain(&[record], &reg, Nonce(7), true),
            Ok(())
        );

        // The UC1 swap: rogue program with the same forwarding behaviour.
        sw.load_program(programs::rogue_wiretap(&[(0, 0, 1)], &[1], 31));
        let out = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(8), Digest::ZERO)))
            .unwrap();
        let record = out.evidence.unwrap();
        assert_ne!(
            record.detail(DetailLevel::Program),
            Some(golden_program),
            "swap changes the attested digest"
        );
    }

    #[test]
    fn cache_hits_for_high_inertia_details() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::Hardware, DetailLevel::Program]),
        );
        for i in 0..50 {
            sw.process_packet(&pkt(i, 53), 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap();
        }
        assert!(
            sw.cache.stats.hit_rate() > 0.9,
            "rate {}",
            sw.cache.stats.hit_rate()
        );
    }

    #[test]
    fn cache_disabled_always_measures() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_cache(false),
        );
        for i in 0..10 {
            sw.process_packet(&pkt(i, 53), 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap();
        }
        assert_eq!(sw.cache.stats.hits, 0);
        let per_record = sw.config.details.len() as u64;
        assert_eq!(sw.stats.measurements, 10 * per_record);
    }

    /// Regression guard for the evidence-cache bypass: the switch used to
    /// compute the measurement eagerly and pass the finished digest into
    /// `get_or_measure`, so cache *hits* were recorded while the
    /// measurement cost was still paid on every record. Every digest
    /// computation now routes through `measure_level`, which bumps
    /// `stats.measurements` — so if eager measurement is ever
    /// reintroduced, the second attestation below stops being free and
    /// this test fails.
    #[test]
    fn cached_attestation_of_unchanged_switch_measures_nothing() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[
                    DetailLevel::Hardware,
                    DetailLevel::Program,
                    DetailLevel::Tables,
                ]),
        );
        sw.process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap();
        let after_first = sw.stats.measurements;
        assert_eq!(after_first, 3, "cold cache: one measurement per level");

        // Nothing about the switch changed between the two attestations,
        // so the warm cache must satisfy every level without measuring.
        sw.process_packet(&pkt(2, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap();
        assert_eq!(
            sw.stats.measurements, after_first,
            "second attestation of an unchanged switch must perform zero measurements"
        );
        assert_eq!(sw.cache.stats.hits, 3);
    }

    /// The LintVerdict evidence level: the analyzer runs once on the
    /// cold cache, its digest separates rogue from benign programs
    /// with no golden-hash maintenance, a program swap re-lints via
    /// the `>=`-cascade invalidation, and each run lands in the lint
    /// books plus an audit event.
    #[test]
    fn lint_verdict_detail_attests_the_analyzer_verdict() {
        let tel = pda_telemetry::Telemetry::collecting();
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::Program, DetailLevel::LintVerdict]),
        )
        .with_telemetry(tel.clone());
        let benign_verdict = pda_analyze::analyze_default(&sw.program).verdict_digest();

        let a = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        assert_eq!(a.detail(DetailLevel::LintVerdict), Some(benign_verdict));
        let b = sw
            .process_packet(&pkt(2, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        assert_eq!(
            a.detail(DetailLevel::LintVerdict),
            b.detail(DetailLevel::LintVerdict)
        );
        assert_eq!(
            sw.stats.lint_runs, 1,
            "warm cache must not re-run the analyzer"
        );

        // Program swap: the cascade invalidation re-lints, and the rogue
        // verdict digest differs even though nothing compared hashes.
        sw.load_program(programs::rogue_wiretap(&[(0, 0, 1)], &[1], 31));
        let c = sw
            .process_packet(&pkt(3, 53), 0, Some((Nonce(2), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        assert_ne!(c.detail(DetailLevel::LintVerdict), Some(benign_verdict));
        assert_eq!(sw.stats.lint_runs, 2);
        assert!(sw.stats.lint_findings > 0);

        assert!(
            sw.stats.lint_errors > 0,
            "the rogue run must contribute error-severity findings"
        );
        let lint_events: Vec<_> = tel
            .audit_log()
            .unwrap()
            .records()
            .into_iter()
            .filter_map(|r| match r.event {
                pda_telemetry::AuditEvent::Lint {
                    program, errors, ..
                } => Some((program, errors)),
                _ => None,
            })
            .collect();
        assert_eq!(lint_events.len(), 2, "one audit event per analyzer run");
        assert_eq!(lint_events[0].1, 0, "benign program lints clean of errors");
        assert!(lint_events[1].1 > 0, "rogue program lints with errors");
    }

    /// Rule updates also churn the lint verdict: `invalidate(Tables)`
    /// cascades to `LintVerdict` via the detail-axis ordering.
    #[test]
    fn table_update_invalidates_lint_verdict() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::LintVerdict]),
        );
        sw.process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap();
        assert_eq!(sw.stats.lint_runs, 1);
        sw.table_update(
            "ipv4_lpm",
            pda_dataplane::tables::Entry {
                key: vec![pda_dataplane::tables::KeyCell::Lpm {
                    value: 0x0b00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: pda_dataplane::actions::Action::fwd(2),
            },
        )
        .unwrap();
        sw.process_packet(&pkt(2, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap();
        assert_eq!(sw.stats.lint_runs, 2, "rule update must force a re-lint");
    }

    #[test]
    fn prog_state_detail_invalidated_by_register_writes() {
        let mut sw = PeraSwitch::new(
            "sw1",
            "hw",
            programs::flow_monitor(8, 1),
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::ProgState]),
        );
        let a = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        let b = sw
            .process_packet(&pkt(2, 53), 0, Some((Nonce(1), a.chain)))
            .unwrap()
            .evidence
            .unwrap();
        // Counters moved → state digest must differ.
        assert_ne!(
            a.detail(DetailLevel::ProgState),
            b.detail(DetailLevel::ProgState)
        );
    }

    #[test]
    fn table_update_bumps_tables_generation() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::Tables]),
        );
        let a = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        sw.table_update(
            "ipv4_lpm",
            pda_dataplane::tables::Entry {
                key: vec![pda_dataplane::tables::KeyCell::Lpm {
                    value: 0x0b00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: pda_dataplane::actions::Action::fwd(2),
            },
        )
        .unwrap();
        let b = sw
            .process_packet(&pkt(2, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        assert_ne!(a.detail(DetailLevel::Tables), b.detail(DetailLevel::Tables));
        assert!(sw
            .table_update(
                "ghost",
                pda_dataplane::tables::Entry {
                    key: vec![],
                    priority: 0,
                    action: pda_dataplane::actions::Action::nop(),
                }
            )
            .is_err());
    }

    #[test]
    fn table_update_after_traffic_steers_the_next_packet() {
        // Routes installed at runtime reach the lookup index: each more
        // specific route for the packets' 10.0.0.1 takes over, a less
        // specific one does not.
        let mut sw = switch(PeraConfig::default().with_sampling(Sampling::PerPacket));
        let port = |sw: &mut PeraSwitch| {
            sw.process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap()
                .forward
                .egress_port
        };
        assert_eq!(port(&mut sw), 1);
        let routes = [
            (0x0a00_0000, 8, 2, 2),
            (0x0a00_0000, 24, 3, 3),
            (0x0a00_0000, 16, 4, 3),
        ];
        for (value, prefix_len, to, expect) in routes {
            sw.table_update(
                "ipv4_lpm",
                pda_dataplane::tables::Entry {
                    key: vec![pda_dataplane::tables::KeyCell::Lpm { value, prefix_len }],
                    priority: 0,
                    action: pda_dataplane::actions::Action::fwd(to),
                },
            )
            .unwrap();
            assert_eq!(port(&mut sw), expect, "after /{prefix_len}");
        }
    }

    #[test]
    fn chained_composition_links_records() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_composition(EvidenceComposition::Chained),
        );
        let a = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap()
            .evidence
            .unwrap();
        let b = sw
            .process_packet(&pkt(2, 53), 0, Some((Nonce(1), a.chain)))
            .unwrap()
            .evidence
            .unwrap();
        assert_eq!(b.prev, a.chain);
    }

    #[test]
    fn pointwise_composition_ignores_prev() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_composition(EvidenceComposition::Pointwise),
        );
        let a = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::of(b"x"))))
            .unwrap()
            .evidence
            .unwrap();
        assert_eq!(a.prev, Digest::ZERO);
    }

    /// The registry is a view of the books: with two switches on one
    /// registry, every counter in the publish table equals the sum of
    /// both switches' books after a mix of per-packet and batched
    /// calls, a mid-run cache invalidation, an uncacheable level
    /// (`Packets`) and analyzer runs (`LintVerdict`). The audit log and
    /// the span histograms agree with the books too.
    #[test]
    fn telemetry_registry_matches_stats_across_attested_run() {
        let tel = pda_telemetry::Telemetry::collecting();
        let mut a = switch(
            PeraConfig::default()
                .with_sampling(Sampling::EveryN(3))
                .with_details(&[
                    DetailLevel::Hardware,
                    DetailLevel::Program,
                    DetailLevel::ProgState,
                ]),
        )
        .with_telemetry(tel.clone());
        let mut b = PeraSwitch::new(
            "sw2",
            "tofino-sim-2",
            programs::forwarding(&[(0, 0, 1)]),
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_details(&[DetailLevel::LintVerdict, DetailLevel::Packets])
                .with_batch(4),
        )
        .with_telemetry(tel.clone());
        for i in 0..40 {
            a.process_packet(&pkt(i, 53), 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap();
            if i == 20 {
                // Force some invalidation traffic mid-run.
                a.cache.invalidate(DetailLevel::Program);
            }
        }
        let burst: Vec<Vec<u8>> = (0..10).map(|i| pkt(i, 53)).collect();
        a.process_batch(&burst, 0, Some((Nonce(2), Digest::ZERO)));
        b.process_batch(&burst, 0, Some((Nonce(2), Digest::ZERO)));
        // The rogue program re-lints with error-severity findings.
        b.load_program(programs::rogue_wiretap(&[(0, 0, 1)], &[1], 31));
        b.process_packet(&pkt(1, 53), 0, Some((Nonce(3), Digest::ZERO)))
            .unwrap();
        b.process_batch(&burst, 0, Some((Nonce(3), Digest::ZERO)));

        let reg = tel.registry().unwrap();
        for (name, read) in PUBLISHED {
            let books = read(&a.books()) + read(&b.books());
            assert_eq!(reg.counter(name).get(), books, "{name}");
            assert!(books > 0, "the run must exercise {name}");
        }
        // The audit log saw every lookup, one evidence + one signature
        // per record, and every span landed as a histogram sample.
        let sum = |f: fn(&PeraSwitch) -> u64| f(&a) + f(&b);
        let audit = tel.audit_log().unwrap().records();
        let count = |keep: fn(&pda_telemetry::AuditEvent) -> bool| {
            audit.iter().filter(|r| keep(&r.event)).count() as u64
        };
        assert_eq!(
            count(|e| matches!(e, pda_telemetry::AuditEvent::CacheLookup { .. })),
            sum(|sw| sw.cache.stats.lookups())
        );
        assert_eq!(
            count(|e| matches!(e, pda_telemetry::AuditEvent::Evidence { .. })),
            sum(|sw| sw.stats.records)
        );
        assert_eq!(
            reg.histogram("pera.attest.ns").count(),
            sum(|sw| sw.stats.records),
            "one attest span per record"
        );
        assert_eq!(
            reg.histogram("pera.sign.ns").count(),
            sum(|sw| sw.stats.signatures),
            "one sign span per signing operation"
        );
        assert_eq!(
            reg.histogram("pipeline.parse.ns").count(),
            sum(|sw| sw.stats.packets),
            "one parse span per packet"
        );
    }

    /// `process_batch` with `batch_size == 1` is the per-packet path:
    /// same forwarding results, same evidence chain digests, same stats.
    #[test]
    fn batch_of_one_matches_process_packet() {
        let cfg = PeraConfig::default()
            .with_sampling(Sampling::PerPacket)
            .with_details(&[DetailLevel::Hardware, DetailLevel::Program])
            .with_batch(1);
        let packets: Vec<Vec<u8>> = (0..6).map(|i| pkt(i, 53)).collect();

        let mut single = switch(cfg.clone());
        let mut prev = Digest::ZERO;
        let mut single_evidence = Vec::new();
        for p in &packets {
            let out = single.process_packet(p, 0, Some((Nonce(5), prev))).unwrap();
            if let Some(r) = out.evidence {
                prev = r.chain;
                single_evidence.push(r);
            }
        }

        let mut batched = switch(cfg);
        let out = batched.process_batch(&packets, 0, Some((Nonce(5), Digest::ZERO)));
        assert_eq!(out.forwards.len(), packets.len());
        assert!(out.forwards.iter().all(|f| f.is_ok()));

        assert_eq!(out.evidence.len(), single_evidence.len());
        for (a, b) in out.evidence.iter().zip(&single_evidence) {
            assert_eq!(a.chain, b.chain, "identical chain digests");
        }
        assert_eq!(batched.stats, single.stats);
    }

    /// The tentpole: batch signing amortizes the sign/verify unit. At
    /// batch 8, 16 attested packets cost 2 signing operations instead
    /// of 16, every record carries a verifiable (batch) signature, and
    /// the chain appraises exactly like a per-packet run.
    #[test]
    fn batch_signing_amortizes_signatures_and_verifies() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_batch(8),
        );
        let mut reg = KeyRegistry::new();
        reg.register(PrincipalId::new("sw1"), sw.verify_key(0));
        let packets: Vec<Vec<u8>> = (0..16).map(|i| pkt(i, 53)).collect();
        let out = sw.process_batch(&packets, 0, Some((Nonce(3), Digest::ZERO)));
        assert_eq!(out.evidence.len(), 16);
        assert_eq!(sw.stats.records, 16);
        assert_eq!(sw.stats.signatures, 2, "one signature per batch of 8");
        assert!(out.evidence.iter().all(|r| r.sig.label() == "batch(hmac)"));
        assert_eq!(
            crate::evidence::verify_chain(&out.evidence, &reg, Nonce(3), true),
            Ok(())
        );
    }

    /// Epoch boundaries force a flush: with PerEpoch sampling one batch
    /// commit never spans two epochs, even when batch_size is larger
    /// than the epoch.
    #[test]
    fn batch_flushes_at_epoch_boundaries() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerEpoch(2))
                .with_batch(64),
        );
        let packets: Vec<Vec<u8>> = (0..8).map(|i| pkt(i, 53)).collect();
        let out = sw.process_batch(&packets, 0, Some((Nonce(1), Digest::ZERO)));
        // Epochs of 2 over 8 packets → records at packets 1,3,5,7; each
        // epoch's single record flushes alone (signed individually).
        assert_eq!(out.evidence.len(), 4);
        assert_eq!(sw.stats.signatures, 4);
        assert!(out.evidence.iter().all(|r| r.sig.label() == "hmac"));
    }

    /// Malformed packets inside a burst surface as per-packet parse
    /// errors without disturbing their neighbours' evidence.
    #[test]
    fn batch_carries_per_packet_parse_errors() {
        let mut sw = switch(
            PeraConfig::default()
                .with_sampling(Sampling::PerPacket)
                .with_batch(4),
        );
        let good = pkt(1, 53);
        let runt = vec![0u8; 3];
        let packets = [good.as_slice(), runt.as_slice(), good.as_slice()];
        let out = sw.process_batch(&packets, 0, Some((Nonce(1), Digest::ZERO)));
        assert!(out.forwards[0].is_ok());
        assert!(out.forwards[1].is_err());
        assert!(out.forwards[2].is_ok());
        assert_eq!(out.evidence.len(), 2, "only parsed packets attest");
        assert_eq!(sw.stats.packets, 2, "parse errors are not counted");
    }

    #[test]
    fn dropped_packets_produce_no_evidence() {
        // Program with default drop: nothing to attest for dropped traffic.
        let mut sw = PeraSwitch::new(
            "sw1",
            "hw",
            programs::forwarding(&[]), // no routes → drop everything
            PeraConfig::default().with_sampling(Sampling::PerPacket),
        );
        let out = sw
            .process_packet(&pkt(1, 53), 0, Some((Nonce(1), Digest::ZERO)))
            .unwrap();
        assert!(out.forward.packet.is_none());
        assert!(out.evidence.is_none());
    }
}

#[cfg(test)]
mod flow_epoch_tests {
    use super::*;
    use pda_dataplane::parser::build_udp_packet;
    use pda_dataplane::programs;

    #[test]
    fn per_flow_epoch_reattests_established_flows() {
        let mut sw = PeraSwitch::new(
            "sw",
            "hw",
            programs::forwarding(&[(0, 0, 1)]),
            PeraConfig::default().with_sampling(Sampling::PerFlowEpoch(10)),
        );
        let pkt = build_udp_packet(1, 2, 3, 4, 10, 20, b"payload!");
        let mut evid = 0;
        for _ in 0..30 {
            let out = sw
                .process_packet(&pkt, 0, Some((Nonce(1), Digest::ZERO)))
                .unwrap();
            evid += usize::from(out.evidence.is_some());
        }
        // Epochs are aligned to the first packet: the flow is attested
        // when first seen (packet 1) and re-attested at each epoch
        // boundary thereafter (packets 11 and 21).
        assert_eq!(evid, 3);
    }

    #[test]
    fn per_flow_epoch_still_amortizes_across_flows() {
        let mut sw = PeraSwitch::new(
            "sw",
            "hw",
            programs::forwarding(&[(0, 0, 1)]),
            PeraConfig::default().with_sampling(Sampling::PerFlowEpoch(100)),
        );
        let mut evid = 0;
        for round in 0..10 {
            for flow in 0..5u32 {
                let pkt = build_udp_packet(1, 2, flow, 4, 10, 20, b"payload!");
                let out = sw
                    .process_packet(&pkt, 0, Some((Nonce(1), Digest::ZERO)))
                    .unwrap();
                evid += usize::from(out.evidence.is_some());
            }
            let _ = round;
        }
        // 50 packets < one epoch: exactly one record per flow.
        assert_eq!(evid, 5);
    }
}
