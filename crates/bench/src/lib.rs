//! Experiment implementations behind the `harness` binary. Each `exp_*`
//! function regenerates one paper artifact (figure, equation, or table
//! row set) and returns it as a [`Table`]; the harness prints and
//! serializes every table the same way, EXPERIMENTS.md records them.

use pda_copland::adversary::{analyze, AdversaryModel};
use pda_copland::ast::examples as copland_examples;
use pda_copland::parser::parse_request;
use pda_core::prelude::*;
use pda_crypto::digest::Digest;
use pda_crypto::hmac::HmacKeySchedule;
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
use pda_pera::{reference_digest, AdmissionPolicy, FailMode};
use pda_telemetry::json::Json;
use pda_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::time::Instant;

// ---------------------------------------------------------------------
// The result table every experiment returns
// ---------------------------------------------------------------------

/// A value that can fill one [`Table`] cell.
pub trait Cell {
    /// The cell as JSON, which is also what the table prints.
    fn cell(&self) -> Json;
}

impl Cell for bool {
    fn cell(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Cell for u32 {
    fn cell(&self) -> Json {
        Json::UInt(u64::from(*self))
    }
}

impl Cell for u64 {
    fn cell(&self) -> Json {
        Json::UInt(*self)
    }
}

impl Cell for usize {
    fn cell(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl Cell for f64 {
    fn cell(&self) -> Json {
        Json::Num(*self)
    }
}

impl Cell for &str {
    fn cell(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl Cell for String {
    fn cell(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// `None` is an empty cell: `-` in print, `null` in JSON.
impl<T: Cell> Cell for Option<T> {
    fn cell(&self) -> Json {
        self.as_ref().map_or(Json::Null, Cell::cell)
    }
}

/// One experiment section's result: named columns, rows of JSON cells,
/// and note lines for figures derived from the rows. The first row
/// fixes the column names; every later row must name the same ones.
#[derive(Clone, Debug)]
pub struct Table {
    /// Section id; the `experiment` key of the JSON document.
    pub id: &'static str,
    /// Heading printed above the columns.
    pub title: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<Json>>,
    /// Lines printed under the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(id: &'static str, title: impl Into<String>) -> Table {
        Table {
            id,
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row of `(column, value)` cells.
    ///
    /// # Panics
    ///
    /// If the row's column names differ from the first row's: the
    /// experiment built an inconsistent table.
    pub fn row(&mut self, cells: &[(&'static str, &dyn Cell)]) {
        let names: Vec<&'static str> = cells.iter().map(|(name, _)| *name).collect();
        if self.rows.is_empty() {
            self.columns = names;
        } else {
            assert_eq!(
                names, self.columns,
                "{}: a row's columns differ from the first row's",
                self.id
            );
        }
        self.rows
            .push(cells.iter().map(|(_, value)| value.cell()).collect());
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    /// Rows, each holding one cell per column.
    pub fn rows(&self) -> &[Vec<Json>] {
        &self.rows
    }

    /// The cell of row `row` in column `column`.
    pub fn get(&self, row: usize, column: &str) -> Option<&Json> {
        let c = self.columns.iter().position(|name| *name == column)?;
        self.rows.get(row)?.get(c)
    }

    /// The table as text: the title, the columns (each as wide as its
    /// widest cell; text left-aligned, everything else right-aligned),
    /// the notes, and a blank line.
    pub fn render(&self) -> String {
        let mut text = vec![self
            .columns
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()];
        text.extend(
            self.rows
                .iter()
                .map(|row| row.iter().map(cell_text).collect()),
        );
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                text.iter()
                    .map(|row| row[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("== {} ==\n", self.title);
        for row in &text {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(c, (cell, &w))| {
                    if self
                        .rows
                        .first()
                        .is_some_and(|first| matches!(first[c], Json::Str(_)))
                    {
                        format!("{cell:<w$}")
                    } else {
                        format!("{cell:>w$}")
                    }
                })
                .collect();
            out += cells.join("  ").trim_end();
            out.push('\n');
        }
        for note in &self.notes {
            out += note;
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// The table as a `{experiment, git_rev, rows}` document, one
    /// object per row keyed by column name.
    pub fn to_json(&self, git_rev: &str) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.columns
                        .iter()
                        .zip(row)
                        .map(|(name, cell)| (name.to_string(), cell.clone()))
                        .collect(),
                )
            })
            .collect();
        Json::Obj(vec![
            ("experiment".into(), Json::Str(self.id.into())),
            ("git_rev".into(), Json::Str(git_rev.into())),
            ("rows".into(), Json::Arr(rows)),
        ])
    }
}

/// How a cell prints: fractional numbers at three decimals (none from
/// 1000 up), an empty cell as `-`.
fn cell_text(cell: &Json) -> String {
    match cell {
        Json::Null => "-".into(),
        Json::Str(s) => s.clone(),
        Json::Num(x) if x.abs() >= 1000.0 => format!("{x:.0}"),
        Json::Num(x) => format!("{x:.3}"),
        other => other.encode(),
    }
}

// ---------------------------------------------------------------------
// E1 / Fig. 1 — RA principals round trip
// ---------------------------------------------------------------------

/// Fig. 1: run the out-of-band PERA attestation (eq 3) once per signing
/// backend and report the message/byte/check shape: protocol messages
/// in one claim→evidence→result round, evidence bytes transferred,
/// appraisal checks performed and whether appraisal passed. Appraisal
/// verdicts and spans land in `tel`'s registry and audit log (pass
/// [`Telemetry::off`] to record nothing).
pub fn exp_fig1(tel: &Telemetry) -> Table {
    let mut t = Table::new(
        "fig1",
        "E1 / Fig. 1: RA principals round (eq 3, out-of-band)",
    );
    for scheme in SigScheme::ALL {
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
        t.row(&[
            ("scheme", &scheme.to_string()),
            ("messages", &report.stats.messages),
            ("bytes", &report.stats.bytes),
            ("checks", &result.checks),
            ("ok", &result.ok),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E2 / Fig. 2 — in-band vs out-of-band evidence
// ---------------------------------------------------------------------

/// Fig. 2: drive one attested packet over paths of increasing length in
/// both evidence modes. Links are 1 Gbit/s (8 ns/byte), so the in-band
/// chain's growth shows up as end-to-end latency (`latency_ns`).
/// `wire_bytes` is data-plane bytes × links, `control_*` the
/// out-of-band channel, `records` the evidence the relying party holds
/// and `ok` whether that chain appraised clean.
pub fn exp_fig2(path_lengths: &[usize]) -> Table {
    let mut t = Table::new("fig2", "E2 / Fig. 2: in-band vs out-of-band evidence");
    let details = [DetailLevel::Hardware, DetailLevel::Program];
    for &n in path_lengths {
        let config = PeraConfig::default()
            .with_details(&details)
            .with_sampling(Sampling::PerPacket);
        for in_band in [true, false] {
            let mut net = linear_path_bw(n, &config, &[], 8);
            let golden = enroll_golden(&net.sim, &details);
            let appraiser = net.appraiser;
            let (variant, mode) = if in_band {
                ("in-band", EvidenceMode::InBand)
            } else {
                ("out-of-band", EvidenceMode::OutOfBand { appraiser })
            };
            net.send_attested(Nonce(1), mode, b"payload!");
            let chain = if in_band {
                net.server_chains()[0].chain.clone()
            } else {
                net.sim.evidence_at(appraiser).to_vec()
            };
            let stats = &net.sim.stats;
            t.row(&[
                ("variant", &variant),
                ("hops", &n),
                ("wire_bytes", &stats.wire_bytes),
                ("control_messages", &stats.control_messages),
                ("control_bytes", &stats.control_bytes),
                (
                    "latency_ns",
                    &net.sim.deliveries.first().map_or(0, |d| d.time),
                ),
                ("records", &chain.len()),
                (
                    "ok",
                    &appraise_chain(&chain, &net.sim.registry, &golden, Nonce(1), true).is_ok(),
                ),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E3 / equations (1)-(2) — adversary analysis
// ---------------------------------------------------------------------

/// Equations (1)-(2) plus a re-measurement hardening, analyzed against a
/// userspace adversary targeting `exts`. Per policy: the verdict, the
/// cheapest evasion's corruptions (0 when secure), how many of them are
/// recent (mid-protocol) and how many repairs it needs, and the number
/// of measurement linearizations admitting evasion.
pub fn exp_eqn12() -> Table {
    let mut t = Table::new("eq12", "E3 / equations (1)-(2): adversary analysis");
    let adversary = AdversaryModel::controlling(&["us"]);
    let hardened =
        parse_request("*bank : @ks [av us bmon] -<- (@us [bmon us exts] -<- @ks [av us bmon])")
            .expect("hardened variant parses");
    for (label, req) in [
        ("eq (1) parallel", copland_examples::bank_eq1()),
        ("eq (2) sequenced", copland_examples::bank_eq2()),
        ("eq (2) + re-measure", hardened),
    ] {
        let a = analyze(&req, &adversary, "exts");
        let (c, r, rep) = a
            .best_strategy
            .as_ref()
            .map(|s| (s.corruptions, s.recent_corruptions, s.repairs))
            .unwrap_or((0, 0, 0));
        t.row(&[
            ("policy", &label),
            ("verdict", &a.verdict.to_string()),
            ("corruptions", &c),
            ("recent", &r),
            ("repairs", &rep),
            ("evadable_linearizations", &a.strategies.len()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E4-E6 / Table 1 — the three attestation policies
// ---------------------------------------------------------------------

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

/// Table 1: compile AP1-AP3 against representative paths (AP1 over
/// `path_lengths` switches, AP2 pathless, AP3 with growing
/// non-attesting segments); report structure — clauses, directives
/// after resolution, abstract variables bound, non-attesting elements
/// skipped — the serialized options-header bytes, and the resolution
/// time (`resolve_ns`, single shot: indicative only).
pub fn exp_table1(path_lengths: &[usize]) -> Table {
    let mut t = Table::new("table1", "E4-E6 / Table 1: attestation policies AP1-AP3");
    let ap1_params = [("n", "1"), ("X", "prog")];
    let ap3_params = [
        ("F1", "firewall_v5.p4"),
        ("F2", "ids_v3.p4"),
        ("Peer1", "Peer1"),
        ("Peer2", "Peer2"),
    ];
    let mut cases: Vec<(&str, _, _, &[(&str, &str)])> = path_lengths
        .iter()
        .map(|&n| ("AP1", table1::ap1(), ap1_path(n), &ap1_params[..]))
        .collect();
    cases.push(("AP2", table1::ap2(), Vec::new(), &[("P", "c2_beacon")]));
    for transit in [0usize, 2, 6] {
        cases.push(("AP3", table1::ap3(), ap3_path(transit), &ap3_params));
    }
    for (label, policy, path, params) in cases {
        let t0 = Instant::now();
        let r = hybrid_resolve(&policy, &path, params, HComposition::Chained)
            .expect("table 1 policy resolves");
        let resolve_ns = t0.elapsed().as_nanos() as u64;
        let wire_bytes = wire::encode(&wire::WirePolicy {
            nonce: 1,
            flags: wire::Flags::default(),
            directives: r.directives.clone(),
        })
        .len();
        t.row(&[
            ("policy", &label),
            ("path_len", &path.len()),
            ("clauses", &policy.body.clause_count()),
            ("directives", &r.directives.len()),
            ("bindings", &r.bindings.len()),
            ("skipped", &r.skipped.len()),
            ("wire_bytes", &wire_bytes),
            ("resolve_ns", &resolve_ns),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E7 / Fig. 3 — PERA pipeline cost
// ---------------------------------------------------------------------

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

/// E7's large forwarding table: `count - 1` distinct /8–/28 prefixes
/// drawn from a digest stream, each to a port in 1..=4, then
/// 0.0.0.0/0 to port 1, so every packet is forwarded.
fn seeded_routes(count: usize) -> Vec<(u32, u8, u64)> {
    let mut seen = BTreeSet::new();
    let mut routes = Vec::with_capacity(count);
    for i in 0u64.. {
        if routes.len() + 1 >= count {
            break;
        }
        let d = Digest::of_parts(&[b"e7-route", &i.to_be_bytes()]).0;
        let len = 8 + d[0] % 21;
        let value = u32::from_be_bytes([d[1], d[2], d[3], d[4]]) & (u32::MAX << (32 - len));
        if seen.insert((value, len)) {
            routes.push((value, len, 1 + u64::from(d[5] % 4)));
        }
    }
    routes.push((0, 0, 1));
    routes
}

/// Fig. 3: packets/sec through the PISA pipeline alone vs PERA with
/// different signing backends and sampling rates: wall-clock
/// `ns_per_packet` (single-threaded), evidence records produced, and
/// the `slowdown` against the no-RA baseline. The PISA pipeline also
/// runs with a 256-route table beside the 1-route baseline: a lookup
/// probes one tuple per prefix length it visits, not every route.
/// Per-stage pipeline spans and PERA counters are recorded into `tel`;
/// the baseline passes run traced too, so the `pipeline.*` latency
/// histograms cover the no-RA case as well.
pub fn exp_fig3(packets: usize, tel: &Telemetry) -> Table {
    use Sampling::{EveryN, PerFlow, PerPacket};
    use SigScheme::{Hmac, LamportOts, MerkleMss};
    let mut t = Table::new(
        "fig3",
        format!("E7 / Fig. 3: PERA pipeline cost ({packets} packets, 64 flows)"),
    );
    let pkts = pipeline_packets(packets);

    // Baseline: plain PISA, no RA.
    let pisa_ns = |routes: &[(u32, u8, u64)]| {
        let prog = programs::forwarding(routes);
        let mut regs = prog.make_registers();
        let t0 = Instant::now();
        for p in &pkts {
            let out = prog.process_traced(p, 0, &mut regs, tel).expect("parses");
            assert!(out.packet.is_some(), "every E7 packet has a route");
        }
        t0.elapsed().as_nanos() as f64 / pkts.len() as f64
    };
    let baseline_ns = pisa_ns(&[(0, 0, 1)]);
    let baselines = [
        ("PISA baseline (no RA)", baseline_ns),
        (
            "PISA baseline (no RA), 256 routes",
            pisa_ns(&seeded_routes(256)),
        ),
    ];
    for (label, ns) in baselines {
        t.row(&[
            ("config", &label),
            ("packets", &pkts.len()),
            ("ns_per_packet", &ns),
            ("records", &0u64),
            ("slowdown", &(ns / baseline_ns)),
        ]);
    }

    let variants = [
        ("PERA hmac / per-packet", Hmac, PerPacket),
        ("PERA hmac / per-flow", Hmac, PerFlow),
        ("PERA hmac / every-100", Hmac, EveryN(100)),
        ("PERA lamport / per-flow", LamportOts, PerFlow),
        ("PERA merkle / per-flow", MerkleMss, PerFlow),
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
        t.row(&[
            ("config", &label),
            ("packets", &pkts.len()),
            ("ns_per_packet", &ns),
            ("records", &sw.stats.records),
            ("slowdown", &(ns / baseline_ns)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E8 / Fig. 4 — the design space: inertia × detail × composition
// ---------------------------------------------------------------------

/// Fig. 4: sweep the three axes (plus the cache ablation) over a fixed
/// 1000-packet, 64-flow workload: evidence records produced, average
/// evidence bytes per packet, and the evidence-cache hit rate.
pub fn exp_fig4() -> Table {
    let mut t = Table::new("fig4", "E8 / Fig. 4: design space (1000 packets, 64 flows)");
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
                    t.row(&[
                        ("details", &dlabel),
                        ("sampling", &sampling.to_string()),
                        ("composition", &composition.to_string()),
                        ("cache", &cache),
                        ("records", &sw.stats.records),
                        (
                            "bytes_per_packet",
                            &(sw.stats.evidence_bytes as f64 / pkts.len() as f64),
                        ),
                        ("hit_rate", &sw.cache.stats.hit_rate()),
                    ]);
                }
            }
        }
    }
    t
}

// ---------------------------------------------------------------------
// E9 / UC3 — DDoS mitigation
// ---------------------------------------------------------------------

/// UC3: legitimate flows carry valid chains; the botnet sends bare or
/// forged evidence. One row: flows and attack packets presented, how
/// many of each the gate admitted, and its precision and recall.
pub fn exp_uc3(legit: u64, attack: u64) -> Table {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let net = linear_path(3, &config, &[]);
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
    let registry = net.sim.registry;

    let mut legit_admitted = 0u64;
    for i in 0..legit {
        let mut net = linear_path(3, &config, &[]);
        net.send_attested(Nonce(100 + i), EvidenceMode::InBand, b"legit!!!");
        let chain = &net.server_chains()[0].chain;
        if appraise_chain(chain, &registry, &golden, Nonce(100 + i), true).is_ok() {
            legit_admitted += 1;
        }
    }
    let mut attack_admitted = 0u64;
    // Attackers alternate: no evidence (dropped unappraised) / forged
    // self-signed chain.
    for i in (0..attack).filter(|i| i % 2 == 1) {
        let mut signer = Signer::new(SigScheme::Hmac, [0xEE; 32], 0);
        let forged = pda_pera::evidence::EvidenceRecord::create(
            "sw1",
            vec![(DetailLevel::Program, Digest::of(b"claimed-clean"))],
            Nonce(9999 + i),
            Digest::ZERO,
            &mut signer,
        )
        .unwrap();
        if appraise_chain(&[forged], &registry, &golden, Nonce(9999 + i), true).is_ok() {
            attack_admitted += 1;
        }
    }
    let admitted_total = legit_admitted + attack_admitted;
    let precision = if admitted_total == 0 {
        1.0
    } else {
        legit_admitted as f64 / admitted_total as f64
    };
    let mut t = Table::new("uc3", "E9 / UC3: DDoS mitigation gate");
    t.row(&[
        ("legit", &legit),
        ("attack", &attack),
        ("legit_admitted", &legit_admitted),
        ("attack_admitted", &attack_admitted),
        ("precision", &precision),
        ("recall", &(legit_admitted as f64 / legit as f64)),
    ]);
    t
}

// ---------------------------------------------------------------------
// E10 / UC1 — detection latency vs sampling frequency
// ---------------------------------------------------------------------

/// UC1: swap a rogue program mid-stream; how many packets pass before
/// the appraiser sees a mismatching record under each sampling mode
/// (`-` when none does within 1000 packets), and how many evidence
/// records that window produced?
pub fn exp_uc1_detection(samplings: &[Sampling]) -> Table {
    let mut t = Table::new("uc1", "E10 / UC1: detection latency vs sampling");
    for &sampling in samplings {
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
        let mut records = 0u64;
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
        t.row(&[
            ("sampling", &sampling.to_string()),
            ("packets_to_detection", &detection),
            ("records", &records),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11 — crypto primitive costs
// ---------------------------------------------------------------------

/// Timed loops behind each E11 row, which reports the fastest: with one
/// loop and no warm-up, five runs read the 1500-byte HMAC row anywhere
/// from 8.6 to 41.5 µs.
const CRYPTO_REPEATS: usize = 5;

/// Per-call time of `op`: one untimed warm-up loop of `n` calls, then the
/// fastest of [`CRYPTO_REPEATS`] timed loops.
fn best_loop(n: u32, mut op: impl FnMut()) -> f64 {
    let mut lap = || {
        let t0 = Instant::now();
        for _ in 0..n {
            op();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(n)
    };
    lap();
    (0..CRYPTO_REPEATS)
        .map(|_| lap())
        .fold(f64::INFINITY, f64::min)
}

/// E11: single-threaded costs of the root-of-trust primitives: the
/// fastest per-call time over five loops after a warm-up
/// loop, and the output or signature size where one applies. The two
/// 32-byte rows are per-record evidence signing, HMAC over a record
/// digest with the key schedule recomputed per tag and precomputed once
/// ([`HmacKeySchedule`]); they are cheap enough that each loop runs
/// 16 × `iters` times. A Merkle signer signs each one-time key once, so
/// its sign row times one signature from each of five fresh
/// signers, after one from another signer as the warm-up.
pub fn exp_crypto(iters: u32) -> Table {
    let mut t = Table::new("crypto", "E11: root-of-trust primitive costs");
    let mut row = |op: &str, ns_per_op: f64, size_bytes: usize| {
        t.row(&[
            ("op", &op),
            ("ns_per_op", &ns_per_op),
            ("size_bytes", &size_bytes),
        ]);
    };
    let data = vec![0xabu8; 1500]; // one MTU
    let small = iters.min(64);
    use std::hint::black_box;

    let ns = best_loop(iters, || {
        black_box(Sha256::digest(&data));
    });
    row("sha256 (1500B)", ns, 32);

    let ns = best_loop(iters, || {
        black_box(pda_crypto::hmac::hmac_sha256(b"key", &data));
    });
    row("hmac-sha256 (1500B)", ns, 32);

    let (key, digest) = ([0x42u8; 32], [0x17u8; 32]);
    let many = iters.saturating_mul(16);
    let ns = best_loop(many, || {
        black_box(pda_crypto::hmac::hmac_sha256(&key, &digest));
    });
    row("hmac-sha256 (32B, fresh key)", ns, 32);
    let schedule = HmacKeySchedule::new(&key);
    let ns = best_loop(many, || {
        black_box(schedule.mac(&digest));
    });
    row("hmac-sha256 (32B, key schedule)", ns, 32);

    let (sk, pk) = LamportSecretKey::derive(&[7u8; 32], 0);
    let ns = best_loop(small, || {
        black_box(sk.sign(&data));
    });
    let sig = sk.sign(&data);
    let lamport_size = pda_crypto::lamport::LamportSignature::SIZE;
    row("lamport sign", ns, lamport_size);
    let ns = best_loop(small, || {
        black_box(pda_crypto::lamport::lamport_verify(&pk, &data, &sig));
    });
    row("lamport verify", ns, 0);

    let mut signers: Vec<MerkleSigner> = (0..=CRYPTO_REPEATS)
        .map(|_| MerkleSigner::new([9u8; 32], 6))
        .collect();
    let root = signers[0].public_root();
    let sign = |signer: &mut MerkleSigner| {
        let t0 = Instant::now();
        let sig = signer.sign(&data).expect("a fresh signer has unused keys");
        (t0.elapsed().as_nanos() as f64, sig)
    };
    let (_, sig) = sign(&mut signers[0]);
    let ns = signers[1..]
        .iter_mut()
        .map(|s| sign(s).0)
        .fold(f64::INFINITY, f64::min);
    row("merkle-mss sign", ns, sig.wire_size());
    let ns = best_loop(small, || {
        black_box(merkle_verify(&root, &data, &sig));
    });
    row("merkle-mss verify", ns, 0);

    // Signature sizes across schemes (the wire-cost axis).
    for scheme in SigScheme::ALL {
        let mut s = Signer::new(scheme, [3u8; 32], 6);
        let vk = s.verify_key(4);
        let sig = s.sign(&data).unwrap();
        assert!(sig_verify(&vk, &data, &sig));
        let op = match scheme {
            SigScheme::Hmac => "sig size: hmac",
            SigScheme::LamportOts => "sig size: lamport",
            SigScheme::MerkleMss => "sig size: merkle",
        };
        row(op, 0.0, sig.wire_size());
    }
    t
}

// ---------------------------------------------------------------------
// E12 — wire overhead vs path length
// ---------------------------------------------------------------------

/// E12: serialized policy size (options header) and accumulated in-band
/// evidence size at the receiver as the path grows.
pub fn exp_wire(path_lengths: &[usize]) -> Table {
    let mut t = Table::new("wire", "E12: wire overhead vs path length");
    for &n in path_lengths {
        let r = hybrid_resolve(
            &table1::ap1(),
            &ap1_path(n),
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
        t.row(&[
            ("hops", &n),
            ("policy_bytes", &policy_bytes),
            ("evidence_bytes", &net.server_chains()[0].in_band_bytes()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E19 — symbolic vs enumerative NetKAT verification scaling
// ---------------------------------------------------------------------

/// Runs behind each E19 time except the enumerative equivalence's; a
/// time is the fastest of them, since single shots on a 2-vCPU host
/// whose cores switch between two speeds swing by up to 2×.
const E19_REPEATS: usize = 3;

/// E19 — verify-time scaling, switch count × policy size, symbolic
/// (hash-consed SPP) vs enumerative (finite-model oracle) backends. For
/// each leaf count the harness checks `fabric_step(n)` ≡
/// `fabric_step_redundant(n)` (dead/duplicated/reordered clauses added)
/// and spine-leaf reachability from leaf 1 to leaf `n`, timing both
/// backends, then times the symbolic `verified_slice_for_switch` for
/// leaf 1 and for the spine (switch 0). Those symbolic columns are cold:
/// each query runs on a freshly spawned thread, whose symbolic session
/// is empty, and each symbolic time is the fastest of three runs.
/// `sym_reach_warm_ns` is a second leaf's reach in a session that has
/// already reached from leaf 1 twice, so it holds the compiled step
/// (`kept_nodes` counts the session's nodes then), and
/// `sym_all_slices_ns` times all `n + 1` slices in turn in one session.
/// `warm_queries`, `cold_queries` and `evictions` are the session books
/// ([`pda_netkat::sym::session_stats`]) after two rounds of the queries
/// `pdabench verify` asks, in one session: equivalence, a
/// counterexample against `fabric_step_broken(n)`, reach from every leaf,
/// every slice and every corpus pair. The enumerative reach is timed the same way as the cold symbolic one,
/// so the two compare; the enumerative equivalence, which takes seconds
/// at 256 switches, is a single run. The enumerative oracle only runs at
/// sizes ≤ `enum_cap` (its columns are empty above): its cost is
/// super-linear in mentioned constants and becomes impractical long
/// before the symbolic backend's.
/// `policy_size` is the step policy's AST size; both verdicts must hold,
/// and the note gives the symbolic equivalence speed-up at the largest
/// size both backends ran.
pub fn exp_e19(sizes: &[usize], enum_cap: usize) -> Table {
    use pda_netkat::corpus::{
        fabric_step, fabric_step_broken, fabric_step_redundant, policy_pairs,
    };
    use pda_netkat::equiv::{counterexample, counterexample_under, equivalent_enumerative};
    use pda_netkat::reach::can_reach_enumerative;
    use pda_netkat::specialize::verified_slice_for_switch;
    use pda_netkat::sym::{session_node_count, session_stats};

    /// Run `f` on a fresh thread, so in an empty session.
    fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("E19 query thread"))
    }
    /// `f` on [`E19_REPEATS`] fresh threads, each run timed on its thread:
    /// the last result and the fastest time.
    fn cold<T: Send>(f: impl Fn() -> T + Send + Sync) -> (T, u64) {
        let timed = || {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_nanos() as u64)
        };
        let (mut out, mut best) = fresh(timed);
        for _ in 1..E19_REPEATS {
            let (o, ns) = fresh(timed);
            (out, best) = (o, best.min(ns));
        }
        (out, best)
    }

    let mut t = Table::new(
        "e19",
        "E19: NetKAT verify-time scaling, symbolic vs enumerative",
    );
    let mut speedup = None;
    for &n in sizes {
        let p = fabric_step(n as u32);
        let q = fabric_step_redundant(n as u32);

        let (equivalent, sym_equiv_ns) =
            cold(|| counterexample_under(&Pred::True, &p, &q) == Ok(None));
        assert!(equivalent, "redundant fabric must stay equivalent");

        let enum_equiv_ns = (n <= enum_cap).then(|| {
            let t0 = Instant::now();
            let e = equivalent_enumerative(&p, &q);
            assert_eq!(e, Ok(true), "oracle must agree");
            t0.elapsed().as_nanos() as u64
        });

        // Reachability: start at a leaf with dst = last leaf; the step
        // policy hops leaf → spine → leaf dst.
        let from = |leaf: u32| {
            BTreeSet::from([Packet::of(&[
                (Field::Switch, leaf),
                (Field::Port, 2),
                (Field::Dst, n as u32),
            ])])
        };
        let goal = Pred::test(Field::Switch, n as u32);
        let (reachable, sym_reach_ns) = cold(|| can_reach(&p, &from(1), &goal));
        assert!(reachable, "fabric must connect leaf 1 to leaf {n}");
        let warm = || {
            fresh(|| {
                for _ in 0..2 {
                    assert!(can_reach(&p, &from(1), &goal));
                }
                let t0 = Instant::now();
                assert!(can_reach(&p, &from(2), &goal), "leaf 2 reaches leaf {n}");
                (t0.elapsed().as_nanos() as u64, session_node_count())
            })
        };
        let warm: Vec<(u64, usize)> = (0..E19_REPEATS).map(|_| warm()).collect();
        let sym_reach_warm_ns = warm.iter().map(|w| w.0).min();
        let kept_nodes = warm[0].1;

        let enum_reach_ns = (n <= enum_cap).then(|| {
            let (r, ns) = cold(|| can_reach_enumerative(&p, &from(1), &goal));
            assert!(r, "oracle must agree");
            ns
        });

        let slice_ns = |switches: std::ops::RangeInclusive<u32>| {
            cold(|| {
                for sw in switches.clone() {
                    std::hint::black_box(verified_slice_for_switch(&p, sw));
                }
            })
            .1
        };
        let sym_slice_leaf_ns = slice_ns(1..=1);
        let sym_slice_spine_ns = slice_ns(0..=0);
        let sym_all_slices_ns = slice_ns(0..=n as u32);

        // Two rounds of the controller's queries in one session, as
        // `pdabench verify` asks them: equivalence, a counterexample
        // against the broken rewrite, reach from every leaf, every slice
        // and every corpus pair.
        let broken = fabric_step_broken(n as u32);
        let pairs = policy_pairs();
        let books = fresh(|| {
            for _ in 0..2 {
                assert!(counterexample(&p, &q).is_none());
                assert!(counterexample(&p, &broken).is_some());
                for leaf in 1..=n as u32 {
                    assert!(can_reach(&p, &from(leaf), &goal));
                }
                for sw in 0..=n as u32 {
                    std::hint::black_box(verified_slice_for_switch(&p, sw));
                }
                for pair in &pairs {
                    let verdict = counterexample(&pair.p, &pair.q).is_none();
                    assert_eq!(verdict, pair.equivalent, "corpus pair {}", pair.name);
                }
            }
            session_stats()
        });

        if let Some(enum_ns) = enum_equiv_ns {
            speedup = Some((n, enum_ns as f64 / sym_equiv_ns.max(1) as f64));
        }
        t.row(&[
            ("switches", &n),
            ("policy_size", &p.size()),
            ("sym_equiv_ns", &sym_equiv_ns),
            ("enum_equiv_ns", &enum_equiv_ns),
            ("sym_reach_ns", &sym_reach_ns),
            ("sym_reach_warm_ns", &sym_reach_warm_ns),
            ("enum_reach_ns", &enum_reach_ns),
            ("kept_nodes", &kept_nodes),
            ("sym_slice_leaf_ns", &sym_slice_leaf_ns),
            ("sym_slice_spine_ns", &sym_slice_spine_ns),
            ("sym_all_slices_ns", &sym_all_slices_ns),
            ("warm_queries", &books.warm_queries),
            ("cold_queries", &books.cold_queries),
            ("evictions", &books.evictions),
            ("equivalent", &equivalent),
            ("reachable", &reachable),
        ]);
    }
    if let Some((n, x)) = speedup {
        t.notes.push(format!(
            "symbolic speedup at {n} switches (largest common size): {x:.0}x"
        ));
    }
    t
}

// ---------------------------------------------------------------------
// E13 — in-dataplane enforcement (Fig. 3's verify unit, UC3 in-network)
// ---------------------------------------------------------------------

/// E13: the UC3 DDoS scenario executed inside the simulator — an edge
/// switch's verify unit drops traffic lacking a valid ≥2-hop evidence
/// chain, with and without enforcement. Reports legitimate and attack
/// packets delivered to the victim and packets the verify unit dropped.
pub fn exp_enforcement(legit: u64, attack: u64) -> Table {
    let mut t = Table::new("enforce", "E13 / UC3 in-network: edge verify unit (Fig. 3)");
    for enforce in [false, true] {
        let out = pda_netsim::ddos::build(enforce).run(legit, attack);
        t.row(&[
            ("enforce", &enforce),
            ("legit_delivered", &out.legit_delivered),
            ("attack_delivered", &out.attack_delivered),
            ("enforcement_drops", &out.enforcement_drops),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E14 / UC4 — C2-scanner fidelity over a generated workload
// ---------------------------------------------------------------------

/// E14: for each `(flows, beacon_percent, seed)` workload, generate a
/// seeded workload with a known beacon fraction, run it through the
/// `c2scan_v1.p4` PERA switch, commit every flagged packet to the audit
/// trail, and compare against ground truth: the scanner is `exact` when
/// it flagged every beacon packet, nothing else, and audited each.
pub fn exp_uc4(workloads: &[(u32, u32, u64)]) -> Table {
    use pda_core::usecases::AuditTrail;
    use pda_netsim::traffic::{self, WorkloadSpec, BEACON};

    let mut t = Table::new("uc4", "E14 / UC4: C2-scanner fidelity (seeded workload)");
    for &(flows, beacon_percent, seed) in workloads {
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
        t.row(&[
            ("flows", &flows),
            ("beacon_flows", &beacon_flows),
            ("beacon_packets", &beacon_packets),
            ("flagged_packets", &flagged),
            ("audit_entries", &audit_entries),
            (
                "exact",
                &(flagged == beacon_packets && audit_entries as u64 == flagged),
            ),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E15 — evidence-path throughput (the per-packet hot path)
// ---------------------------------------------------------------------

/// Push `pkts` through one switch and return it with the elapsed
/// seconds. `batch == 1` runs `process_packet` per packet, optionally
/// emulating the seed hot path; `batch > 1` runs `process_batch`, one
/// signature per `batch` records (Merkle root signature + per-record
/// inclusion proofs), so the delta against the matching `batch == 1`
/// row isolates signing amortization.
fn e15_run(
    scheme: SigScheme,
    sampling: Sampling,
    cache: bool,
    seed_emulation: bool,
    batch: u32,
    pkts: &[Vec<u8>],
    tel: &Telemetry,
) -> (PeraSwitch, f64) {
    const DETAILS: [DetailLevel; 3] = [
        DetailLevel::Hardware,
        DetailLevel::Program,
        DetailLevel::Tables,
    ];
    let config = PeraConfig::default()
        .with_details(&DETAILS)
        .with_sampling(sampling)
        .with_cache(cache)
        .with_batch(batch);
    let mut sw = PeraSwitch::new("sw", "hw", programs::forwarding(&[(0, 0, 1)]), config)
        .with_scheme(scheme, 12)
        .with_telemetry(tel.clone());

    let t0 = Instant::now();
    if batch > 1 {
        let out = sw.process_batch(pkts, 0, Some((Nonce(1), Digest::ZERO)));
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(out.forwards.iter().all(|f| f.is_ok()), "all packets parse");
        return (sw, elapsed);
    }
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
                    std::hint::black_box(reference_digest(&sw.program, &sw.hardware_id, level));
                }
            }
        }
        if let Some(r) = out.evidence {
            prev = r.chain;
        }
    }
    (sw, t0.elapsed().as_secs_f64())
}

/// E15: packets/sec through `process_packet` across sampling × cache ×
/// scheme, plus an emulation of the seed hot path (evidence-cache
/// bypass + double register serialization) to quantify the fix; the
/// `vs_seed` column is each row's throughput over the emulation's.
/// `measurements` counts digest computations actually performed
/// (`PeraStats::measurements`).
///
/// The emulation re-pays the removed costs through public APIs — two
/// `Registers::canonical_bytes` serializations per packet and an eager
/// measurement of every detail level per record — so the speedup is
/// regenerable from this crate alone.
///
/// The evidence hot path is instrumented into `tel` (per-stage pipeline
/// spans, `pera.attest` latency, cache audit trail).
pub fn exp_e15(packets: usize, tel: &Telemetry) -> Table {
    use Sampling::{EveryN, PerPacket};
    use SigScheme::{Hmac, LamportOts, MerkleMss};
    let mut t = Table::new(
        "e15",
        format!("E15: evidence-path throughput ({packets} packets, 64 flows)"),
    );
    let pkts = pipeline_packets(packets);
    // (variant, scheme, sampling, cache, seed emulation, batch). The
    // seed emulation runs first: every row's `vs_seed` divides by it.
    #[rustfmt::skip]
    let runs = [
        ("seed-emulated hmac / per-packet / cache", Hmac, PerPacket, true, true, 1),
        ("hmac / per-packet / cache", Hmac, PerPacket, true, false, 1),
        ("hmac / per-packet / no-cache", Hmac, PerPacket, false, false, 1),
        ("hmac / every-100 / cache", Hmac, EveryN(100), true, false, 1),
        ("hmac / every-100 / no-cache", Hmac, EveryN(100), false, false, 1),
        ("lamport / every-100 / cache", LamportOts, EveryN(100), true, false, 1),
        ("merkle / every-100 / cache", MerkleMss, EveryN(100), true, false, 1),
        // The batch-signing rows: per-packet *signed* evidence with one
        // signature per 32 records. The lamport pair (batch 1 vs batch
        // 32) is the headline delta — per-record OTS signing dominates
        // the unbatched row, and the Merkle commit amortizes it away.
        // (No unbatched merkle/per-packet row: 10k records would
        // exhaust a height-12 MSS key tree; batch 32 needs only
        // ⌈10k/32⌉ = 313 of its 4096 keys.)
        ("lamport / per-packet / cache", LamportOts, PerPacket, true, false, 1),
        ("lamport / per-packet / cache / batch-32", LamportOts, PerPacket, true, false, 32),
        ("merkle / per-packet / cache / batch-32", MerkleMss, PerPacket, true, false, 32),
        ("hmac / per-packet / cache / batch-32", Hmac, PerPacket, true, false, 32),
    ];
    let mut seed_pps = f64::NAN;
    for (variant, scheme, sampling, cache, seed_emulation, batch) in runs {
        let (sw, elapsed) = e15_run(scheme, sampling, cache, seed_emulation, batch, &pkts, tel);
        let pkts_per_sec = pkts.len() as f64 / elapsed;
        if seed_emulation {
            seed_pps = pkts_per_sec;
        }
        t.row(&[
            ("variant", &variant),
            ("seed_emulation", &seed_emulation),
            ("batch", &batch),
            ("packets", &pkts.len()),
            ("pkts_per_sec", &pkts_per_sec),
            ("ns_per_packet", &(1e9 / pkts_per_sec)),
            ("records", &sw.stats.records),
            ("measurements", &sw.stats.measurements),
            ("hit_rate", &sw.cache.stats.hit_rate()),
            ("vs_seed", &(pkts_per_sec / seed_pps)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E16 — attestation under loss: fault plane × retry budget × fail mode
// ---------------------------------------------------------------------

/// E16: degradation sweep — loss rate (on every data link *and* the
/// out-of-band control channel) × control-channel retransmit budget
/// (0 = fire-and-forget) × enforcement fail mode at the last switch,
/// over a 3-switch PERA path, 400 packets per cell, half attested
/// in-band and half out-of-band. Reports out-of-band appraisal
/// `completeness` (the fraction of evidence pushes that reached the
/// appraiser after retransmits; the ≥99%-at-≤10%-loss acceptance bar
/// lives here), retransmissions, `goodput` (the fraction of packets
/// delivered), the enforcement `false_drop_rate` (every drop in this
/// sweep is a false one, since no forged traffic is injected) and the
/// admissions granted only because the policy failed open. Netsim and
/// enforcement telemetry (fault gauges, `pera.enforce.*` counters,
/// enforcement audit records) land in `tel`.
pub fn exp_e16(tel: &Telemetry) -> Table {
    const PACKETS: u64 = 400;
    let mut t = Table::new(
        "e16",
        format!("E16: attestation under loss (3 PERA hops, {PACKETS} pkts/cell)"),
    );
    for loss in [0.0, 0.05, 0.10, 0.20] {
        for retry in [ControlRetryPolicy::none(), ControlRetryPolicy::default()] {
            for fail_mode in [FailMode::FailClosed, FailMode::FailOpen] {
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
                // Legitimate mix: half the traffic attests in-band (the
                // enforcement point can inspect its chain), half
                // out-of-band (evidence bypasses the data path, so the
                // chain the enforcer sees is empty — exactly the
                // loss-vs-absence ambiguity the fail mode arbitrates).
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
                let stats = &lp.sim.stats;
                t.row(&[
                    ("loss", &loss),
                    ("retry_budget", &retry.max_retries),
                    ("fail_mode", &format!("{fail_mode:?}")),
                    (
                        "completeness",
                        &if attempts == 0 {
                            1.0
                        } else {
                            collected as f64 / attempts as f64
                        },
                    ),
                    ("retransmits", &fstats.control_retransmits),
                    ("goodput", &(stats.delivered as f64 / stats.injected as f64)),
                    (
                        "false_drop_rate",
                        &(stats.enforcement_drops as f64 / stats.injected as f64),
                    ),
                    (
                        "fail_open_admits",
                        &lp.sim.enforcement[&edge].stats.fail_open_admits,
                    ),
                ]);
            }
        }
    }
    t
}

// ---------------------------------------------------------------------
// E17 — static appraisal: rogue/benign separation without hash lists
// ---------------------------------------------------------------------

/// E17: run the `pda-analyze` static analyzer over every builtin
/// program (by corpus key, not the claimed `.p4` name) and appraise
/// each with `RequireLintClean(Warning)`. The point of the experiment:
/// both rogue variants are rejected and every benign program passes
/// **with zero hash-list maintenance** — the analyzer never saw a
/// blacklist, only the program itself; the note says whether the
/// verdicts separate rogue from benign. Columns: ground truth, the
/// diagnostics per severity, the verdict, and the mean wall-clock time
/// of one full analysis run (it runs off the hot path, at
/// `LintVerdict` cache-fill time). Every appraisal verdict is recorded
/// in `tel`'s audit log and `ra.*` counters.
pub fn exp_e17(tel: &Telemetry) -> Table {
    use pda_analyze::{analyze_default, corpus, Severity};
    const REPS: u32 = 16;
    let mut t = Table::new(
        "e17",
        "E17: static appraisal over the builtin corpus (RequireLintClean @ warning)",
    );
    let env = Environment::new().with_telemetry(tel.clone());
    let policy = pda_ra::RequireLintClean::new(Severity::Warning);
    let mut separated = true;
    for (builtin, program, rogue) in corpus::builtins() {
        let start = Instant::now();
        let mut report = analyze_default(&program);
        for _ in 1..REPS {
            report = analyze_default(&program);
        }
        let analysis_ns = (start.elapsed().as_nanos() / u128::from(REPS)) as u64;
        let ok = policy
            .appraise_program(&env, "bench-switch", &program, None)
            .result
            .ok;
        separated &= ok != rogue;
        t.row(&[
            ("program", &builtin),
            ("rogue", &rogue),
            ("info", &report.count(Severity::Info)),
            ("warnings", &report.count(Severity::Warning)),
            ("errors", &report.count(Severity::Error)),
            ("verdict", &if ok { "pass" } else { "REJECT" }),
            ("analysis_ns", &analysis_ns),
        ]);
    }
    t.notes.push(format!(
        "rogue/benign separation: {} (no hash lists consulted)",
        if separated { "complete" } else { "BROKEN" }
    ));
    t
}

// ---------------------------------------------------------------------
// E18 — the appraisal service under churn (pda-svc, live TCP)
// ---------------------------------------------------------------------

/// E18: boot the `pda-svc` appraisal service on a loopback port and
/// stream churn-driven continuous attestation through it over real
/// TCP — fleet restarts every epoch, lossy links, control-channel loss
/// with retries, switch-down windows, periodic rogue program reloads.
/// Three scenarios: a clean majority-quorum baseline, the same
/// federation under full churn, and a 2-of-3 quorum with one appraiser
/// deliberately corrupted (its dissent must stay visible while the
/// quorum out-votes it).
///
/// Per scenario: epochs driven (each a fleet restart), appraisals
/// completed, quorum accepts and rejects, verdicts matching ground
/// truth (`correct`: rogue reloads rejected, clean complete chains
/// accepted), rogue epochs and how many of their appraisals were
/// rejected, individual appraiser verdicts that disagreed with the
/// quorum (`svc.dissent`), throughput, and client-observed verdict
/// latency percentiles.
///
/// `tel` is shared by the service *and* every epoch's fleet: one
/// subscriber sees the whole evidence lifecycle (switch attest spans,
/// channel send/retry events, per-appraiser and quorum spans), all
/// joined by nonce-derived trace ids.
pub fn exp_e18(tel: &Telemetry) -> Table {
    use pda_svc::{run_churn, AppraisalService, ChurnConfig, Quorum, SvcClient, SvcConfig};
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

    let mut t = Table::new(
        "e18",
        "E18: appraisal service under churn (pda-svc, live TCP, 3 appraisers)",
    );
    for (variant, quorum, corrupt, churn_cfg) in scenarios {
        // Share the harness handle when instrumented; scenarios then
        // accumulate into one registry, so the per-scenario dissent
        // figure is a before/after delta.
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
        let mut server = pda_svc::serve("127.0.0.1:0", 4, Arc::clone(&svc)).expect("bind loopback");
        let client = SvcClient::new(server.addr);
        let report = run_churn(&client, &churn_cfg, tel).expect("churn run completes");
        let dissent = dissent_at(&svc_tel) - dissent_before;
        server.stop();
        t.row(&[
            ("variant", &variant),
            ("quorum", &quorum.to_string()),
            ("corrupt_appraiser", &corrupt),
            ("epochs", &report.epochs),
            ("appraisals", &report.appraisals),
            ("accepted", &report.accepted),
            ("rejected", &report.rejected),
            ("correct", &report.correct),
            ("rogue_epochs", &report.rogue_epochs),
            ("rogue_detected", &report.rogue_detected),
            ("dissent", &dissent),
            ("appraisals_per_sec", &report.appraisals_per_sec),
            ("p50_ns", &report.p50_ns),
            ("p99_ns", &report.p99_ns),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", "sample");
        t.row(&[("name", &"a"), ("verdict", &"short"), ("n", &1u64)]);
        t.row(&[
            ("name", &"bb"),
            ("verdict", &"a verdict much wider than its header"),
            ("n", &None::<u64>),
        ]);
        t.row(&[("name", &"c"), ("verdict", &"x"), ("n", &0.25)]);
        t
    }

    #[test]
    #[should_panic(expected = "columns differ")]
    fn a_row_naming_other_columns_panics() {
        let mut t = sample();
        t.row(&[("name", &"d"), ("n", &2u64), ("verdict", &"y")]);
    }

    #[test]
    fn wide_cells_keep_columns_aligned() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().skip(1).take(4).collect();
        // `n` is right-aligned and last, so aligned rows end together;
        // every cell starts where its header does.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{text}");
        let at = |l: &str, cell: &str| l.find(cell).unwrap();
        assert_eq!(at(lines[0], "verdict"), at(lines[2], "a verdict"));
        assert_eq!(at(lines[0], "verdict"), at(lines[3], "x"));
        assert!(
            lines[2].ends_with(" -") && lines[3].ends_with(" 0.250"),
            "{text}"
        );
    }

    #[test]
    fn json_reparses_into_one_object_per_row() {
        let t = sample();
        let text = t.to_json("rev").encode();
        let doc = pda_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("t"));
        assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some("rev"));
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), t.rows().len());
        for (i, row) in rows.iter().enumerate() {
            let keys: Vec<&str> = row
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, t.columns());
            for &column in t.columns() {
                assert_eq!(row.get(column), t.get(i, column));
            }
        }
    }
}
