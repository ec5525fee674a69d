//! `forward`: the switch side, one thread, as fast as it goes.
//!
//! A seeded multi-flow UDP stream (frames from the minimum to a full
//! MTU) runs through a 3-hop chain of `PeraSwitch::process_packet`.
//! Each hop uses the service fleet's evidence configuration (per-packet
//! HMAC evidence over Hardware+Program, chained, cache on) and an LPM
//! table of a few hundred routes that the flows' destinations are spread
//! across. Outside the timed region every packet's egress ports are
//! checked against a reference longest-prefix match and its evidence
//! chain is verified against the hops' verification keys.

use crate::ledger::{SpanRef, Tracer};
use crate::util::{ns_since, percentile, shuffle, PeakRss, RefClock, SetupTimer};
use crate::{Config, Outcome};
use pda_crypto::digest::Digest;
use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
use pda_crypto::nonce::Nonce;
use pda_crypto::sha256::Sha256;
use pda_crypto::sig::{SigScheme, Signer};
use pda_dataplane::actions::execute;
use pda_dataplane::phv::meta;
use pda_dataplane::{build_udp_packet, programs, DataplaneProgram, Registers};
use pda_pera::config::{PeraConfig, Sampling};
use pda_pera::evidence::verify_chain;
use pda_pera::{EvidenceRecord, PeraSwitch};
use pda_telemetry::TraceId;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Switches on the path.
pub const HOPS: usize = 3;

/// Generated traffic and routing state.
struct Inputs {
    /// Per hop: (prefix, prefix length, egress port), in insertion order.
    routes: Vec<Vec<(u32, u8, u64)>>,
    /// Frames the stream cycles over.
    frames: Vec<Vec<u8>>,
    /// Per frame, the egress port each hop must choose.
    expected: Vec<[u64; HOPS]>,
    /// First nonce of the stream; packet `i` carries `nonce_base + i`.
    nonce_base: u64,
    /// SHA-256 of everything above, in hex: equal digests, equal traffic.
    digest: String,
}

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// Reference longest-prefix match: longest matching prefix, earliest
/// inserted on a tie.
fn lpm_port(routes: &[(u32, u8, u64)], dst: u32) -> Option<u64> {
    let mut best: Option<(u8, u64)> = None;
    for &(prefix, len, port) in routes {
        let mask = prefix_mask(len);
        if dst & mask == prefix & mask && best.is_none_or(|(l, _)| len > l) {
            best = Some((len, port));
        }
    }
    best.map(|(_, port)| port)
}

fn generate(cfg: &Config) -> Inputs {
    let sizes = &cfg.sizes;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut seen = HashSet::new();
    let mut prefixes: Vec<(u32, u8)> = Vec::with_capacity(sizes.routes);
    while prefixes.len() < sizes.routes {
        let len: u8 = rng.gen_range(8..=28);
        let value = rng.next_u64() as u32 & prefix_mask(len);
        if seen.insert((value, len)) {
            prefixes.push((value, len));
        }
    }
    let routes: Vec<Vec<(u32, u8, u64)>> = (0..HOPS)
        .map(|_| {
            let mut table: Vec<(u32, u8, u64)> = prefixes
                .iter()
                .map(|&(value, len)| (value, len, rng.gen_range(1..=4)))
                .collect();
            shuffle(&mut rng, &mut table);
            table
        })
        .collect();
    let flows: Vec<(u32, u32, u16, u16)> = (0..sizes.flows)
        .map(|_| {
            let (value, len) = prefixes[rng.gen_range(0..prefixes.len())];
            let dst = value | (rng.next_u32() & !prefix_mask(len));
            let src = 0x0a00_0000 | rng.gen_range(0..1u32 << 16);
            (
                src,
                dst,
                rng.gen_range(1024..=65535),
                rng.gen_range(1..=65535),
            )
        })
        .collect();
    let mut digest = Sha256::new();
    for table in &routes {
        for &(value, len, port) in table {
            digest.update(&value.to_le_bytes());
            digest.update(&[len, port as u8]);
        }
    }
    let mut frames = Vec::with_capacity(sizes.frames);
    let mut expected = Vec::with_capacity(sizes.frames);
    for _ in 0..sizes.frames {
        let (src, dst, sport, dport) = flows[rng.gen_range(0..flows.len())];
        // Payload from 8 bytes (a 50-byte frame) to 1472 (a full
        // 1500-byte IP MTU).
        let mut payload = vec![0u8; rng.gen_range(8..=1472)];
        rng.fill_bytes(&mut payload);
        let frame = build_udp_packet(0x02, 0x01, src, dst, sport, dport, &payload);
        digest.update(&frame);
        let mut ports = [0u64; HOPS];
        for (h, table) in routes.iter().enumerate() {
            ports[h] = lpm_port(table, dst).expect("every flow targets a routed prefix");
        }
        frames.push(frame);
        expected.push(ports);
    }
    let nonce_base = rng.gen_range(1..=1u64 << 40);
    digest.update(&nonce_base.to_le_bytes());
    Inputs {
        routes,
        frames,
        expected,
        nonce_base,
        digest: Digest(digest.finalize()).to_hex(),
    }
}

/// The benchmark's twins of one hop's pipeline and signer, used in the
/// traced run to time the inner layers on the same inputs.
struct Twin {
    program: DataplaneProgram,
    regs: Registers,
    signer: Signer,
}

impl Twin {
    fn of(sw: &PeraSwitch) -> Twin {
        let seed = Digest::of_parts(&[b"pera-seed", sw.name.as_bytes()]).0;
        Twin {
            program: sw.program.clone(),
            regs: sw.program.make_registers(),
            signer: Signer::new(SigScheme::Hmac, seed, 0),
        }
    }
}

/// Set-up: build the three switches and push one frame through them,
/// which fills each evidence cache.
fn build_hops(inputs: &Inputs) -> Vec<PeraSwitch> {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let mut hops: Vec<PeraSwitch> = inputs
        .routes
        .iter()
        .enumerate()
        .map(|(h, routes)| {
            PeraSwitch::new(
                format!("sw{}", h + 1),
                format!("tofino-sim-{h}"),
                programs::forwarding(routes),
                config.clone(),
            )
        })
        .collect();
    let mut bytes = inputs.frames[0].clone();
    let mut prev = Digest::ZERO;
    let mut port = 0;
    for sw in &mut hops {
        let out = sw
            .process_packet(&bytes, port, Some((Nonce(inputs.nonce_base - 1), prev)))
            .expect("warm-up frame parses");
        port = out.forward.egress_port;
        prev = out.evidence.map_or(prev, |r| r.chain);
        bytes = out.forward.packet.unwrap_or(bytes);
    }
    hops
}

/// One packet's result, checked after the timed batch.
struct Sent {
    frame: usize,
    nonce: u64,
    ports: [u64; HOPS],
    records: Vec<EvidenceRecord>,
    parsed: bool,
}

/// Push frame `frame` through every hop. With a tracer, each hop's
/// `process_packet` is a span and the inner layers are timed on the
/// hop's twin; returns the time spent on those twin calls, which is not
/// part of the operation.
fn send(
    hops: &mut [PeraSwitch],
    twins: &mut [Twin],
    inputs: &Inputs,
    frame: usize,
    nonce: u64,
    mut tracer: Option<&mut Tracer>,
) -> (Sent, u64) {
    let op = TraceId::for_nonce(nonce).0;
    let mut sent = Sent {
        frame,
        nonce,
        ports: [u64::MAX; HOPS],
        records: Vec::with_capacity(HOPS),
        parsed: true,
    };
    let mut replay_ns = 0;
    let mut bytes: Option<Vec<u8>> = None;
    let mut prev = Digest::ZERO;
    let mut port = 0;
    for (h, sw) in hops.iter_mut().enumerate() {
        let input: &[u8] = bytes.as_deref().unwrap_or(&inputs.frames[frame]);
        let start = Instant::now();
        let result = sw.process_packet(input, port, Some((Nonce(nonce), prev)));
        let dur = ns_since(start) as i64;
        let Ok(out) = result else {
            sent.parsed = false;
            break;
        };
        if let Some(tr) = tracer.as_deref_mut() {
            let span = tr.span("pera.process_packet_ns", op, None, start, dur);
            let replay = Instant::now();
            let twin = &mut twins[h];
            replay_inner(tr, op, span, twin, input, port, out.evidence.as_ref());
            replay_ns += ns_since(replay);
        }
        port = out.forward.egress_port;
        sent.ports[h] = port;
        if let Some(r) = out.evidence {
            prev = r.chain;
            sent.records.push(r);
        }
        match out.forward.packet {
            Some(next) => bytes = Some(next),
            None => break,
        }
    }
    (sent, replay_ns)
}

/// Time the layers inside one `process_packet` call on the same input:
/// the pipeline (`DataplaneProgram::process` on a twin program), and
/// within it the parser and each stage's table lookup; and the record's
/// signature with a twin signer of the hop's scheme.
fn replay_inner(
    tr: &mut Tracer,
    op: u64,
    parent: SpanRef,
    twin: &mut Twin,
    input: &[u8],
    port: u64,
    record: Option<&EvidenceRecord>,
) {
    let (program, regs) = (&twin.program, &mut twin.regs);
    let (_, dp) = tr.best_of("dataplane.process_ns", op, Some(parent), || {
        std::hint::black_box(program.process(input, port, regs))
    });
    let (parsed, _) = tr.best_of("dataplane.parse_ns", op, Some(dp), || {
        program.parser.parse(input)
    });
    if let Ok(mut parsed) = parsed {
        parsed.phv.set(meta::INGRESS_PORT, port);
        let mut scratch = program.make_registers();
        for stage in &program.stages {
            let (action, _) = tr.best_of("dataplane.lookup_ns", op, Some(dp), || {
                stage.table.lookup(&parsed.phv).clone()
            });
            execute(&action, &mut parsed.phv, &mut scratch);
        }
    }
    if let Some(r) = record {
        let signer = &mut twin.signer;
        let _ = tr.best_of("crypto.sign_ns", op, Some(parent), || {
            std::hint::black_box(signer.sign(r.chain.as_bytes()))
        });
    }
}

/// Check one packet: forwarded on the expected port at every hop, and
/// its chain verifies against the hops' keys.
fn check(inputs: &Inputs, registry: &KeyRegistry, sent: &Sent, invert: bool) -> bool {
    let ports_ok = sent.parsed && sent.ports == inputs.expected[sent.frame];
    let chain_ok = sent.records.len() == HOPS
        && verify_chain(&sent.records, registry, Nonce(sent.nonce), true).is_ok();
    (ports_ok && chain_ok) != invert
}

/// Counters read off the switches after the run.
struct Totals {
    records: u64,
    signatures: u64,
    measurements: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

fn totals(hops: &[PeraSwitch]) -> Totals {
    let mut t = Totals {
        records: 0,
        signatures: 0,
        measurements: 0,
        cache_hits: 0,
        cache_lookups: 0,
    };
    for sw in hops {
        t.records += sw.stats.records;
        t.signatures += sw.stats.signatures;
        t.measurements += sw.stats.measurements;
        t.cache_hits += sw.cache.stats.hits;
        t.cache_lookups += sw.cache.stats.lookups();
    }
    t
}

/// A measured stretch of the stream.
#[derive(Default)]
struct Phase {
    packets: u64,
    timed_ns: u64,
    /// End-to-end time of the traced packets, twin calls excluded.
    traced_ns: u64,
    traced: u64,
}

/// The per-run state shared by the phases.
struct Stream<'a> {
    inputs: &'a Inputs,
    registry: KeyRegistry,
    hops: Vec<PeraSwitch>,
    /// One per hop in a traced run, none otherwise.
    twins: Vec<Twin>,
    cursor: usize,
    seq: u64,
    attempted: u64,
    failed: u64,
    record_bytes: u64,
    records_seen: u64,
    /// Per-packet latency, nanoseconds.
    latencies: Vec<u64>,
    /// The timed packets in reference-kernel iterations.
    clock: RefClock,
    setups: SetupTimer,
    invert: bool,
}

impl Stream<'_> {
    /// Send the stream's next packet.
    fn next(&mut self, tracer: Option<&mut Tracer>) -> (Sent, u64) {
        let frame = self.cursor;
        self.cursor = (self.cursor + 1) % self.inputs.frames.len();
        let nonce = self.inputs.nonce_base + self.seq;
        self.seq += 1;
        send(
            &mut self.hops,
            &mut self.twins,
            self.inputs,
            frame,
            nonce,
            tracer,
        )
    }

    /// Check a sent packet and count its evidence, then drop it.
    fn tally(&mut self, sent: Sent) {
        self.attempted += 1;
        if !check(self.inputs, &self.registry, &sent, self.invert) {
            self.failed += 1;
        }
        for r in &sent.records {
            self.record_bytes += r.wire_size() as u64;
            self.records_seen += 1;
        }
    }

    /// Push every frame through once, untimed, checking each packet as
    /// it leaves (so the memory held is the switches' alone) and
    /// sampling memory after each.
    fn pass(&mut self, rss: &mut PeakRss) -> u64 {
        let frames = self.inputs.frames.len();
        for _ in 0..frames {
            let (sent, _) = self.next(None);
            self.tally(sent);
            rss.sample();
        }
        frames as u64
    }

    /// Send batches until `deadline`, tracing every `stride`-th packet
    /// when a tracer is given. Packets are checked after each batch.
    fn phase(
        &mut self,
        deadline: Instant,
        batch: usize,
        min_batches: usize,
        stride: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut done: Vec<Sent> = Vec::with_capacity(batch);
        let mut batches = 0;
        while batches < min_batches || Instant::now() < deadline {
            let batch_start = Instant::now();
            let mut replay_ns = 0;
            for _ in 0..batch {
                let nonce = self.inputs.nonce_base + self.seq;
                let traced = tracer.is_some() && (self.seq + 1).is_multiple_of(stride);
                let start = Instant::now();
                let (sent, replayed) = self.next(if traced { tracer.as_deref_mut() } else { None });
                let op_ns = ns_since(start) - replayed;
                replay_ns += replayed;
                self.latencies.push(op_ns);
                self.clock.op(op_ns);
                replay_ns += self.clock.tick();
                if traced {
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.op(TraceId::for_nonce(nonce).0, op_ns as i64);
                    }
                    phase.traced += 1;
                    phase.traced_ns += op_ns;
                }
                done.push(sent);
            }
            phase.timed_ns += ns_since(batch_start) - replay_ns;
            phase.packets += batch as u64;
            batches += 1;
            for sent in done.drain(..) {
                self.tally(sent);
            }
            let inputs = self.inputs;
            self.setups.maybe(|| build_hops(inputs));
        }
        phase
    }
}

/// Run the `forward` workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = &cfg.sizes;
    let inputs = generate(cfg);
    let mut out = Outcome::default();
    out.lines.push(format!(
        "workload forward: seed {}, inputs digest {}",
        cfg.seed, inputs.digest
    ));
    out.lines.push(format!(
        "params: {HOPS} hops of PeraSwitch::process_packet in one thread, {} LPM routes per hop, \
         {} flows, {} frames of 50..1514 B cycled, per-packet chained HMAC evidence over \
         Hardware+Program with the cache on; no link, packets are handed hop to hop in memory",
        sizes.routes, sizes.flows, sizes.frames
    ));

    // Peak memory is taken over one set-up and one untimed pass over
    // every frame, each packet checked and dropped as it leaves: a fixed
    // amount of work, so the figure does not depend on how many packets
    // the run's length allowed, and covers the switches rather than the
    // benchmark's batches. Further set-ups are timed between batches;
    // the traced run's twins are built after the reading.
    let mut setups = SetupTimer::new(cfg.seconds, sizes.setups, sizes.setup_burst);
    let mut rss = PeakRss::start();
    let hops = setups.time(|| build_hops(&inputs));
    let mut registry = KeyRegistry::new();
    for sw in &hops {
        registry.register(PrincipalId::new(sw.name.clone()), sw.verify_key(64));
    }
    let mut stream = Stream {
        inputs: &inputs,
        registry,
        hops,
        twins: Vec::new(),
        setups,
        cursor: 1,
        seq: 0,
        attempted: 0,
        failed: 0,
        record_bytes: 0,
        records_seen: 0,
        latencies: Vec::new(),
        clock: RefClock::default(),
        invert: cfg.invert_truth,
    };
    let pass_packets = stream.pass(&mut rss);
    let peak_rss_mb = rss.growth_mb();
    // The set-up pushed one frame through the switches kept, then the
    // untimed pass.
    let warmup_packets = 1 + pass_packets;

    if cfg.trace {
        // An untraced stretch calibrates the tracing overhead, then the
        // traced stretch samples every `stride`-th packet.
        let calib = stream.phase(
            crate::util::deadline(cfg.seconds * 0.3),
            sizes.batch,
            1,
            1,
            None,
        );
        let rate = calib.packets as f64 / (calib.timed_ns as f64 / 1e9);
        let expected = rate * cfg.seconds * 0.7;
        let stride = (expected / sizes.max_traced_ops as f64).ceil().max(1.0) as u64;
        stream.twins = stream.hops.iter().map(Twin::of).collect();
        let mut tracer = Tracer::default();
        let traced = stream.phase(
            crate::util::deadline(cfg.seconds * 0.7),
            sizes.batch,
            1,
            stride,
            Some(&mut tracer),
        );
        let packets = warmup_packets + calib.packets + traced.packets;
        per_layer(cfg, &mut out, &stream, &tracer, packets);
        let untraced_op = calib.timed_ns as f64 / calib.packets as f64;
        let traced_op = traced.traced_ns as f64 / traced.traced.max(1) as f64;
        out.set(
            "telemetry.trace_overhead_frac",
            traced_op / untraced_op - 1.0,
        );
        out.lines.push(format!(
            "traced: {} of {} packets (every {stride}th); untraced calibration {} packets",
            traced.traced, traced.packets, calib.packets
        ));
    } else {
        let phase = stream.phase(
            crate::util::deadline(cfg.seconds),
            sizes.batch,
            sizes.min_rounds,
            1,
            None,
        );
        let secs = phase.timed_ns as f64 / 1e9;
        let pkts_per_s = phase.packets as f64 / secs;
        let mut sorted = std::mem::take(&mut stream.latencies);
        sorted.sort_unstable();
        stream.clock.probe();
        crate::reference_metrics(&mut out, "packets", phase.packets, &mut stream.clock);
        out.set("setup_s", stream.setups.median());
        out.set("peak_rss_mb", peak_rss_mb);
        out.lines.push(format!(
            "metric pkts_per_s {pkts_per_s} pkt/s ({} packets in {secs:.3} s timed)",
            phase.packets
        ));
        crate::latency_lines(&mut out, "packet", "us", 1e3, &sorted);
        out.lines.push(format!(
            "metric evidence_bytes_per_pkt {} B ({} records over {} packets)",
            stream.record_bytes as f64 / stream.attempted.max(1) as f64,
            stream.records_seen,
            stream.attempted
        ));
        out.lines.push(format!(
            "metric setup_s {} s (reference seconds; median of {} set-ups, timed in bursts spread \
             over the run; wall median {} s)",
            stream.setups.median(),
            stream.setups.samples.len(),
            stream.setups.wall_median()
        ));
        out.lines.push(format!(
            "metric peak_rss_mb {peak_rss_mb} MB (largest anonymous-memory growth over the \
             generated inputs, sampled after one set-up and each of one pass of {pass_packets} \
             packets)"
        ));
    }
    out.attempted = stream.attempted;
    out.failed = stream.failed;
    Ok(out)
}

/// Per-layer metrics and the ledger of a traced run.
fn per_layer(cfg: &Config, out: &mut Outcome, stream: &Stream, tracer: &Tracer, packets: u64) {
    let p50 = |v: Vec<i64>| percentile(&v, 0.50) as f64;
    out.set(
        "dataplane.parse_ns",
        p50(tracer.durations("dataplane.parse_ns")),
    );
    out.set(
        "dataplane.lookup_ns",
        p50(tracer.durations("dataplane.lookup_ns")),
    );
    out.set(
        "dataplane.process_ns",
        p50(tracer.durations("dataplane.process_ns")),
    );
    out.set(
        "pera.process_packet_ns",
        p50(tracer.durations("pera.process_packet_ns")),
    );
    out.set(
        "pera.evidence_ns",
        p50(tracer.minus_children("pera.process_packet_ns", "dataplane.process_ns")),
    );
    out.set("crypto.sign_ns", p50(tracer.durations("crypto.sign_ns")));
    let t = totals(&stream.hops);
    out.set(
        "pera.cache_hit_rate",
        t.cache_hits as f64 / t.cache_lookups.max(1) as f64,
    );
    out.set("pera.records", t.records as f64);
    out.set("pera.signatures", t.signatures as f64);
    out.set("pera.measurements", t.measurements as f64);
    out.set(
        "pera.record_bytes",
        stream.record_bytes as f64 / stream.records_seen.max(1) as f64,
    );
    out.identity(
        "pera.records = 3 x packets",
        t.records,
        HOPS as u64 * packets,
    );
    crate::attach_ledger(cfg, out, tracer);
}
