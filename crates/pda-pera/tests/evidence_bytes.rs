//! What a PERA hop emits, pinned byte for byte in the configuration of
//! the benchmark's `forward` workload: three switches with 256-route LPM
//! `forwarding` tables, per-packet chained HMAC evidence over
//! Hardware+Program, cache on. Fixed frames of 50, 700 and 1514 bytes
//! give fixed egress ports, chain values and wire records (543 evidence
//! bytes per packet); any change to the pipeline or to how a record is
//! measured, chained, signed or encoded shows here as a changed byte.

use pda_crypto::digest::Digest;
use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
use pda_crypto::nonce::Nonce;
use pda_dataplane::{build_udp_packet, programs};
use pda_pera::config::{EvidenceComposition, PeraConfig, Sampling};
use pda_pera::{verify_chain, EvidenceRecord, PeraSwitch};
use std::collections::HashSet;

const HOPS: usize = 3;
const NONCE_BASE: u64 = 0x5eed_0000;

/// Per frame: the egress port at each hop.
const PORTS: [[u64; HOPS]; 3] = [[2, 3, 1], [2, 4, 4], [2, 1, 2]];

/// Per frame and hop, under chained composition: the chain value and
/// the wire record, in hex.
const CHAINED: [[(&str, &str); HOPS]; 3] = [
    [
        (
            "44bacbaca37f2b893fed53e6d71bebc343108b84a7aea07cc901baaa3e7ee091",
            concat!(
                "0000000373773100000002002b504035edb725baaa12cbe3925ac44e2598b099652df5d740234b8f",
                "cdb9929e01c84650a8117af7d175b00b8a033c3e6581fe4b6c92fbea82f92f0333aacca5c3000000",
                "005eed0000000000000000000000000000000000000000000000000000000000000000000044bacb",
                "aca37f2b893fed53e6d71bebc343108b84a7aea07cc901baaa3e7ee091009c52e9620237c1095e3f",
                "87d94820479774963723f8bf0814553e924334404b0c",
            ),
        ),
        (
            "9cef8781b4a7405d09a249ffa491ae3a8da57f81deaad1682fc0ecc61c0509c4",
            concat!(
                "000000037377320000000200cea1617d2a87a677b98655cdb36824efc85fc9efd29b78b716f9b4e9",
                "01de06c1010fe2e17483c415d32b24dc2396428c95282a3ec5c082556da60c60dd3e6c72fe000000",
                "005eed000044bacbaca37f2b893fed53e6d71bebc343108b84a7aea07cc901baaa3e7ee0919cef87",
                "81b4a7405d09a249ffa491ae3a8da57f81deaad1682fc0ecc61c0509c400b34197219a29a2b709b2",
                "bf2fbd370deb9d45d2fce4c61ecdee2c3881288cd3bc",
            ),
        ),
        (
            "9e0e754e90a5e7f34c23160bd6d590f3da0371161fad270c28977d7f4e9cb122",
            concat!(
                "00000003737733000000020091f482e4e478af7c2e799b7c974fd38b0933cdb6de5b2f6ac70a84bf",
                "b79c6613017e64931faa73453472121c3fc6c9970a09dd1f9ebbb48a3ff7eb704bf89b6faa000000",
                "005eed00009cef8781b4a7405d09a249ffa491ae3a8da57f81deaad1682fc0ecc61c0509c49e0e75",
                "4e90a5e7f34c23160bd6d590f3da0371161fad270c28977d7f4e9cb12200a8e6b15795e68348c86d",
                "bd7d7ca1474841a480ddf1b6ec7eec937f7a933b87d9",
            ),
        ),
    ],
    [
        (
            "c9590c79a4d3aa59868924af6d1f25cee04d4bdc3b4766c4c8f2b2be864cbef6",
            concat!(
                "0000000373773100000002002b504035edb725baaa12cbe3925ac44e2598b099652df5d740234b8f",
                "cdb9929e01c84650a8117af7d175b00b8a033c3e6581fe4b6c92fbea82f92f0333aacca5c3000000",
                "005eed00010000000000000000000000000000000000000000000000000000000000000000c9590c",
                "79a4d3aa59868924af6d1f25cee04d4bdc3b4766c4c8f2b2be864cbef6009b25e81255db03f49252",
                "977d755bd8f3159615a668682f822dc279146d298994",
            ),
        ),
        (
            "aeb168d31b751529b296e705d653bac7a64c7ac93a047443601f3cab8575da55",
            concat!(
                "000000037377320000000200cea1617d2a87a677b98655cdb36824efc85fc9efd29b78b716f9b4e9",
                "01de06c1010fe2e17483c415d32b24dc2396428c95282a3ec5c082556da60c60dd3e6c72fe000000",
                "005eed0001c9590c79a4d3aa59868924af6d1f25cee04d4bdc3b4766c4c8f2b2be864cbef6aeb168",
                "d31b751529b296e705d653bac7a64c7ac93a047443601f3cab8575da55001cf3c7d33f6f02a868f7",
                "5898519502cf87b1c2da023624e1a8335d1cabeb94b5",
            ),
        ),
        (
            "786d215a79a320ea3ae62d021db881bcfce39c3f1464509528e71cb9b2689cee",
            concat!(
                "00000003737733000000020091f482e4e478af7c2e799b7c974fd38b0933cdb6de5b2f6ac70a84bf",
                "b79c6613017e64931faa73453472121c3fc6c9970a09dd1f9ebbb48a3ff7eb704bf89b6faa000000",
                "005eed0001aeb168d31b751529b296e705d653bac7a64c7ac93a047443601f3cab8575da55786d21",
                "5a79a320ea3ae62d021db881bcfce39c3f1464509528e71cb9b2689cee0032be524210c027428f98",
                "c86db159c8610119c2589af7cd48b4145fc88d77f8f0",
            ),
        ),
    ],
    [
        (
            "f2bbea16e438b98c99bccf1c5bda96c628c86dc7e0cd47d42252830389272f86",
            concat!(
                "0000000373773100000002002b504035edb725baaa12cbe3925ac44e2598b099652df5d740234b8f",
                "cdb9929e01c84650a8117af7d175b00b8a033c3e6581fe4b6c92fbea82f92f0333aacca5c3000000",
                "005eed00020000000000000000000000000000000000000000000000000000000000000000f2bbea",
                "16e438b98c99bccf1c5bda96c628c86dc7e0cd47d42252830389272f86005a99ee7df7b7638294da",
                "6427e23132090cc05e336e3afd6c5b98927a34a52e66",
            ),
        ),
        (
            "5fda9521571fc5e9fc47d572b68f903d38a3c2ad9557cb714cc967c9ae5b6b2e",
            concat!(
                "000000037377320000000200cea1617d2a87a677b98655cdb36824efc85fc9efd29b78b716f9b4e9",
                "01de06c1010fe2e17483c415d32b24dc2396428c95282a3ec5c082556da60c60dd3e6c72fe000000",
                "005eed0002f2bbea16e438b98c99bccf1c5bda96c628c86dc7e0cd47d42252830389272f865fda95",
                "21571fc5e9fc47d572b68f903d38a3c2ad9557cb714cc967c9ae5b6b2e00708a60a83bcc4fd21c1c",
                "1e056af3078b05f5fe70866c9c01e8aa0d65b5b2ee87",
            ),
        ),
        (
            "98feffc39e573d2f1f0976163ff261e39bf58ebb693e8f888271fcdd0bd01e54",
            concat!(
                "00000003737733000000020091f482e4e478af7c2e799b7c974fd38b0933cdb6de5b2f6ac70a84bf",
                "b79c6613017e64931faa73453472121c3fc6c9970a09dd1f9ebbb48a3ff7eb704bf89b6faa000000",
                "005eed00025fda9521571fc5e9fc47d572b68f903d38a3c2ad9557cb714cc967c9ae5b6b2e98feff",
                "c39e573d2f1f0976163ff261e39bf58ebb693e8f888271fcdd0bd01e54009af04249af35068f2e17",
                "3a860b3ce5b9a4914f795a4751cac17c8492b40baace",
            ),
        ),
    ],
];

/// Per frame and hop, under pointwise composition: the chain value.
const POINTWISE: [[&str; HOPS]; 3] = [
    [
        "44bacbaca37f2b893fed53e6d71bebc343108b84a7aea07cc901baaa3e7ee091",
        "72249c7d27b0eeb0c6809fee4f43b8fdafa4b93fdb90e9e577cbe555502aa7b8",
        "0c922dfbaaf5e9b20669054a79c0fca4a2afb544a2fc42454ae611d4cb119702",
    ],
    [
        "c9590c79a4d3aa59868924af6d1f25cee04d4bdc3b4766c4c8f2b2be864cbef6",
        "a4f3294753dd75da00792f77410876be61a88c818cfcb000da9257fe9e8b42ea",
        "95d7c3b2e47a8b6117a56800ab19d85aefd6db08fb185558e2405774066f718a",
    ],
    [
        "f2bbea16e438b98c99bccf1c5bda96c628c86dc7e0cd47d42252830389272f86",
        "d69244d1fcdee799fb5160d8d89a6a124d35e97819a1cb14bc37c2e412f46231",
        "b21e20854ff12098c866d1b8654b9301cbe02f4d86ad1881546471953cbe9e91",
    ],
];

fn prefix_mask(len: u8) -> u32 {
    u32::MAX << (32 - u32::from(len))
}

/// 256 distinct /8../28 prefixes drawn from a SHA-256 counter stream,
/// each routed to a port in 1..=4 that differs from hop to hop.
fn routes(hop: usize) -> Vec<(u32, u8, u64)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for i in 0u32.. {
        if out.len() == 256 {
            break;
        }
        let d = Digest::of(&i.to_be_bytes()).0;
        let len = 8 + d[0] % 21;
        let value = u32::from_be_bytes([d[1], d[2], d[3], d[4]]) & prefix_mask(len);
        if seen.insert((value, len)) {
            out.push((value, len, 1 + u64::from(d[5 + hop] % 4)));
        }
    }
    out
}

/// Frames of 50, 700 and 1514 bytes, each to an address inside a
/// different route.
fn frames() -> Vec<Vec<u8>> {
    let table = routes(0);
    [(8usize, 3usize), (658, 101), (1472, 200)]
        .iter()
        .map(|&(payload_len, route)| {
            let (prefix, len, _) = table[route];
            let dst = prefix | (0x0000_3c5a & !prefix_mask(len));
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 7 + 3) as u8).collect();
            build_udp_packet(0x02, 0x01, 0x0a00_1234, dst, 40_000, 53, &payload)
        })
        .collect()
}

fn switches(composition: EvidenceComposition) -> Vec<PeraSwitch> {
    let config = PeraConfig::default()
        .with_sampling(Sampling::PerPacket)
        .with_composition(composition);
    (0..HOPS)
        .map(|h| {
            PeraSwitch::new(
                format!("sw{}", h + 1),
                format!("tofino-sim-{h}"),
                programs::forwarding(&routes(h)),
                config.clone(),
            )
        })
        .collect()
}

/// Each frame's egress port at every hop and its records, the frame
/// carrying nonce `NONCE_BASE + i`.
fn send(hops: &mut [PeraSwitch]) -> Vec<([u64; HOPS], Vec<EvidenceRecord>)> {
    frames()
        .into_iter()
        .enumerate()
        .map(|(i, frame)| {
            let nonce = Nonce(NONCE_BASE + i as u64);
            let (mut bytes, mut prev, mut port) = (frame, Digest::ZERO, 0);
            let mut ports = [0; HOPS];
            let mut records = Vec::new();
            for (h, sw) in hops.iter_mut().enumerate() {
                let out = sw
                    .process_packet(&bytes, port, Some((nonce, prev)))
                    .expect("frame parses");
                port = out.forward.egress_port;
                ports[h] = port;
                let record = out.evidence.expect("every packet is attested");
                prev = record.chain;
                records.push(record);
                bytes = out.forward.packet.expect("every frame is routed");
            }
            (ports, records)
        })
        .collect()
}

fn wire_hex(r: &EvidenceRecord) -> String {
    let mut out = Vec::new();
    r.write_wire(&mut out);
    out.iter().map(|b| format!("{b:02x}")).collect()
}

fn registry(hops: &[PeraSwitch]) -> KeyRegistry {
    let mut reg = KeyRegistry::new();
    for sw in hops {
        reg.register(PrincipalId::new(sw.name.clone()), sw.verify_key(64));
    }
    reg
}

#[test]
fn chained_hops_emit_the_pinned_bytes() {
    let mut hops = switches(EvidenceComposition::Chained);
    let reg = registry(&hops);
    for (i, (ports, records)) in send(&mut hops).iter().enumerate() {
        assert_eq!(*ports, PORTS[i], "frame {i}");
        assert_eq!(records.len(), HOPS);
        for (h, (r, (chain, wire))) in records.iter().zip(CHAINED[i]).enumerate() {
            assert_eq!(r.chain.to_hex(), chain, "frame {i} hop {h}");
            assert_eq!(wire_hex(r), wire, "frame {i} hop {h}");
        }
        let bytes: usize = records.iter().map(EvidenceRecord::wire_size).sum();
        assert_eq!(bytes, 543, "evidence bytes of frame {i}");
        let nonce = Nonce(NONCE_BASE + i as u64);
        assert!(verify_chain(records, &reg, nonce, true).is_ok());
    }
}

/// Under pointwise composition every record's `prev` is zero, so each
/// switch's records share their first block: from the second frame on,
/// every hop's chain digest resumes from its switch's cached midstate.
#[test]
fn pointwise_hops_emit_the_pinned_chains() {
    let mut hops = switches(EvidenceComposition::Pointwise);
    let reg = registry(&hops);
    for (i, (ports, records)) in send(&mut hops).iter().enumerate() {
        assert_eq!(*ports, PORTS[i], "frame {i}");
        for (h, (r, chain)) in records.iter().zip(POINTWISE[i]).enumerate() {
            assert_eq!(r.prev, Digest::ZERO);
            assert_eq!(r.chain.to_hex(), chain, "frame {i} hop {h}");
        }
        let nonce = Nonce(NONCE_BASE + i as u64);
        assert!(verify_chain(records, &reg, nonce, false).is_ok());
    }
}
