//! Property tests for the evidence wire decoders —
//! `EvidenceRecord::read_wire`/`read_wire_all` and
//! `Signature::read_wire`, which the appraisal service runs on bytes
//! from the network. They never panic, they invert `write_wire` on
//! records a switch produced (per-packet and batch-signed), and any
//! truncation or byte flip that still decodes re-encodes to exactly the
//! bytes it was decoded from.

use pda_crypto::digest::Digest;
use pda_crypto::nonce::Nonce;
use pda_crypto::sig::{SigScheme, Signature};
use pda_dataplane::parser::build_udp_packet;
use pda_dataplane::programs;
use pda_pera::config::{DetailLevel, PeraConfig, Sampling};
use pda_pera::evidence::EvidenceRecord;
use pda_pera::PeraSwitch;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The detail levels switches draw a subset from. `LintVerdict` is left
/// out: on the wire it is one more tagged digest, and measuring it runs
/// the whole analyzer.
const LEVELS: [DetailLevel; 5] = [
    DetailLevel::Hardware,
    DetailLevel::Program,
    DetailLevel::Tables,
    DetailLevel::ProgState,
    DetailLevel::Packets,
];

/// What a generated evidence run looks like: how many packets, the
/// batch size (1 = per-packet signing through `process_packet`), the
/// detail-level subset as a bitmask over `LEVELS`, and the nonce.
type Run = (usize, u32, u8, u64);

fn run(max_packets: usize, max_batch: u32) -> impl Strategy<Value = Run> {
    (
        1..max_packets + 1,
        1..max_batch + 1,
        any::<u8>(),
        any::<u64>(),
    )
}

/// The records a PERA switch signed for `run` under `scheme`: per
/// packet through `process_packet` at batch size 1, otherwise through
/// `process_batch`, whose multi-record batches carry `Signature::Batch`.
fn records(scheme: SigScheme, (packets, batch, levels, nonce): Run) -> Vec<EvidenceRecord> {
    let details: Vec<DetailLevel> = (0..LEVELS.len())
        .filter(|i| levels & (1 << i) != 0)
        .map(|i| LEVELS[i])
        .collect();
    let config = PeraConfig::default()
        .with_sampling(Sampling::PerPacket)
        .with_details(&details)
        .with_batch(batch);
    let mut sw = PeraSwitch::new("sw-wire", "hw", programs::forwarding(&[(0, 0, 1)]), config)
        .with_scheme(scheme, 4);
    let frames: Vec<Vec<u8>> = (0..packets as u32)
        .map(|i| build_udp_packet(1, 2, i, 0x0a00_0001, 1000, 53, b"payload!"))
        .collect();
    let request = Some((Nonce(nonce), Digest::ZERO));
    if batch == 1 {
        frames
            .iter()
            .filter_map(|f| {
                sw.process_packet(f, 0, request)
                    .expect("frame parses")
                    .evidence
            })
            .collect()
    } else {
        sw.process_batch(&frames, 0, request).evidence
    }
}

fn encode(record: &EvidenceRecord) -> Vec<u8> {
    let mut out = Vec::new();
    record.write_wire(&mut out);
    out
}

/// Decode `bytes` every way the service can. Whatever decodes must
/// re-encode to exactly the bytes it consumed.
fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Some((record, used)) = EvidenceRecord::read_wire(bytes) {
        prop_assert_eq!(
            &encode(&record)[..],
            &bytes[..used],
            "read_wire re-encoding"
        );
    }
    if let Some(records) = EvidenceRecord::read_wire_all(bytes) {
        let again: Vec<u8> = records.iter().flat_map(encode).collect();
        prop_assert_eq!(&again[..], bytes, "read_wire_all re-encoding");
    }
    if let Some((sig, used)) = Signature::read_wire(bytes) {
        let mut again = Vec::new();
        sig.write_wire(&mut again);
        prop_assert_eq!(
            &again[..],
            &bytes[..used],
            "Signature::read_wire re-encoding"
        );
    }
    Ok(())
}

/// `records` decode back from their concatenated encoding, one by one
/// and all at once, to the same bytes.
fn check_round_trip(records: &[EvidenceRecord]) -> Result<(), TestCaseError> {
    let mut wire = Vec::new();
    for r in records {
        let one = encode(r);
        let (decoded, used) = EvidenceRecord::read_wire(&one).expect("own encoding decodes");
        prop_assert_eq!(used, one.len());
        prop_assert_eq!(encode(&decoded), one.clone());
        prop_assert_eq!(decoded.sig.label(), r.sig.label());
        wire.extend_from_slice(&one);
    }
    let all = EvidenceRecord::read_wire_all(&wire).expect("own encoding decodes");
    prop_assert_eq!(all.len(), records.len());
    let again: Vec<u8> = all.iter().flat_map(encode).collect();
    prop_assert_eq!(again, wire);
    Ok(())
}

/// Flip one byte of `wire` at `at` by a nonzero mask and check the
/// decoders on the result.
fn check_flip(wire: &[u8], at: usize, rng: &mut TestRng) -> Result<(), TestCaseError> {
    let mut flipped = wire.to_vec();
    flipped[at] ^= (rng.next_u32() as u8).max(1);
    check_decoders(&flipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic a decoder.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        check_decoders(&bytes)?;
    }

    /// HMAC records round-trip, per-packet and batch-signed.
    #[test]
    fn hmac_records_round_trip(run in run(9, 6)) {
        let records = records(SigScheme::Hmac, run);
        prop_assert_eq!(records.len(), run.0);
        // A batch of two or more records shares one root signature.
        let batched = records.iter().any(|r| matches!(r.sig, Signature::Batch(_)));
        prop_assert_eq!(batched, run.1 > 1 && run.0 > 1);
        check_round_trip(&records)?;
    }

    /// Every truncation and every single-byte flip of a valid encoding
    /// is decoded without panicking; what still decodes re-encodes to
    /// exactly the mutated bytes.
    #[test]
    fn mutated_hmac_records_decode_canonically(run in run(3, 3), seed in any::<u64>()) {
        let wire: Vec<u8> = records(SigScheme::Hmac, run).iter().flat_map(encode).collect();
        let mut rng = TestRng::from_seed(seed);
        for cut in 0..wire.len() {
            check_decoders(&wire[..cut])?;
            check_flip(&wire, cut, &mut rng)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Merkle many-time signatures, alone and as a batch root,
    /// round-trip; random truncations and flips of their (large)
    /// encoding decode canonically.
    #[test]
    fn merkle_records_round_trip(
        packets in 2usize..4,
        levels in any::<u8>(),
        nonce in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::from_seed(seed);
        for batch in [1, 2] {
            let records = records(SigScheme::MerkleMss, (packets, batch, levels, nonce));
            let batched = records.iter().any(|r| matches!(r.sig, Signature::Batch(_)));
            prop_assert_eq!(batched, batch > 1);
            check_round_trip(&records)?;
            let wire: Vec<u8> = records.iter().flat_map(encode).collect();
            for _ in 0..32 {
                let at = rng.below(wire.len());
                check_decoders(&wire[..at])?;
                check_flip(&wire, at, &mut rng)?;
            }
        }
    }
}
