//! Hop evidence records: what a PERA switch emits, in-band or
//! out-of-band, and how a verifier checks a chain of them.
//!
//! A record binds: the switch's identity, the digests of the attested
//! detail levels, the request nonce, and (in chained mode) the previous
//! record's chain value — all under one signature. The UC1 narrative
//! ("evidence for a packet p could indicate that p reached switch S1 …
//! was processed by firewall_v5.p4 and forwarded to S2 …") is exactly a
//! chain of these records.

use crate::config::DetailLevel;
use pda_crypto::digest::Digest;
use pda_crypto::keyreg::KeyRegistry;
use pda_crypto::nonce::Nonce;
use pda_crypto::sha256::{Midstate, Sha256};
use pda_crypto::sig::{SignError, Signature, Signer};
use std::fmt;

/// One hop's evidence.
#[derive(Clone, Debug)]
pub struct EvidenceRecord {
    /// Switch identity (or operator pseudonym).
    pub switch: String,
    /// Attested (level, digest) pairs, in detail-axis order.
    pub details: Vec<(DetailLevel, Digest)>,
    /// Request nonce this evidence answers.
    pub nonce: Nonce,
    /// Previous record's chain value (`Digest::ZERO` for the first hop
    /// or pointwise mode).
    pub prev: Digest,
    /// This record's chain value: `H(prev ‖ body)`.
    pub chain: Digest,
    /// Signature over the chain value.
    pub sig: Signature,
}

fn level_tag(level: DetailLevel) -> u8 {
    match level {
        DetailLevel::Hardware => 0,
        DetailLevel::Program => 1,
        DetailLevel::Tables => 2,
        DetailLevel::ProgState => 3,
        DetailLevel::Packets => 4,
        // Appended after the original five so pre-lint wire
        // encodings keep their tags.
        DetailLevel::LintVerdict => 5,
    }
}

fn level_from_tag(tag: u8) -> Option<DetailLevel> {
    Some(match tag {
        0 => DetailLevel::Hardware,
        1 => DetailLevel::Program,
        2 => DetailLevel::Tables,
        3 => DetailLevel::ProgState,
        4 => DetailLevel::Packets,
        5 => DetailLevel::LintVerdict,
        _ => return None,
    })
}

/// Decode caps for untrusted wire input: a switch name and detail list
/// beyond these bounds is garbage, and rejecting early keeps a hostile
/// length prefix from driving allocation.
const MAX_WIRE_SWITCH_LEN: u32 = 1024;
const MAX_WIRE_DETAILS: u32 = 64;

/// Stream the body fields into `sink` — one definition of the body
/// byte layout shared by the chain hasher (which consumes the bytes
/// directly, no intermediate `Vec`) and the wire serializer.
fn feed_body(
    mut sink: impl FnMut(&[u8]),
    switch: &str,
    details: &[(DetailLevel, Digest)],
    nonce: Nonce,
) {
    sink(&(switch.len() as u32).to_be_bytes());
    sink(switch.as_bytes());
    sink(&(details.len() as u32).to_be_bytes());
    for (level, d) in details {
        sink(&[level_tag(*level)]);
        sink(d.as_bytes());
    }
    sink(&nonce.to_bytes());
}

/// The first 64-byte block of the last chain digest computed through
/// it, with the SHA-256 midstate after that block. A chain digest whose
/// input starts with the same bytes resumes from the midstate and skips
/// one compression: a switch's records share their first block whenever
/// `prev` is zero (a first hop, or pointwise composition), since the
/// block then holds only the switch's name and the start of its first
/// detail. Keyed by the block's exact bytes, so anything that changes
/// those bytes (a new `prev`, a renamed switch, another first detail)
/// can only miss.
#[derive(Default)]
pub(crate) struct FirstBlock(Option<([u8; 64], Midstate)>);

impl FirstBlock {
    /// A hasher that has absorbed `block`: resumed from the midstate
    /// when `block` is the cached one, else compressed and cached.
    fn absorb(&mut self, block: &[u8; 64]) -> Sha256 {
        if let Some((cached, midstate)) = &self.0 {
            if cached == block {
                return Sha256::from_midstate(*midstate);
            }
        }
        let mut h = Sha256::new();
        h.update(block);
        let midstate = h.midstate().expect("a whole block leaves nothing buffered");
        self.0 = Some((*block, midstate));
        h
    }
}

/// Bytes of `prev ‖ body` staged on the stack before hashing: a record
/// of two details and a switch name of up to 14 bytes fits.
const STAGE: usize = 128;

/// `H(prev ‖ body)`, byte-identical to `prev.chain(&body_bytes)` (the
/// chain definition concatenates prev and body with no framing) whatever
/// `first` holds. The input is staged on the stack, not in a `Vec`; a
/// longer one (a long switch name, many details) streams its tail into
/// the hasher. The first 64 bytes are absorbed through `first`.
fn chain_digest(
    switch: &str,
    details: &[(DetailLevel, Digest)],
    nonce: Nonce,
    prev: Digest,
    first: &mut FirstBlock,
) -> Digest {
    let mut stage = [0; STAGE];
    let mut staged = 0;
    let mut hasher: Option<Sha256> = None;
    let mut sink = |part: &[u8]| match &mut hasher {
        Some(h) => h.update(part),
        None if part.len() <= STAGE - staged => {
            stage[staged..staged + part.len()].copy_from_slice(part);
            staged += part.len();
        }
        None => {
            let (now, later) = part.split_at(STAGE - staged);
            stage[staged..].copy_from_slice(now);
            hasher.insert(absorb_staged(&stage, first)).update(later);
        }
    };
    sink(prev.as_bytes());
    feed_body(&mut sink, switch, details, nonce);
    let h = match hasher {
        Some(h) => h,
        None => absorb_staged(&stage[..staged], first),
    };
    Digest(h.finalize())
}

/// A hasher that has absorbed `staged`, its first block through `first`.
fn absorb_staged(staged: &[u8], first: &mut FirstBlock) -> Sha256 {
    match staged.split_first_chunk::<64>() {
        Some((block, rest)) => {
            let mut h = first.absorb(block);
            h.update(rest);
            h
        }
        // An input shorter than a block has nothing to share.
        None => {
            let mut h = Sha256::new();
            h.update(staged);
            h
        }
    }
}

impl EvidenceRecord {
    /// Serialized body length (everything but prev/chain/signature):
    /// pure arithmetic, no serialization.
    pub fn body_len(&self) -> usize {
        4 + self.switch.len() + 4 + self.details.len() * 33 + 8
    }

    /// The causal trace context this record belongs to, derived from
    /// its nonce. The trace ID travels *with* the record through
    /// signing, batching, and wire emission by construction — the
    /// nonce is already a signed, chained field — so no wire-format
    /// change is needed and every hop that reassembles the record
    /// recovers the same trace.
    pub fn trace_ctx(&self) -> pda_telemetry::TraceCtx {
        pda_telemetry::TraceCtx::for_nonce(self.nonce.0)
    }

    /// Create and sign a record: [`PendingRecord::new`], one signature
    /// over its chain value, [`PendingRecord::into_record`].
    pub fn create(
        switch: &str,
        details: Vec<(DetailLevel, Digest)>,
        nonce: Nonce,
        prev: Digest,
        signer: &mut Signer,
    ) -> Result<EvidenceRecord, SignError> {
        let pending = PendingRecord::new(switch, details, nonce, prev);
        let sig = signer.sign(pending.chain.as_bytes())?;
        Ok(pending.into_record(sig))
    }

    /// Recompute the chain value from the record's own fields.
    pub fn recompute_chain(&self) -> Digest {
        chain_digest(
            &self.switch,
            &self.details,
            self.nonce,
            self.prev,
            &mut FirstBlock::default(),
        )
    }

    /// Serialize the full record — body, chain linkage, signature — by
    /// appending to a caller-provided buffer. This is the hot-path wire
    /// format: a switch flushing a batch writes every record into one
    /// buffer with no per-record allocation.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        feed_body(
            |part| out.extend_from_slice(part),
            &self.switch,
            &self.details,
            self.nonce,
        );
        out.extend_from_slice(self.prev.as_bytes());
        out.extend_from_slice(self.chain.as_bytes());
        self.sig.write_wire(out);
    }

    /// Wire size: body + signature + chain linkage. Computed
    /// arithmetically (no serialization); for batch-signed records the
    /// signature contribution is the amortized per-leaf share — see
    /// [`Signature::wire_size`].
    pub fn wire_size(&self) -> usize {
        self.body_len()
            + 64 // prev + chain digests
            + self.sig.wire_size()
    }

    /// Decode one record from the front of `buf`: the inverse of
    /// [`EvidenceRecord::write_wire`]. Returns the record and the bytes
    /// consumed, or `None` on truncated or malformed input. Never
    /// panics — this is the service-side entry point for evidence
    /// submitted over the network.
    ///
    /// Decoding is purely structural: the chain value is taken from the
    /// wire as-is, so [`verify_chain`] (or golden appraisal) must still
    /// run on the result.
    pub fn read_wire(buf: &[u8]) -> Option<(EvidenceRecord, usize)> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n)?;
            let s = buf.get(*pos..end)?;
            *pos = end;
            Some(s)
        };
        let switch_len = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if switch_len > MAX_WIRE_SWITCH_LEN {
            return None;
        }
        let switch = std::str::from_utf8(take(&mut pos, switch_len as usize)?)
            .ok()?
            .to_string();
        let n_details = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if n_details > MAX_WIRE_DETAILS {
            return None;
        }
        let mut details = Vec::with_capacity(n_details as usize);
        for _ in 0..n_details {
            let level = level_from_tag(take(&mut pos, 1)?[0])?;
            let mut d = [0u8; 32];
            d.copy_from_slice(take(&mut pos, 32)?);
            details.push((level, Digest(d)));
        }
        let nonce = Nonce::from_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let mut prev = [0u8; 32];
        prev.copy_from_slice(take(&mut pos, 32)?);
        let mut chain = [0u8; 32];
        chain.copy_from_slice(take(&mut pos, 32)?);
        let (sig, sig_len) = Signature::read_wire(buf.get(pos..)?)?;
        Some((
            EvidenceRecord {
                switch,
                details,
                nonce,
                prev: Digest(prev),
                chain: Digest(chain),
                sig,
            },
            pos + sig_len,
        ))
    }

    /// Decode a buffer of concatenated records (a switch's flushed
    /// batch, or a chain submitted to the appraisal service). The whole
    /// buffer must parse with no trailing bytes.
    pub fn read_wire_all(buf: &[u8]) -> Option<Vec<EvidenceRecord>> {
        let mut out = Vec::new();
        let mut rest = buf;
        while !rest.is_empty() {
            let (r, used) = EvidenceRecord::read_wire(rest)?;
            out.push(r);
            rest = &rest[used..];
        }
        Some(out)
    }

    /// The digest attested for a given level, if present.
    pub fn detail(&self, level: DetailLevel) -> Option<Digest> {
        self.details
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, d)| *d)
    }
}

/// An evidence record measured but not yet signed: everything an
/// [`EvidenceRecord`] carries except the signature. The switch's
/// per-packet step produces these, chain values already threaded; the
/// per-packet path signs each on its own, the batching path signs all
/// their chain digests in one [`pda_crypto::batch::sign_batch`] call at
/// flush time.
#[derive(Clone, Debug)]
pub struct PendingRecord {
    /// Switch identity (or operator pseudonym).
    pub switch: String,
    /// Attested (level, digest) pairs, in detail-axis order.
    pub details: Vec<(DetailLevel, Digest)>,
    /// Request nonce this evidence answers.
    pub nonce: Nonce,
    /// Previous record's chain value.
    pub prev: Digest,
    /// This record's chain value, computed eagerly so the next record
    /// can link to it before the batch is signed.
    pub chain: Digest,
}

impl PendingRecord {
    /// Measure a record's chain value without signing it.
    pub fn new(
        switch: &str,
        details: Vec<(DetailLevel, Digest)>,
        nonce: Nonce,
        prev: Digest,
    ) -> PendingRecord {
        PendingRecord::with_first_block(switch, details, nonce, prev, &mut FirstBlock::default())
    }

    /// [`PendingRecord::new`] with the chain digest's first block
    /// absorbed through `first`, the block its caller hashed last.
    pub(crate) fn with_first_block(
        switch: &str,
        details: Vec<(DetailLevel, Digest)>,
        nonce: Nonce,
        prev: Digest,
        first: &mut FirstBlock,
    ) -> PendingRecord {
        let chain = chain_digest(switch, &details, nonce, prev, first);
        PendingRecord {
            switch: switch.to_string(),
            details,
            nonce,
            prev,
            chain,
        }
    }

    /// Attach the signature produced over this record's chain digest.
    pub fn into_record(self, sig: Signature) -> EvidenceRecord {
        EvidenceRecord {
            switch: self.switch,
            details: self.details,
            nonce: self.nonce,
            prev: self.prev,
            chain: self.chain,
            sig,
        }
    }
}

impl fmt::Display for EvidenceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ev[{} n={} chain={}]",
            self.switch,
            self.nonce,
            self.chain.short()
        )
    }
}

/// Why a chain failed verification ([`verify_chain`]) or golden-value
/// appraisal ([`crate::golden::appraise_chain`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainFailure {
    /// A record's chain value doesn't match its own contents.
    BrokenChainValue {
        /// Index in the chain.
        index: usize,
    },
    /// A record's `prev` doesn't link to its predecessor.
    BrokenLink {
        /// Index in the chain.
        index: usize,
    },
    /// A signature failed (or the signer is unknown).
    BadSignature {
        /// Index in the chain.
        index: usize,
        /// Claimed switch.
        switch: String,
    },
    /// The record's nonce differs from the request nonce.
    WrongNonce {
        /// Index in the chain.
        index: usize,
    },
    /// A switch attested a digest different from its golden value —
    /// the UC1 "wrong dataplane program" detection
    /// ([`crate::golden::appraise_chain`]).
    ValueMismatch {
        /// The switch.
        switch: String,
        /// Which detail level disagreed.
        level: DetailLevel,
        /// What it attested.
        observed: Digest,
        /// What the operator expected.
        expected: Digest,
    },
    /// A switch on the path has no golden value at a level it attested.
    NoExpectation {
        /// The switch.
        switch: String,
        /// The unset level.
        level: DetailLevel,
    },
    /// Golden-value appraisal was given no records at all — say every
    /// record arrived as an orphan — so nothing on the path was shown
    /// to run its vetted program.
    EmptyChain,
}

impl fmt::Display for ChainFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainFailure::BrokenChainValue { index } => {
                write!(f, "record {index}: chain value does not match contents")
            }
            ChainFailure::BrokenLink { index } => {
                write!(f, "record {index}: prev does not link to predecessor")
            }
            ChainFailure::BadSignature { index, switch } => {
                write!(f, "record {index}: bad signature from {switch}")
            }
            ChainFailure::WrongNonce { index } => write!(f, "record {index}: wrong nonce"),
            ChainFailure::ValueMismatch {
                switch,
                level,
                observed,
                expected,
            } => write!(
                f,
                "{switch}: attested {level} {} but golden is {}",
                observed.short(),
                expected.short()
            ),
            ChainFailure::NoExpectation { switch, level } => {
                write!(f, "{switch}: no golden value for {level}")
            }
            ChainFailure::EmptyChain => write!(f, "no evidence records to appraise"),
        }
    }
}

/// Verify a chain of records: per-record integrity + signatures +
/// nonce + (for chained mode) hop-to-hop linkage starting from
/// `Digest::ZERO`.
pub fn verify_chain(
    records: &[EvidenceRecord],
    registry: &KeyRegistry,
    expected_nonce: Nonce,
    chained: bool,
) -> Result<(), Vec<ChainFailure>> {
    let mut failures = Vec::new();
    let mut prev = Digest::ZERO;
    for (index, r) in records.iter().enumerate() {
        if r.nonce != expected_nonce {
            failures.push(ChainFailure::WrongNonce { index });
        }
        if r.recompute_chain() != r.chain {
            failures.push(ChainFailure::BrokenChainValue { index });
        }
        if chained && r.prev != prev {
            failures.push(ChainFailure::BrokenLink { index });
        }
        match registry.verify_as(r.switch.as_str(), r.chain.as_bytes(), &r.sig) {
            Ok(true) => {}
            _ => failures.push(ChainFailure::BadSignature {
                index,
                switch: r.switch.clone(),
            }),
        }
        prev = r.chain;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Reassemble a chain from records that may have arrived **duplicated
/// and out of order** (the out-of-band control channel gives no
/// ordering or at-most-once guarantee under faults).
///
/// Duplicates — records with an identical chain value — are dropped,
/// then records are re-linked by their `prev`/`chain` digests starting
/// from [`Digest::ZERO`]. The walk is purely structural: it restores
/// the order the attesters *claimed*, and [`verify_chain`] must still
/// be run on the result to check signatures and nonces. Records that
/// don't link anywhere (orphans after a loss) are returned separately
/// so the caller can distinguish "incomplete" from "inconsistent".
///
/// Consumes the input: every surviving record is **moved** into the
/// ordered chain or the orphan list, never cloned — with ~8 KB Lamport
/// signatures attached, per-record deep copies dominated reassembly
/// cost.
pub fn assemble_chain(records: Vec<EvidenceRecord>) -> (Vec<EvidenceRecord>, Vec<EvidenceRecord>) {
    // Dedup into slots; `by_prev` maps a record's prev digest to its
    // slot (first unique wins, matching delivery order).
    let mut by_prev: std::collections::HashMap<Digest, usize> = std::collections::HashMap::new();
    let mut seen_chain: std::collections::HashSet<Digest> = std::collections::HashSet::new();
    let mut slots: Vec<Option<EvidenceRecord>> = Vec::with_capacity(records.len());
    for r in records {
        if seen_chain.insert(r.chain) {
            by_prev.entry(r.prev).or_insert(slots.len());
            slots.push(Some(r));
        }
    }
    let mut ordered = Vec::new();
    let mut cursor = Digest::ZERO;
    while let Some(&slot) = by_prev.get(&cursor) {
        // An already-taken slot means a prev-cycle; stop making progress.
        let Some(r) = slots[slot].take() else { break };
        cursor = r.chain;
        ordered.push(r);
    }
    let orphans = slots.into_iter().flatten().collect();
    (ordered, orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_crypto::keyreg::PrincipalId;
    use pda_crypto::sig::SigScheme;
    use proptest::prelude::*;

    fn signer(name: &str) -> Signer {
        Signer::new(SigScheme::Hmac, Digest::of(name.as_bytes()).0, 0)
    }

    fn registry(names: &[&str]) -> KeyRegistry {
        let mut reg = KeyRegistry::new();
        for n in names {
            reg.register(PrincipalId::new(*n), signer(n).verify_key(0));
        }
        reg
    }

    fn chain_of(names: &[&str], nonce: Nonce) -> Vec<EvidenceRecord> {
        let mut prev = Digest::ZERO;
        let mut out = Vec::new();
        for n in names {
            let mut s = signer(n);
            let r = EvidenceRecord::create(
                n,
                vec![(DetailLevel::Program, Digest::of(n.as_bytes()))],
                nonce,
                prev,
                &mut s,
            )
            .unwrap();
            prev = r.chain;
            out.push(r);
        }
        out
    }

    #[test]
    fn valid_chain_verifies() {
        let names = ["sw1", "sw2", "sw3"];
        let chain = chain_of(&names, Nonce(5));
        let reg = registry(&names);
        assert_eq!(verify_chain(&chain, &reg, Nonce(5), true), Ok(()));
    }

    #[test]
    fn removed_link_detected() {
        let names = ["sw1", "sw2", "sw3"];
        let mut chain = chain_of(&names, Nonce(5));
        chain.remove(1); // adversary drops the middle hop's evidence
        let reg = registry(&names);
        let errs = verify_chain(&chain, &reg, Nonce(5), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::BrokenLink { index: 1 })));
    }

    #[test]
    fn reordered_links_detected() {
        let names = ["sw1", "sw2", "sw3"];
        let mut chain = chain_of(&names, Nonce(5));
        chain.swap(0, 1);
        let reg = registry(&names);
        assert!(verify_chain(&chain, &reg, Nonce(5), true).is_err());
    }

    #[test]
    fn tampered_detail_detected() {
        let names = ["sw1", "sw2"];
        let mut chain = chain_of(&names, Nonce(5));
        chain[0].details[0].1 = Digest::of(b"forged-program");
        let reg = registry(&names);
        let errs = verify_chain(&chain, &reg, Nonce(5), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::BrokenChainValue { index: 0 })));
    }

    #[test]
    fn unknown_signer_detected() {
        let chain = chain_of(&["sw1", "rogue"], Nonce(5));
        let reg = registry(&["sw1"]);
        let errs = verify_chain(&chain, &reg, Nonce(5), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::BadSignature { switch, .. } if switch == "rogue")));
    }

    #[test]
    fn wrong_nonce_detected() {
        let chain = chain_of(&["sw1"], Nonce(5));
        let reg = registry(&["sw1"]);
        let errs = verify_chain(&chain, &reg, Nonce(6), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::WrongNonce { .. })));
    }

    #[test]
    fn pointwise_mode_skips_linkage() {
        // Independent records (prev = ZERO everywhere) verify when
        // chained checking is off…
        let r1 = chain_of(&["sw1"], Nonce(5)).remove(0);
        let r2 = chain_of(&["sw2"], Nonce(5)).remove(0);
        let reg = registry(&["sw1", "sw2"]);
        let records = vec![r1, r2];
        assert_eq!(verify_chain(&records, &reg, Nonce(5), false), Ok(()));
        // …but fail linkage in chained mode.
        assert!(verify_chain(&records, &reg, Nonce(5), true).is_err());
    }

    #[test]
    fn assemble_restores_order_and_drops_duplicates() {
        let names = ["sw1", "sw2", "sw3"];
        let chain = chain_of(&names, Nonce(5));
        let reg = registry(&names);
        // Deliver duplicated and shuffled, as a lossy control channel
        // with retransmits would.
        let scrambled = vec![
            chain[2].clone(),
            chain[0].clone(),
            chain[2].clone(),
            chain[1].clone(),
            chain[0].clone(),
        ];
        let (ordered, orphans) = assemble_chain(scrambled);
        assert!(orphans.is_empty());
        assert_eq!(
            ordered
                .iter()
                .map(|r| r.switch.as_str())
                .collect::<Vec<_>>(),
            names
        );
        assert_eq!(verify_chain(&ordered, &reg, Nonce(5), true), Ok(()));
    }

    #[test]
    fn assemble_reports_orphans_after_loss() {
        let chain = chain_of(&["sw1", "sw2", "sw3"], Nonce(5));
        // The middle record was lost: sw3's record cannot link.
        let partial = vec![chain[2].clone(), chain[0].clone()];
        let (ordered, orphans) = assemble_chain(partial);
        assert_eq!(ordered.len(), 1);
        assert_eq!(ordered[0].switch, "sw1");
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].switch, "sw3");
    }

    #[test]
    fn wire_size_reflects_detail_count() {
        let mut s = signer("sw");
        let small = EvidenceRecord::create(
            "sw",
            vec![(DetailLevel::Program, Digest::ZERO)],
            Nonce(1),
            Digest::ZERO,
            &mut s,
        )
        .unwrap();
        let large = EvidenceRecord::create(
            "sw",
            DetailLevel::ALL
                .iter()
                .map(|l| (*l, Digest::ZERO))
                .collect(),
            Nonce(1),
            Digest::ZERO,
            &mut s,
        )
        .unwrap();
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(large.detail(DetailLevel::Tables), Some(Digest::ZERO));
        assert_eq!(small.detail(DetailLevel::Tables), None);
    }

    #[test]
    fn assemble_moves_records_instead_of_cloning() {
        // Regression for the deep-clone reassembly: with Lamport
        // signatures a clone re-allocates the 8 KB reveal buffer, so a
        // moved record keeps its heap pointer and a cloned one cannot.
        let mut s = Signer::new(SigScheme::LamportOts, [1u8; 32], 0);
        let mut prev = Digest::ZERO;
        let mut chain = Vec::new();
        let mut ptrs = Vec::new();
        for i in 0..3 {
            let r = EvidenceRecord::create(
                "sw",
                vec![(DetailLevel::Program, Digest::of(&[i]))],
                Nonce(1),
                prev,
                &mut s,
            )
            .unwrap();
            prev = r.chain;
            let Signature::Lamport { sig, .. } = &r.sig else {
                panic!()
            };
            ptrs.push((r.chain, sig.reveals().as_ptr()));
            chain.push(r);
        }
        chain.swap(0, 2); // scramble, no duplicates: every record unique
        let (ordered, orphans) = assemble_chain(chain);
        assert_eq!(ordered.len(), 3);
        assert!(orphans.is_empty());
        for r in &ordered {
            let Signature::Lamport { sig, .. } = &r.sig else {
                panic!()
            };
            let expect = ptrs.iter().find(|(c, _)| *c == r.chain).unwrap().1;
            assert_eq!(
                sig.reveals().as_ptr(),
                expect,
                "record {} was cloned during reassembly",
                r.switch
            );
        }
    }

    #[test]
    fn streaming_chain_matches_buffered_definition() {
        // The streamed chain digest must equal H(prev ‖ body) with the
        // body serialized the old way — the wire layout is frozen.
        let details = vec![
            (DetailLevel::Hardware, Digest::of(b"hw")),
            (DetailLevel::Program, Digest::of(b"prog")),
            (DetailLevel::LintVerdict, Digest::of(b"lint")),
        ];
        let prev = Digest::of(b"previous");
        let mut body = Vec::new();
        body.extend_from_slice(&(2u32.to_be_bytes())); // "sw".len()
        body.extend_from_slice(b"sw");
        body.extend_from_slice(&(3u32.to_be_bytes()));
        for (tag, (_, d)) in [0u8, 1, 5].iter().zip(&details) {
            body.push(*tag);
            body.extend_from_slice(d.as_bytes());
        }
        body.extend_from_slice(&Nonce(77).to_bytes());
        let expected = prev.chain(&body);

        let mut s = signer("sw");
        let r = EvidenceRecord::create("sw", details, Nonce(77), prev, &mut s).unwrap();
        assert_eq!(r.chain, expected);
        assert_eq!(r.recompute_chain(), expected);
        assert_eq!(r.body_len(), body.len());
    }

    /// The chain digest without a cached block: `Sha256` streamed over
    /// `prev ‖ body`, the body laid out by [`feed_body`].
    fn streamed(
        switch: &str,
        details: &[(DetailLevel, Digest)],
        nonce: Nonce,
        prev: Digest,
    ) -> Digest {
        let mut h = Sha256::new();
        h.update(prev.as_bytes());
        feed_body(|part| h.update(part), switch, details, nonce);
        Digest(h.finalize())
    }

    /// The first block of a record's chain input, if it has one.
    fn first_block_of(
        switch: &str,
        details: &[(DetailLevel, Digest)],
        nonce: Nonce,
        prev: Digest,
    ) -> Option<[u8; 64]> {
        let mut input = prev.as_bytes().to_vec();
        feed_body(|part| input.extend_from_slice(part), switch, details, nonce);
        input.first_chunk::<64>().copied()
    }

    /// A matching first block resumes from the cached midstate, and a
    /// block that differs in one byte does not.
    #[test]
    fn a_matching_first_block_resumes_from_the_cached_midstate() {
        let details = [(DetailLevel::Hardware, Digest::of(b"hw"))];
        let digest = |first: &mut FirstBlock, prev: Digest| {
            chain_digest("sw1", &details, Nonce(9), prev, first)
        };
        let mut first = FirstBlock::default();
        let honest = digest(&mut first, Digest::ZERO);
        assert_eq!(honest, streamed("sw1", &details, Nonce(9), Digest::ZERO));
        // Swap the cached midstate for another block's: a digest that
        // resumes from the cache now comes out wrong.
        let (block, _) = first.0.expect("a 77-byte input has a first block");
        let mut other = Sha256::new();
        other.update(&[0xa5; 64]);
        first.0 = Some((block, other.midstate().expect("one whole block")));
        assert_ne!(digest(&mut first, Digest::ZERO), honest);
        let mut prev = Digest::ZERO;
        prev.0[31] = 1;
        assert_eq!(
            digest(&mut first, prev),
            streamed("sw1", &details, Nonce(9), prev)
        );
        assert_eq!(
            first.0.map(|(b, _)| b),
            first_block_of("sw1", &details, Nonce(9), prev)
        );
    }

    /// A record's hashed fields: switch, details, nonce and prev.
    type Fields = (String, Vec<(DetailLevel, Digest)>, Nonce, Digest);

    /// Switch names of 0-200 bytes, so a first block can end inside the
    /// name or inside a detail; 0-8 details; a zero or random prev.
    fn fields() -> impl Strategy<Value = Fields> {
        (
            "[a-z0-9]{0,200}",
            proptest::collection::vec((0u8..6, any::<[u8; 32]>()), 0..=8),
            any::<u64>(),
            prop_oneof![Just(None), any::<[u8; 32]>().prop_map(Some)],
        )
            .prop_map(|(switch, details, nonce, prev)| {
                let details = details
                    .into_iter()
                    .map(|(tag, d)| (level_from_tag(tag).expect("tags 0-5"), Digest(d)))
                    .collect();
                (
                    switch,
                    details,
                    Nonce(nonce),
                    prev.map_or(Digest::ZERO, Digest),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Over a sequence of records drawn from up to three (repeats and
        /// alternations), some after a program reload that replaced a
        /// Program (else the first) detail, the digest through one shared
        /// first block equals the streamed hash, and the cache holds the
        /// last input's first block.
        #[test]
        fn cached_chain_digest_matches_the_streamed_hash(
            mut records in proptest::collection::vec(fields(), 1..=3),
            steps in proptest::collection::vec((0usize..3, any::<bool>(), any::<[u8; 32]>()), 1..=16),
        ) {
            let mut first = FirstBlock::default();
            for (pick, reload, program) in steps {
                let n = records.len();
                let (switch, details, nonce, prev) = &mut records[pick % n];
                if reload {
                    let at = details.iter().position(|(l, _)| *l == DetailLevel::Program);
                    if let Some((_, d)) = details.get_mut(at.unwrap_or(0)) {
                        *d = Digest(program);
                    }
                }
                let cached = chain_digest(switch, details, *nonce, *prev, &mut first);
                prop_assert_eq!(cached, streamed(switch, details, *nonce, *prev));
                if let Some(block) = first_block_of(switch, details, *nonce, *prev) {
                    prop_assert!(first.0.is_some_and(|(b, _)| b == block));
                }
            }
        }
    }

    #[test]
    fn write_wire_appends_and_matches_layout() {
        let mut s = signer("sw");
        let r = EvidenceRecord::create(
            "sw",
            vec![(DetailLevel::Program, Digest::of(b"p"))],
            Nonce(9),
            Digest::ZERO,
            &mut s,
        )
        .unwrap();
        let mut buf = vec![0xee; 4]; // pre-existing bytes must survive
        r.write_wire(&mut buf);
        assert_eq!(&buf[..4], &[0xee; 4]);
        let body = &buf[4..4 + r.body_len()];
        assert_eq!(&body[..4], &2u32.to_be_bytes()); // switch len
        let rest = &buf[4 + r.body_len()..];
        assert_eq!(&rest[..32], r.prev.as_bytes());
        assert_eq!(&rest[32..64], r.chain.as_bytes());
        assert_eq!(rest[64], 0); // hmac signature tag
        assert_eq!(rest.len(), 64 + 33);
    }

    #[test]
    fn wire_round_trip_single_record() {
        let mut s = signer("edge-sw");
        let r = EvidenceRecord::create(
            "edge-sw",
            vec![
                (DetailLevel::Hardware, Digest::of(b"hw")),
                (DetailLevel::Program, Digest::of(b"prog")),
                (DetailLevel::LintVerdict, Digest::of(b"lint")),
            ],
            Nonce(0xDEAD_BEEF),
            Digest::of(b"prev"),
            &mut s,
        )
        .unwrap();
        let mut wire = Vec::new();
        r.write_wire(&mut wire);
        let (back, used) = EvidenceRecord::read_wire(&wire).expect("decodes");
        assert_eq!(used, wire.len());
        assert_eq!(back.switch, r.switch);
        assert_eq!(back.details, r.details);
        assert_eq!(back.nonce, r.nonce);
        assert_eq!(back.prev, r.prev);
        assert_eq!(back.chain, r.chain);
        // Decoded record still verifies as a chain of one.
        let reg = registry(&["edge-sw"]);
        assert!(verify_chain(&[back], &reg, Nonce(0xDEAD_BEEF), false).is_ok());
    }

    #[test]
    fn wire_round_trip_whole_chain() {
        let names = ["sw1", "sw2", "sw3"];
        let chain = chain_of(&names, Nonce(11));
        let mut wire = Vec::new();
        for r in &chain {
            r.write_wire(&mut wire);
        }
        let back = EvidenceRecord::read_wire_all(&wire).expect("decodes");
        assert_eq!(back.len(), 3);
        let reg = registry(&names);
        assert_eq!(verify_chain(&back, &reg, Nonce(11), true), Ok(()));
        // Re-encoding the decoded chain is byte-identical.
        let mut wire2 = Vec::new();
        for r in &back {
            r.write_wire(&mut wire2);
        }
        assert_eq!(wire, wire2);
    }

    #[test]
    fn wire_decode_rejects_malformed_input() {
        assert!(EvidenceRecord::read_wire(&[]).is_none());
        // Hostile switch length.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(EvidenceRecord::read_wire(&evil).is_none());
        // Unknown detail tag.
        let mut s = signer("sw");
        let r = EvidenceRecord::create(
            "sw",
            vec![(DetailLevel::Program, Digest::of(b"p"))],
            Nonce(1),
            Digest::ZERO,
            &mut s,
        )
        .unwrap();
        let mut wire = Vec::new();
        r.write_wire(&mut wire);
        let mut bad_tag = wire.clone();
        bad_tag[4 + 2 + 4] = 0xFF; // first detail's level tag
        assert!(EvidenceRecord::read_wire(&bad_tag).is_none());
        // Every truncation fails cleanly.
        for cut in 0..wire.len() {
            assert!(
                EvidenceRecord::read_wire(&wire[..cut]).is_none(),
                "cut={cut}"
            );
        }
        // Trailing garbage fails the all-records parse.
        wire.push(0xAB);
        assert!(EvidenceRecord::read_wire_all(&wire).is_none());
    }

    #[test]
    fn pending_record_matches_direct_create() {
        let mut s = signer("sw");
        let details = vec![(DetailLevel::Program, Digest::of(b"p"))];
        let direct =
            EvidenceRecord::create("sw", details.clone(), Nonce(3), Digest::ZERO, &mut s).unwrap();
        let pending = PendingRecord::new("sw", details, Nonce(3), Digest::ZERO);
        assert_eq!(pending.chain, direct.chain);
        let mut s2 = signer("sw");
        let rec = pending.into_record(s2.sign(direct.chain.as_bytes()).unwrap());
        assert_eq!(rec.recompute_chain(), rec.chain);
        let reg = registry(&["sw"]);
        assert_eq!(verify_chain(&[rec], &reg, Nonce(3), true), Ok(()));
    }

    #[test]
    fn batch_signed_chain_verifies() {
        // Chain semantics are unchanged under batch signing: thread the
        // pending records, sign all chain digests at once, verify as a
        // normal chained run.
        let mut s = signer("sw");
        let mut prev = Digest::ZERO;
        let pendings: Vec<PendingRecord> = (0..5u8)
            .map(|i| {
                let p = PendingRecord::new(
                    "sw",
                    vec![(DetailLevel::Program, Digest::of(&[i]))],
                    Nonce(4),
                    prev,
                );
                prev = p.chain;
                p
            })
            .collect();
        let msgs: Vec<&[u8]> = pendings
            .iter()
            .map(|p| p.chain.as_bytes() as &[u8])
            .collect();
        let sigs = s.sign_batch(&msgs).unwrap();
        let records: Vec<EvidenceRecord> = pendings
            .into_iter()
            .zip(sigs)
            .map(|(p, sig)| p.into_record(sig))
            .collect();
        let reg = registry(&["sw"]);
        assert_eq!(verify_chain(&records, &reg, Nonce(4), true), Ok(()));
        // And reassembly + verification still work on a scrambled copy.
        let mut scrambled = records.clone();
        scrambled.reverse();
        let (ordered, orphans) = assemble_chain(scrambled);
        assert!(orphans.is_empty());
        assert_eq!(verify_chain(&ordered, &reg, Nonce(4), true), Ok(()));
    }
}
