//! Reference ("golden") values and appraisal of hop-evidence chains
//! against them: the relying-party side checks not just *who* signed,
//! but *what* they attested — detecting the UC1 program swap. The switch
//! measures and [`GoldenStore::enroll`] enrolls through one digest rule,
//! [`reference_digest`], so the two cannot drift apart.

use crate::config::DetailLevel;
use crate::evidence::{verify_chain, ChainFailure, EvidenceRecord};
use crate::switch::PeraSwitch;
use pda_crypto::digest::Digest;
use pda_crypto::keyreg::KeyRegistry;
use pda_crypto::nonce::Nonce;
use pda_dataplane::pipeline::DataplaneProgram;
use std::collections::HashMap;

/// The digest a switch running `program` on hardware `hardware_id`
/// attests at a static detail level (Hardware, Program, Tables,
/// LintVerdict). `None` for ProgState and Packets, which change per
/// packet and so have no reference value.
pub fn reference_digest(
    program: &DataplaneProgram,
    hardware_id: &str,
    level: DetailLevel,
) -> Option<Digest> {
    Some(match level {
        DetailLevel::Hardware => Digest::of_parts(&[b"hw:", hardware_id.as_bytes()]),
        DetailLevel::Program => program.digest(),
        DetailLevel::Tables => program.tables_digest(),
        DetailLevel::LintVerdict => pda_analyze::analyze_default(program).verdict_digest(),
        DetailLevel::ProgState | DetailLevel::Packets => return None,
    })
}

/// Expected attestation values per switch.
#[derive(Clone, Debug, Default)]
pub struct GoldenStore {
    /// Switch → one expected-digest slot per detail level, indexed by
    /// its position on the detail axis.
    expected: HashMap<String, [Option<Digest>; DetailLevel::ALL.len()]>,
}

impl GoldenStore {
    /// Empty store.
    pub fn new() -> GoldenStore {
        GoldenStore::default()
    }

    /// Record the expected digest for a switch's detail level.
    pub fn expect(&mut self, switch: &str, level: DetailLevel, digest: Digest) {
        self.expected.entry(switch.to_string()).or_default()[level as usize] = Some(digest);
    }

    /// Enroll `switch`, under its own name, at each of `levels`: trusted
    /// setup reading its current values through [`reference_digest`].
    /// Levels without a reference value are skipped, and the analyzer
    /// runs only when `levels` holds LintVerdict.
    pub fn enroll(&mut self, switch: &PeraSwitch, levels: &[DetailLevel]) {
        for &level in levels {
            if let Some(d) = reference_digest(&switch.program, &switch.hardware_id, level) {
                self.expect(&switch.name, level, d);
            }
        }
    }

    /// Look up an expectation.
    pub fn expected(&self, switch: &str, level: DetailLevel) -> Option<Digest> {
        self.expected.get(switch)?[level as usize]
    }
}

/// Appraise an evidence chain end-to-end: cryptographic validity
/// (linkage, signatures, nonce) plus golden-value comparison for every
/// detail each record carries. An empty chain fails with
/// [`ChainFailure::EmptyChain`]: it shows no hop running anything.
pub fn appraise_chain(
    records: &[EvidenceRecord],
    registry: &KeyRegistry,
    golden: &GoldenStore,
    nonce: Nonce,
    chained: bool,
) -> Result<(), Vec<ChainFailure>> {
    if records.is_empty() {
        return Err(vec![ChainFailure::EmptyChain]);
    }
    let mut failures = verify_chain(records, registry, nonce, chained)
        .err()
        .unwrap_or_default();
    for r in records {
        let slots = golden.expected.get(r.switch.as_str());
        for &(level, observed) in &r.details {
            match slots.and_then(|s| s[level as usize]) {
                // ProgState and Packets have no stable golden form; their
                // presence in the signed chain is the guarantee. A lint
                // verdict needs no enrolled value to be useful:
                // `pda_ra::semantic::RequireLintClean` can re-derive and
                // judge it from the claimed program. When the operator
                // *does* enroll one (the verdict digest of the blessed
                // program), it is compared like any other level.
                None if matches!(
                    level,
                    DetailLevel::ProgState | DetailLevel::Packets | DetailLevel::LintVerdict
                ) => {}
                None => failures.push(ChainFailure::NoExpectation {
                    switch: r.switch.clone(),
                    level,
                }),
                Some(expected) if expected != observed => {
                    failures.push(ChainFailure::ValueMismatch {
                        switch: r.switch.clone(),
                        level,
                        observed,
                        expected,
                    })
                }
                Some(_) => {}
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_crypto::sig::{SigScheme, Signer};

    fn mk_record(switch: &str, program: Digest, prev: Digest, nonce: Nonce) -> EvidenceRecord {
        let mut s = Signer::new(SigScheme::Hmac, Digest::of(switch.as_bytes()).0, 0);
        EvidenceRecord::create(
            switch,
            vec![(DetailLevel::Program, program)],
            nonce,
            prev,
            &mut s,
        )
        .unwrap()
    }

    fn registry_for(names: &[&str]) -> KeyRegistry {
        let mut reg = KeyRegistry::new();
        for n in names {
            let s = Signer::new(SigScheme::Hmac, Digest::of(n.as_bytes()).0, 0);
            reg.register(n.to_string().as_str().into(), s.verify_key(0));
        }
        reg
    }

    #[test]
    fn matching_golden_values_pass() {
        let d = Digest::of(b"fw.p4");
        let r = mk_record("sw1", d, Digest::ZERO, Nonce(1));
        let mut golden = GoldenStore::new();
        golden.expect("sw1", DetailLevel::Program, d);
        let reg = registry_for(&["sw1"]);
        assert_eq!(appraise_chain(&[r], &reg, &golden, Nonce(1), true), Ok(()));
    }

    #[test]
    fn swapped_program_detected() {
        let r = mk_record("sw1", Digest::of(b"rogue.p4"), Digest::ZERO, Nonce(1));
        let mut golden = GoldenStore::new();
        golden.expect("sw1", DetailLevel::Program, Digest::of(b"fw.p4"));
        let reg = registry_for(&["sw1"]);
        let errs = appraise_chain(&[r], &reg, &golden, Nonce(1), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::ValueMismatch { .. })));
    }

    #[test]
    fn empty_chain_fails_appraisal() {
        let mut golden = GoldenStore::new();
        golden.expect("sw1", DetailLevel::Program, Digest::of(b"fw.p4"));
        let reg = registry_for(&["sw1"]);
        assert_eq!(
            appraise_chain(&[], &reg, &golden, Nonce(1), true),
            Err(vec![ChainFailure::EmptyChain])
        );
        // Bare verification has no policy on length; `VerifyUnit` keeps
        // its own `min_hops`.
        assert_eq!(verify_chain(&[], &reg, Nonce(1), true), Ok(()));
    }

    #[test]
    fn missing_expectation_flagged() {
        let r = mk_record("sw1", Digest::of(b"x"), Digest::ZERO, Nonce(1));
        let reg = registry_for(&["sw1"]);
        let errs = appraise_chain(&[r], &reg, &GoldenStore::new(), Nonce(1), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::NoExpectation { .. })));
    }

    #[test]
    fn lint_verdict_optional_but_compared_when_enrolled() {
        let mut s = Signer::new(SigScheme::Hmac, Digest::of(b"sw1").0, 0);
        let verdict = Digest::of(b"clean-verdict");
        let r = EvidenceRecord::create(
            "sw1",
            vec![(DetailLevel::LintVerdict, verdict)],
            Nonce(1),
            Digest::ZERO,
            &mut s,
        )
        .unwrap();
        let reg = registry_for(&["sw1"]);
        // No enrolled verdict: the level is exempt from NoExpectation.
        assert_eq!(
            appraise_chain(
                std::slice::from_ref(&r),
                &reg,
                &GoldenStore::new(),
                Nonce(1),
                true
            ),
            Ok(())
        );
        // Enrolled and mismatching: flagged like any other level.
        let mut golden = GoldenStore::new();
        golden.expect("sw1", DetailLevel::LintVerdict, Digest::of(b"other"));
        let errs = appraise_chain(&[r], &reg, &golden, Nonce(1), true).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ChainFailure::ValueMismatch {
                level: DetailLevel::LintVerdict,
                ..
            }
        )));
    }

    #[test]
    fn chain_failures_propagate() {
        let d = Digest::of(b"fw.p4");
        let r = mk_record("sw1", d, Digest::of(b"wrong-prev"), Nonce(1));
        let mut golden = GoldenStore::new();
        golden.expect("sw1", DetailLevel::Program, d);
        let reg = registry_for(&["sw1"]);
        let errs = appraise_chain(&[r], &reg, &golden, Nonce(1), true).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ChainFailure::BrokenLink { .. })));
    }
}
