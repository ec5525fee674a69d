//! Executable versions of the paper's five motivating use cases (§2).
//!
//! Each helper wires the lower layers into the flow the paper narrates
//! and returns a structured outcome the examples, tests, and harness
//! assert on.

use pda_crypto::digest::Digest;
use pda_crypto::keyreg::KeyRegistry;
use pda_crypto::merkle::{merkle_proof_verify, MerkleProof, MerkleTree};
use pda_crypto::nonce::Nonce;
use pda_pera::evidence::{ChainFailure, EvidenceRecord};
use pda_pera::golden::{appraise_chain, GoldenStore};

/// Golden store construction: the simulator's enrollment loop.
pub use pda_netsim::enroll_golden;

/// UC1 — Configuration Assurance: does the evidence chain show every
/// hop running its vetted program?
///
/// Returns `Ok(hops)` (number of attested hops) or the failures; a
/// swapped firewall/forwarder/load-balancer surfaces as a
/// `ValueMismatch` on the Program level.
pub fn uc1_configuration_assurance(
    chain: &[EvidenceRecord],
    registry: &KeyRegistry,
    golden: &GoldenStore,
    nonce: Nonce,
) -> Result<usize, Vec<ChainFailure>> {
    appraise_chain(chain, registry, golden, nonce, true)?;
    Ok(chain.len())
}

/// UC2 — Path evidence as an authentication factor: score how well a
/// presented chain matches a previously enrolled "home path".
///
/// The paper: "a user that forgets their password … could be permitted
/// limited access … if they can prove that they are connecting from
/// their home via an acceptable network path."
#[derive(Clone, Debug, PartialEq)]
pub struct PathAuthScore {
    /// Fraction of enrolled path hops present, in order, in the
    /// presented chain (1.0 = exact path).
    pub path_match: f64,
    /// Did the chain verify cryptographically?
    pub chain_valid: bool,
}

impl PathAuthScore {
    /// Policy decision: accept as a (weak) second factor?
    pub fn acceptable(&self, threshold: f64) -> bool {
        self.chain_valid && self.path_match >= threshold
    }
}

/// Score `presented` against the `enrolled` hop sequence.
pub fn uc2_path_authentication(
    presented: &[EvidenceRecord],
    enrolled: &[String],
    registry: &KeyRegistry,
    nonce: Nonce,
) -> PathAuthScore {
    let chain_valid = pda_pera::evidence::verify_chain(presented, registry, nonce, true).is_ok();
    // Longest in-order match of enrolled hops within the presented path.
    let presented_names: Vec<&str> = presented.iter().map(|r| r.switch.as_str()).collect();
    let mut matched = 0usize;
    let mut cursor = 0usize;
    for hop in enrolled {
        if let Some(pos) = presented_names[cursor..].iter().position(|n| n == hop) {
            matched += 1;
            cursor += pos + 1;
        }
    }
    PathAuthScore {
        path_match: if enrolled.is_empty() {
            0.0
        } else {
            matched as f64 / enrolled.len() as f64
        },
        chain_valid,
    }
}

/// UC4 — Evidence as documentation: an append-only audit trail of
/// evidence records, committed by a Merkle root, with extractable
/// membership proofs ("to justify other actions, such as applying for a
/// court order", and later "to prove compliance with the authorizing
/// court order").
pub struct AuditTrail {
    entries: Vec<Vec<u8>>,
    descriptions: Vec<String>,
}

/// A committed audit trail: root + entry count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditCommitment {
    /// Merkle root over all entries.
    pub root: Digest,
    /// Number of entries committed.
    pub entries: usize,
}

impl Default for AuditTrail {
    fn default() -> Self {
        Self::new()
    }
}

impl AuditTrail {
    /// Empty trail.
    pub fn new() -> AuditTrail {
        AuditTrail {
            entries: Vec::new(),
            descriptions: Vec::new(),
        }
    }

    /// Append an evidence record with a human-readable description.
    pub fn append(&mut self, record: &EvidenceRecord, description: impl Into<String>) {
        let mut bytes = record.chain.as_bytes().to_vec();
        bytes.extend_from_slice(record.switch.as_bytes());
        self.entries.push(bytes);
        self.descriptions.push(description.into());
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the trail empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Commit the current trail.
    pub fn commit(&self) -> AuditCommitment {
        assert!(!self.entries.is_empty(), "cannot commit an empty trail");
        AuditCommitment {
            root: MerkleTree::build(&self.entries).root(),
            entries: self.entries.len(),
        }
    }

    /// Produce a membership proof for entry `index` (e.g. the single
    /// action taken under a court order).
    pub fn prove(&self, index: usize) -> Option<(Vec<u8>, MerkleProof)> {
        let tree = MerkleTree::build(&self.entries);
        Some((self.entries.get(index)?.clone(), tree.prove(index)?))
    }

    /// Verify a proof against a commitment.
    pub fn verify(commitment: &AuditCommitment, entry: &[u8], proof: &MerkleProof) -> bool {
        merkle_proof_verify(&commitment.root, entry, proof)
    }
}

/// UC5 — Cross-referenced attestation: host evidence (a `pda-ra`
/// appraisal of e.g. the TLS stack) combined with the network path
/// chain. Exfiltration detection: outward traffic is only cleared when
/// *both* the producing host and the path attest clean.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrossAttestation {
    /// Host-side appraisal passed.
    pub host_ok: bool,
    /// Network-side chain appraisal passed.
    pub network_ok: bool,
}

impl CrossAttestation {
    /// The composed verdict.
    pub fn cleared(&self) -> bool {
        self.host_ok && self.network_ok
    }
}

/// Compose a host appraisal result with a network chain appraisal.
pub fn uc5_cross_attestation(
    host: &pda_ra::appraise::AppraisalResult,
    chain: &[EvidenceRecord],
    registry: &KeyRegistry,
    golden: &GoldenStore,
    nonce: Nonce,
) -> CrossAttestation {
    CrossAttestation {
        host_ok: host.ok,
        network_ok: appraise_chain(chain, registry, golden, nonce, true).is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_crypto::sig::{SigScheme, Signer};
    use pda_pera::config::DetailLevel;

    fn mk_chain(names: &[&str], nonce: Nonce) -> (Vec<EvidenceRecord>, KeyRegistry, GoldenStore) {
        let mut reg = KeyRegistry::new();
        let mut golden = GoldenStore::new();
        let mut prev = Digest::ZERO;
        let mut out = Vec::new();
        for n in names {
            let mut s = Signer::new(SigScheme::Hmac, Digest::of(n.as_bytes()).0, 0);
            reg.register(n.to_string().as_str().into(), s.verify_key(0));
            let prog = Digest::of_parts(&[b"prog:", n.as_bytes()]);
            golden.expect(n, DetailLevel::Program, prog);
            let r =
                EvidenceRecord::create(n, vec![(DetailLevel::Program, prog)], nonce, prev, &mut s)
                    .unwrap();
            prev = r.chain;
            out.push(r);
        }
        (out, reg, golden)
    }

    #[test]
    fn uc1_clean_chain_passes() {
        let (chain, reg, golden) = mk_chain(&["sw1", "sw2"], Nonce(1));
        assert_eq!(
            uc1_configuration_assurance(&chain, &reg, &golden, Nonce(1)),
            Ok(2)
        );
    }

    #[test]
    fn uc1_empty_chain_is_not_assurance() {
        let (_, reg, golden) = mk_chain(&["sw1", "sw2"], Nonce(1));
        assert_eq!(
            uc1_configuration_assurance(&[], &reg, &golden, Nonce(1)),
            Err(vec![ChainFailure::EmptyChain])
        );
    }

    #[test]
    fn uc2_scores_partial_paths() {
        let (chain, reg, _) = mk_chain(&["sw1", "sw2", "sw3"], Nonce(1));
        let exact = uc2_path_authentication(
            &chain,
            &["sw1".into(), "sw2".into(), "sw3".into()],
            &reg,
            Nonce(1),
        );
        assert_eq!(exact.path_match, 1.0);
        assert!(exact.chain_valid);
        assert!(exact.acceptable(0.9));

        let partial = uc2_path_authentication(
            &chain,
            &["sw1".into(), "swX".into(), "sw3".into()],
            &reg,
            Nonce(1),
        );
        assert!((partial.path_match - 2.0 / 3.0).abs() < 1e-9);
        assert!(!partial.acceptable(0.9));
        assert!(partial.acceptable(0.5));
    }

    #[test]
    fn uc2_order_matters() {
        let (chain, reg, _) = mk_chain(&["sw1", "sw2", "sw3"], Nonce(1));
        let reversed = uc2_path_authentication(
            &chain,
            &["sw3".into(), "sw2".into(), "sw1".into()],
            &reg,
            Nonce(1),
        );
        assert!(reversed.path_match < 1.0);
    }

    #[test]
    fn uc3_gate_admits_evidence_rejects_bare_traffic() {
        let (chain, reg, golden) = mk_chain(&["sw1", "sw2"], Nonce(1));
        // The UC3 gate is `appraise_chain` over the evidence a packet
        // carries; bare traffic has none and is dropped unappraised, and
        // an empty chain fails appraisal.
        let (mut admitted, mut rejected) = (0, 0);
        let mut admit = |evidence: Option<&[EvidenceRecord]>, nonce| {
            let ok = matches!(evidence, Some(c)
                if appraise_chain(c, &reg, &golden, nonce, true).is_ok());
            if ok {
                admitted += 1;
            } else {
                rejected += 1;
            }
            ok
        };
        assert!(admit(Some(&chain), Nonce(1)));
        assert!(!admit(None, Nonce(1)));
        assert!(!admit(Some(&[]), Nonce(1)));
        // Replay under a different nonce rejected:
        assert!(!admit(Some(&chain), Nonce(2)));
        assert_eq!((admitted, rejected), (1, 3));
    }

    #[test]
    fn uc4_audit_trail_proofs() {
        let (chain, _, _) = mk_chain(&["sw1", "sw2", "sw3"], Nonce(1));
        let mut trail = AuditTrail::new();
        for (i, r) in chain.iter().enumerate() {
            trail.append(r, format!("C2 beacon observation {i}"));
        }
        let commitment = trail.commit();
        assert_eq!(commitment.entries, 3);
        let (entry, proof) = trail.prove(1).unwrap();
        assert!(AuditTrail::verify(&commitment, &entry, &proof));
        assert!(!AuditTrail::verify(&commitment, b"forged entry", &proof));
        assert!(trail.prove(99).is_none());
    }

    #[test]
    fn uc5_requires_both_sides() {
        let (chain, reg, golden) = mk_chain(&["sw1"], Nonce(1));
        let host_ok = pda_ra::appraise::AppraisalResult {
            ok: true,
            failures: vec![],
            checks: 1,
        };
        let host_bad = pda_ra::appraise::AppraisalResult {
            ok: false,
            failures: vec![],
            checks: 1,
        };
        assert!(uc5_cross_attestation(&host_ok, &chain, &reg, &golden, Nonce(1)).cleared());
        assert!(!uc5_cross_attestation(&host_bad, &chain, &reg, &golden, Nonce(1)).cleared());
        assert!(!uc5_cross_attestation(&host_ok, &chain, &reg, &golden, Nonce(2)).cleared());
        // A packet that carried no evidence does not clear the network side.
        let bare = uc5_cross_attestation(&host_ok, &[], &reg, &golden, Nonce(1));
        assert!(bare.host_ok && !bare.network_ok && !bare.cleared());
    }

    #[test]
    fn enroll_golden_reads_simulator_switches() {
        let lp = pda_netsim::linear_path(2, &pda_pera::config::PeraConfig::default(), &[]);
        let golden = enroll_golden(&lp.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
        assert!(golden.expected("sw1", DetailLevel::Program).is_some());
        assert!(golden.expected("sw2", DetailLevel::Hardware).is_some());
        assert!(golden.expected("client", DetailLevel::Program).is_none());
    }
}
