//! The in-dataplane **verify unit** — the other half of Fig. 3's
//! "Sign/Verify" box.
//!
//! UC3 asks for evidence-based *authorization in the network itself*:
//! "the decision to forward packets could depend on whether those
//! packets have been processed by a set of appliances" and "while under
//! attack, a network could drop traffic for which it lacks path-based
//! evidence." That requires switches to not only *produce* evidence but
//! to *consume* it: inspect the in-band chain arriving with a packet
//! (Fig. 3 case (A)) and act on the verdict before forwarding.
//!
//! [`VerifyUnit`] holds the upstream key registry and an admission
//! policy; [`VerifyUnit::check`] renders a verdict for one packet's
//! chain. The netsim engine consults it on PERA switches configured as
//! enforcement points.

use crate::config::DetailLevel;
use crate::evidence::{verify_chain, EvidenceRecord};
use crate::golden::GoldenStore;
use pda_crypto::keyreg::KeyRegistry;
use pda_crypto::nonce::Nonce;
use pda_telemetry::{AuditEvent, Counter, Telemetry};
use std::fmt;

/// How the gate treats evidence that is *absent* — plausibly lost in
/// transit — as opposed to evidence that is *present but wrong*
/// (forged, replayed, or from an unexpected program).
///
/// Under lossy conditions an in-band chain can legitimately arrive
/// short (an upstream record was dropped with an earlier copy of the
/// packet, or a switch was down during its attestation window).
/// Fail-open trades enforcement strictness for availability in that
/// regime; cryptographic failure is never forgiven in either mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailMode {
    /// Absent or short evidence is a drop (the safe default).
    #[default]
    FailClosed,
    /// Absent or short evidence is admitted; only *invalid* evidence
    /// (bad signature/linkage/nonce, wrong program, missing detail,
    /// missing waypoint) is dropped.
    FailOpen,
}

/// What the enforcement point requires of arriving traffic.
#[derive(Clone, Debug)]
pub struct AdmissionPolicy {
    /// Minimum number of attested hops the chain must contain.
    pub min_hops: usize,
    /// Detail levels every record must carry.
    pub required_details: Vec<DetailLevel>,
    /// Program digests to pin, read at the Program level only; an
    /// empty store = signatures and linkage only.
    pub expected_programs: GoldenStore,
    /// Switch names that must appear somewhere in the chain (the UC3
    /// "crossed a specific series of appliances" test; empty = any).
    pub required_waypoints: Vec<String>,
    /// Degradation semantics for evidence missing due to loss.
    pub fail_mode: FailMode,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            min_hops: 1,
            required_details: vec![DetailLevel::Program],
            expected_programs: GoldenStore::new(),
            required_waypoints: Vec::new(),
            fail_mode: FailMode::FailClosed,
        }
    }
}

/// Verdict of the verify unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Chain passes; forward the packet.
    Admit,
    /// No evidence at all.
    NoEvidence,
    /// Cryptographic failure (signature, linkage, nonce).
    BadChain,
    /// Fewer attested hops than required.
    TooFewHops {
        /// Hops found.
        got: usize,
        /// Hops required.
        need: usize,
    },
    /// A record lacks a required detail level.
    MissingDetail(DetailLevel),
    /// A pinned program digest disagreed.
    WrongProgram {
        /// The offending switch.
        switch: String,
    },
    /// A required waypoint is absent from the chain.
    MissingWaypoint(String),
}

impl Verdict {
    /// Should the packet be forwarded?
    pub fn admits(&self) -> bool {
        matches!(self, Verdict::Admit)
    }

    /// Is this rejection consistent with evidence lost in transit (as
    /// opposed to evidence present but invalid)? Fail-open mode only
    /// forgives loss-consistent rejections.
    pub fn loss_consistent(&self) -> bool {
        matches!(self, Verdict::NoEvidence | Verdict::TooFewHops { .. })
    }

    /// Short label for telemetry/audit (`"NoEvidence"`, `"BadChain"`…).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Admit => "Admit",
            Verdict::NoEvidence => "NoEvidence",
            Verdict::BadChain => "BadChain",
            Verdict::TooFewHops { .. } => "TooFewHops",
            Verdict::MissingDetail(_) => "MissingDetail",
            Verdict::WrongProgram { .. } => "WrongProgram",
            Verdict::MissingWaypoint(_) => "MissingWaypoint",
        }
    }
}

/// Verify-unit statistics: the unit's only books. The
/// `pera.enforce.*` registry counters are published from them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Packets whose chains were checked.
    pub checked: u64,
    /// Packets admitted.
    pub admitted: u64,
    /// Packets rejected.
    pub rejected: u64,
    /// Subset of `admitted` let through only because the policy failed
    /// open on loss-consistent missing evidence.
    pub fail_open_admits: u64,
}

/// Reads one field of the books.
type StatsField = fn(&VerifyStats) -> u64;

/// Each `pera.enforce.*` registry counter and the [`VerifyStats`]
/// field it publishes.
const PUBLISHED: [(&str, StatsField); 3] = [
    ("pera.enforce.admitted", |s| s.admitted),
    ("pera.enforce.rejected", |s| s.rejected),
    ("pera.enforce.fail_open", |s| s.fail_open_admits),
];

/// The in-switch verify unit.
#[derive(Clone, Default)]
pub struct VerifyUnit {
    /// Keys of upstream attesting elements.
    pub registry: KeyRegistry,
    /// Admission requirements.
    pub policy: AdmissionPolicy,
    /// Counters.
    pub stats: VerifyStats,
    /// Name used in audit records (the enforcing node).
    pub name: String,
    telemetry: Telemetry,
    /// Registry handles of the `PUBLISHED` counters, index-aligned;
    /// empty when `telemetry` is disabled.
    counters: Vec<Counter>,
}

impl fmt::Debug for VerifyUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyUnit")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl VerifyUnit {
    /// Build a unit from a registry and policy.
    pub fn new(registry: KeyRegistry, policy: AdmissionPolicy) -> VerifyUnit {
        VerifyUnit {
            registry,
            policy,
            stats: VerifyStats::default(),
            name: String::new(),
            telemetry: Telemetry::off(),
            counters: Vec::new(),
        }
    }

    /// Attach a telemetry handle: every verdict then publishes the
    /// [`VerifyStats`] it moved to `pera.enforce.*` and appends an
    /// [`AuditEvent::Enforcement`] record naming this unit. The
    /// `pera.enforce.*` counter handles are resolved from the registry
    /// once, here, as [`crate::PeraSwitch::set_telemetry`] resolves its
    /// own.
    pub fn set_telemetry(&mut self, tel: Telemetry, name: impl Into<String>) {
        self.counters = tel.registry().map_or_else(Vec::new, |r| {
            PUBLISHED.iter().map(|(name, _)| r.counter(name)).collect()
        });
        self.telemetry = tel;
        self.name = name.into();
    }

    /// Check one packet's in-band chain against the admission policy.
    ///
    /// `chain: None` (or empty) means the packet carries no evidence at
    /// all; `nonce: None` means the packet carries no attestation
    /// header to take a nonce from. A chain without a nonce cannot be
    /// freshness-checked and is treated as [`Verdict::BadChain`].
    ///
    /// The returned verdict already reflects the policy's
    /// [`FailMode`]: under [`FailMode::FailOpen`], loss-consistent
    /// rejections are converted to [`Verdict::Admit`] (and counted in
    /// [`VerifyStats::fail_open_admits`]); cryptographically invalid
    /// evidence is rejected in either mode.
    pub fn check(&mut self, chain: Option<&[EvidenceRecord]>, nonce: Option<Nonce>) -> Verdict {
        let raw = self.evaluate(chain, nonce);
        let fail_open_admit =
            !raw.admits() && raw.loss_consistent() && self.policy.fail_mode == FailMode::FailOpen;
        let verdict = if fail_open_admit { Verdict::Admit } else { raw };
        let before = self.stats;
        self.stats.checked += 1;
        self.stats.admitted += u64::from(verdict.admits());
        self.stats.rejected += u64::from(!verdict.admits());
        self.stats.fail_open_admits += u64::from(fail_open_admit);
        for ((_, read), counter) in PUBLISHED.iter().zip(&self.counters) {
            let gained = read(&self.stats) - read(&before);
            if gained > 0 {
                counter.add(gained);
            }
        }
        self.telemetry.audit_with(|| AuditEvent::Enforcement {
            unit: self.name.clone(),
            nonce: nonce.map(|n| n.0),
            admitted: verdict.admits(),
            cause: (!verdict.admits()).then(|| verdict.label().to_string()),
        });
        verdict
    }

    fn evaluate(&self, chain: Option<&[EvidenceRecord]>, nonce: Option<Nonce>) -> Verdict {
        let chain = chain.unwrap_or(&[]);
        if chain.is_empty() {
            // An empty chain is only acceptable when the policy demands
            // no attested hops at all.
            return if self.policy.min_hops == 0 {
                Verdict::Admit
            } else {
                Verdict::NoEvidence
            };
        }
        if chain.len() < self.policy.min_hops {
            return Verdict::TooFewHops {
                got: chain.len(),
                need: self.policy.min_hops,
            };
        }
        // Evidence without a nonce cannot be bound to this packet's
        // attestation round — indistinguishable from a replay.
        let Some(nonce) = nonce else {
            return Verdict::BadChain;
        };
        if verify_chain(chain, &self.registry, nonce, true).is_err() {
            return Verdict::BadChain;
        }
        for record in chain {
            for &level in &self.policy.required_details {
                if record.detail(level).is_none() {
                    return Verdict::MissingDetail(level);
                }
            }
            let pinned = self
                .policy
                .expected_programs
                .expected(&record.switch, DetailLevel::Program);
            if pinned.is_some() && record.detail(DetailLevel::Program) != pinned {
                return Verdict::WrongProgram {
                    switch: record.switch.clone(),
                };
            }
        }
        for wp in &self.policy.required_waypoints {
            if !chain.iter().any(|r| &r.switch == wp) {
                return Verdict::MissingWaypoint(wp.clone());
            }
        }
        Verdict::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_crypto::digest::Digest;
    use pda_crypto::keyreg::PrincipalId;
    use pda_crypto::sig::{SigScheme, Signer};

    fn chain_and_registry(names: &[&str], nonce: Nonce) -> (Vec<EvidenceRecord>, KeyRegistry) {
        let mut reg = KeyRegistry::new();
        let mut prev = Digest::ZERO;
        let mut out = Vec::new();
        for n in names {
            let mut s = Signer::new(SigScheme::Hmac, Digest::of(n.as_bytes()).0, 0);
            reg.register(PrincipalId::new(*n), s.verify_key(0));
            let r = EvidenceRecord::create(
                n,
                vec![
                    (DetailLevel::Hardware, Digest::of(b"hw")),
                    (
                        DetailLevel::Program,
                        Digest::of_parts(&[b"pg", n.as_bytes()]),
                    ),
                ],
                nonce,
                prev,
                &mut s,
            )
            .unwrap();
            prev = r.chain;
            out.push(r);
        }
        (out, reg)
    }

    #[test]
    fn admits_valid_chain() {
        let (chain, reg) = chain_and_registry(&["sw1", "sw2"], Nonce(1));
        let mut unit = VerifyUnit::new(reg, AdmissionPolicy::default());
        assert_eq!(unit.check(Some(&chain), Some(Nonce(1))), Verdict::Admit);
        assert_eq!(unit.stats.admitted, 1);
    }

    #[test]
    fn rejects_missing_and_empty_evidence() {
        let (_, reg) = chain_and_registry(&["sw1"], Nonce(1));
        let mut unit = VerifyUnit::new(reg, AdmissionPolicy::default());
        assert_eq!(unit.check(None, None), Verdict::NoEvidence);
        assert_eq!(unit.check(Some(&[]), Some(Nonce(1))), Verdict::NoEvidence);
        assert_eq!(unit.stats.rejected, 2);
    }

    #[test]
    fn rejects_bad_chain_and_wrong_nonce() {
        let (mut chain, reg) = chain_and_registry(&["sw1", "sw2"], Nonce(1));
        let mut unit = VerifyUnit::new(reg, AdmissionPolicy::default());
        assert_eq!(unit.check(Some(&chain), Some(Nonce(2))), Verdict::BadChain);
        // A chain with no nonce to bind to is indistinguishable from a
        // replay: always a cryptographic failure.
        assert_eq!(unit.check(Some(&chain), None), Verdict::BadChain);
        chain[0].details[0].1 = Digest::of(b"tampered");
        assert_eq!(unit.check(Some(&chain), Some(Nonce(1))), Verdict::BadChain);
    }

    #[test]
    fn min_hops_enforced() {
        let (chain, reg) = chain_and_registry(&["sw1"], Nonce(1));
        let mut unit = VerifyUnit::new(
            reg,
            AdmissionPolicy {
                min_hops: 3,
                ..AdmissionPolicy::default()
            },
        );
        assert_eq!(
            unit.check(Some(&chain), Some(Nonce(1))),
            Verdict::TooFewHops { got: 1, need: 3 }
        );
    }

    #[test]
    fn min_hops_zero_admits_unattested() {
        // Regression: the seed dropped every unattested packet even
        // under `min_hops: 0` — `NoEvidence` was unconditional.
        let (_, reg) = chain_and_registry(&["sw1"], Nonce(1));
        let mut unit = VerifyUnit::new(
            reg,
            AdmissionPolicy {
                min_hops: 0,
                ..AdmissionPolicy::default()
            },
        );
        assert_eq!(unit.check(None, None), Verdict::Admit);
        assert_eq!(unit.check(Some(&[]), None), Verdict::Admit);
        assert_eq!(
            unit.stats.fail_open_admits, 0,
            "policy admit, not fail-open"
        );
    }

    #[test]
    fn fail_open_forgives_loss_but_not_forgery() {
        let (mut chain, reg) = chain_and_registry(&["sw1"], Nonce(1));
        let mut unit = VerifyUnit::new(
            reg,
            AdmissionPolicy {
                min_hops: 2,
                fail_mode: FailMode::FailOpen,
                ..AdmissionPolicy::default()
            },
        );
        // Loss-consistent: no evidence, or fewer hops than required.
        assert_eq!(unit.check(None, None), Verdict::Admit);
        assert_eq!(unit.check(Some(&chain), Some(Nonce(1))), Verdict::Admit);
        assert_eq!(unit.stats.fail_open_admits, 2);
        // Forgery-consistent: evidence present but cryptographically
        // wrong stays a drop even when failing open.
        chain[0].details[0].1 = Digest::of(b"tampered");
        chain.push(chain[0].clone());
        assert_eq!(unit.check(Some(&chain), Some(Nonce(1))), Verdict::BadChain);
        assert_eq!(unit.stats.rejected, 1);
    }

    #[test]
    fn telemetry_counters_match_stats() {
        // The PR-2 observability bugfix: enforcement verdicts must be
        // visible as counters and audit records that agree with
        // `VerifyStats` exactly.
        use pda_telemetry::Telemetry;
        let (chain, reg) = chain_and_registry(&["sw1", "sw2"], Nonce(1));
        let tel = Telemetry::collecting();
        let mut unit = VerifyUnit::new(reg, AdmissionPolicy::default());
        unit.set_telemetry(tel.clone(), "edge");
        unit.check(Some(&chain), Some(Nonce(1)));
        unit.check(Some(&chain), Some(Nonce(2)));
        unit.check(None, None);
        let reg = tel.registry().unwrap();
        assert_eq!(
            reg.counter("pera.enforce.admitted").get(),
            unit.stats.admitted
        );
        assert_eq!(
            reg.counter("pera.enforce.rejected").get(),
            unit.stats.rejected
        );
        assert_eq!(
            unit.stats,
            VerifyStats {
                checked: 3,
                admitted: 1,
                rejected: 2,
                fail_open_admits: 0
            }
        );
        let records = tel.audit_log().unwrap().records();
        let enforce: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                pda_telemetry::AuditEvent::Enforcement {
                    unit,
                    admitted,
                    cause,
                    ..
                } => Some((unit.clone(), *admitted, cause.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            enforce,
            vec![
                ("edge".into(), true, None),
                ("edge".into(), false, Some("BadChain".into())),
                ("edge".into(), false, Some("NoEvidence".into())),
            ]
        );

        // Under FailOpen, loss-consistent admits are published too: two
        // short-evidence admits, one replay dropped.
        let tel = Telemetry::collecting();
        unit.policy.min_hops = 3;
        unit.policy.fail_mode = FailMode::FailOpen;
        unit.set_telemetry(tel.clone(), "edge");
        unit.check(Some(&chain), Some(Nonce(1)));
        unit.check(None, None);
        unit.policy.min_hops = 2;
        unit.check(Some(&chain), Some(Nonce(2)));
        let reg = tel.registry().unwrap();
        assert_eq!(unit.stats.fail_open_admits, 2);
        assert_eq!(
            reg.counter("pera.enforce.fail_open").get(),
            unit.stats.fail_open_admits
        );
        assert_eq!(reg.counter("pera.enforce.admitted").get(), 2);
        assert_eq!(reg.counter("pera.enforce.rejected").get(), 1);
    }

    #[test]
    fn required_detail_enforced() {
        let (chain, reg) = chain_and_registry(&["sw1"], Nonce(1));
        let mut unit = VerifyUnit::new(
            reg,
            AdmissionPolicy {
                required_details: vec![DetailLevel::Tables],
                ..AdmissionPolicy::default()
            },
        );
        assert_eq!(
            unit.check(Some(&chain), Some(Nonce(1))),
            Verdict::MissingDetail(DetailLevel::Tables)
        );
    }

    #[test]
    fn pinned_program_enforced() {
        let (chain, reg) = chain_and_registry(&["sw1"], Nonce(1));
        let mut expected = GoldenStore::new();
        expected.expect("sw1", DetailLevel::Program, Digest::of(b"different"));
        let mut unit = VerifyUnit::new(
            reg,
            AdmissionPolicy {
                expected_programs: expected,
                ..AdmissionPolicy::default()
            },
        );
        assert_eq!(
            unit.check(Some(&chain), Some(Nonce(1))),
            Verdict::WrongProgram {
                switch: "sw1".into()
            }
        );
    }

    #[test]
    fn waypoints_enforced() {
        // The UC3 "must have crossed the scrubber" test.
        let (chain, reg) = chain_and_registry(&["sw1", "sw2"], Nonce(1));
        let mut unit = VerifyUnit::new(
            reg,
            AdmissionPolicy {
                required_waypoints: vec!["scrubber".to_string()],
                ..AdmissionPolicy::default()
            },
        );
        assert_eq!(
            unit.check(Some(&chain), Some(Nonce(1))),
            Verdict::MissingWaypoint("scrubber".into())
        );
        let (chain2, reg2) = chain_and_registry(&["sw1", "scrubber"], Nonce(1));
        let mut unit2 = VerifyUnit::new(
            reg2,
            AdmissionPolicy {
                required_waypoints: vec!["scrubber".to_string()],
                ..AdmissionPolicy::default()
            },
        );
        assert_eq!(unit2.check(Some(&chain2), Some(Nonce(1))), Verdict::Admit);
    }
}
