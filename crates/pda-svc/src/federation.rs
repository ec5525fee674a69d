//! Multi-appraiser federation: N independent appraisers, one quorum.
//!
//! Each [`Appraiser`] holds its *own* golden store and key registry and
//! runs the full `pda_ra` appraisal machinery over submitted evidence.
//! The coordinator combines the independent verdicts under a
//! [`Quorum`] rule, so a single faulty or corrupted appraiser — wrong
//! golden values, stale keys, outright malice — is out-voted rather
//! than trusted. Every individual verdict lands in the shared audit
//! log under the appraiser's own subject (`svc/a1`, …), so dissent is
//! visible and attributable, followed by one combined `svc/quorum`
//! event.

use pda_crypto::keyreg::KeyRegistry;
use pda_crypto::nonce::Nonce;
use pda_pera::config::DetailLevel;
use pda_pera::{EvidenceRecord, GoldenStore};
use pda_ra::appraise::AppraisalResult;
use pda_telemetry::Telemetry;
use std::fmt;

/// How many appraisers must say *yes* for the federation to say yes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quorum {
    /// Strict majority (`n/2 + 1`).
    Majority,
    /// Every appraiser must agree.
    Unanimous,
    /// At least `k` of the `n` appraisers.
    KOfN(usize),
}

impl Quorum {
    /// Yes-votes required for a federation of `n` appraisers.
    pub fn required(&self, n: usize) -> usize {
        match self {
            Quorum::Majority => n / 2 + 1,
            Quorum::Unanimous => n,
            Quorum::KOfN(k) => (*k).clamp(1, n.max(1)),
        }
    }

    /// Parse `majority`, `unanimous`, or `K-of-N` (e.g. `2-of-3`;
    /// only `K` is read — `N` is fixed by the federation size).
    pub fn parse(s: &str) -> Option<Quorum> {
        match s {
            "majority" => Some(Quorum::Majority),
            "unanimous" => Some(Quorum::Unanimous),
            _ => {
                let (k, _) = s.split_once("-of-")?;
                Some(Quorum::KOfN(k.parse().ok().filter(|&k| k > 0)?))
            }
        }
    }
}

impl fmt::Display for Quorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quorum::Majority => write!(f, "majority"),
            Quorum::Unanimous => write!(f, "unanimous"),
            Quorum::KOfN(k) => write!(f, "{k}-of-n"),
        }
    }
}

/// One independent appraiser instance.
pub struct Appraiser {
    /// Instance name (audit-log subject is `svc/<name>`).
    pub name: String,
    /// This instance's reference values.
    pub golden: GoldenStore,
    /// This instance's view of the fleet's verification keys.
    pub registry: KeyRegistry,
}

impl Appraiser {
    /// Build an appraiser over its own copies of the reference state.
    pub fn new(name: impl Into<String>, golden: GoldenStore, registry: KeyRegistry) -> Appraiser {
        Appraiser {
            name: name.into(),
            golden,
            registry,
        }
    }

    /// Corrupt this appraiser's golden store: overwrite one switch's
    /// expectation with garbage, turning it into the deliberately
    /// faulty federation member the quorum must out-vote.
    pub fn poison(&mut self, switch: &str, level: DetailLevel) {
        self.golden.expect(
            switch,
            level,
            pda_crypto::digest::Digest::of(b"poisoned golden value"),
        );
    }

    /// Run a full independent appraisal of `records`.
    pub fn appraise(
        &self,
        records: &[EvidenceRecord],
        nonce: Nonce,
        chained: bool,
        telemetry: &Telemetry,
    ) -> AppraisalResult {
        pda_ra::appraise::appraise_records(
            records,
            &self.registry,
            &self.golden,
            nonce,
            chained,
            telemetry,
            &format!("svc/{}", self.name),
        )
    }
}

/// The combined federation verdict for one evidence chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumVerdict {
    /// Did the quorum accept the evidence?
    pub ok: bool,
    /// Yes-votes.
    pub yes: usize,
    /// Federation size.
    pub total: usize,
    /// Yes-votes needed under the active quorum rule.
    pub required: usize,
    /// Names of appraisers whose individual verdict disagreed with
    /// the combined one.
    pub dissenters: Vec<String>,
    /// First failure cause from each no-voting appraiser, as
    /// `name: cause` lines.
    pub causes: Vec<String>,
}

/// A federation of appraisers plus the quorum rule combining them.
pub struct Federation {
    /// The member appraisers.
    pub appraisers: Vec<Appraiser>,
    /// Active quorum rule.
    pub quorum: Quorum,
}

impl Federation {
    /// Appraise `records` on every member independently and combine.
    ///
    /// Audit trail: one `Appraisal` event per member (its own
    /// verdict), then one `svc/quorum` event with the combined
    /// outcome; `svc.dissent` counts members that disagreed with the
    /// quorum.
    pub fn appraise(
        &self,
        records: &[EvidenceRecord],
        nonce: Nonce,
        chained: bool,
        telemetry: &Telemetry,
    ) -> QuorumVerdict {
        let total = self.appraisers.len();
        let required = self.quorum.required(total);
        let mut yes = 0usize;
        let mut votes = Vec::with_capacity(total);
        let mut causes = Vec::new();
        let mut checks = 0u64;
        // All members share the nonce-derived trace the switch stamped
        // at measurement time; each gets its own child span.
        let ctx = pda_telemetry::TraceCtx::for_nonce(nonce.0);
        for (i, a) in self.appraisers.iter().enumerate() {
            let mut span = telemetry.span_with(|| format!("svc.appraiser.{}", a.name));
            if span.is_active() {
                ctx.child(&a.name, i as u64).stamp(&mut span);
            }
            let r = a.appraise(records, nonce, chained, telemetry);
            checks += r.checks;
            if r.ok {
                yes += 1;
            } else if let Some(f) = r.failures.first() {
                causes.push(format!("{}: {f}", a.name));
            }
            votes.push((a.name.clone(), r.ok));
        }
        let ok = yes >= required;
        let dissenters: Vec<String> = votes
            .iter()
            .filter(|(_, v)| *v != ok)
            .map(|(n, _)| n.clone())
            .collect();
        if let Some(reg) = telemetry.registry() {
            reg.counter("svc.dissent").add(dissenters.len() as u64);
        }
        if telemetry.enabled() {
            let mut fields = ctx.child("quorum", 0).fields();
            fields.push(("ok".to_string(), ok.into()));
            fields.push(("yes".to_string(), (yes as u64).into()));
            fields.push(("required".to_string(), (required as u64).into()));
            fields.push(("dissent".to_string(), (dissenters.len() as u64).into()));
            telemetry.event("svc.quorum", fields);
        }
        telemetry.audit_with(|| pda_telemetry::AuditEvent::Appraisal {
            subject: "svc/quorum".to_string(),
            nonce: Some(nonce.0),
            ok,
            checks,
            cause: if ok {
                None
            } else {
                Some(format!(
                    "quorum not met: {yes}/{total} yes, {required} required"
                ))
            },
            trace: Some(ctx.trace.to_hex()),
        });
        QuorumVerdict {
            ok,
            yes,
            total,
            required,
            dissenters,
            causes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_thresholds() {
        assert_eq!(Quorum::Majority.required(3), 2);
        assert_eq!(Quorum::Majority.required(4), 3);
        assert_eq!(Quorum::Unanimous.required(3), 3);
        assert_eq!(Quorum::KOfN(2).required(3), 2);
        assert_eq!(Quorum::KOfN(9).required(3), 3, "k clamps to n");
        assert_eq!(Quorum::KOfN(0).required(3), 1, "k clamps up to 1");
    }

    #[test]
    fn quorum_parses() {
        assert_eq!(Quorum::parse("majority"), Some(Quorum::Majority));
        assert_eq!(Quorum::parse("unanimous"), Some(Quorum::Unanimous));
        assert_eq!(Quorum::parse("2-of-3"), Some(Quorum::KOfN(2)));
        assert_eq!(Quorum::parse("0-of-3"), None);
        assert_eq!(Quorum::parse("x-of-3"), None);
        assert_eq!(Quorum::parse("twice"), None);
    }

    #[test]
    fn rogue_that_withholds_its_own_record_is_rejected() {
        use crate::churn::rogue_reload;
        use crate::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
        use pda_netsim::EvidenceMode;
        use pda_pera::evidence::assemble_chain;

        let clean = standard_fleet(3);
        let (golden, registry) = (enroll_fleet_golden(&clean), fleet_registry(&clean));
        let federation = Federation {
            appraisers: ["a1", "a2", "a3"]
                .map(|n| Appraiser::new(n, golden.clone(), registry.clone()))
                .into(),
            quorum: Quorum::Majority,
        };
        let mut fleet = standard_fleet(3);
        rogue_reload(&mut fleet);
        let (nonce, appraiser) = (Nonce(7), fleet.appraiser);
        fleet.send_attested(nonce, EvidenceMode::OutOfBand { appraiser }, b"rogue");
        let records = fleet.sim.evidence_at(appraiser).to_vec();
        assert_eq!(records.len(), 3);
        let tel = Telemetry::off();

        // The whole chain shows the rogue program.
        let (chain, _) = assemble_chain(records.clone());
        assert!(!federation.appraise(&chain, nonce, true, &tel).ok);

        // sw1 drops its own record: the others link to nothing, so the
        // chain reassembles to no records and two orphans, which must
        // not pass as clean.
        let kept = records.into_iter().filter(|r| r.switch != "sw1").collect();
        let (chain, orphans) = assemble_chain(kept);
        assert_eq!((chain.len(), orphans.len()), (0, 2));
        let verdict = federation.appraise(&chain, nonce, true, &tel);
        assert!(!verdict.ok);
        assert_eq!(verdict.yes, 0, "every member rejects: {:?}", verdict.causes);
    }
}
