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
use pda_ra::appraise::{AppraisalResult, AppraiserTelemetry};
use pda_telemetry::{Counter, SpanSite, Telemetry, TraceCtx};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

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
    /// Yes-votes required for a federation of `n` appraisers: at least
    /// one under every rule, so a federation with no members accepts
    /// nothing.
    pub fn required(&self, n: usize) -> usize {
        let k = match self {
            Quorum::Majority => n / 2 + 1,
            Quorum::Unanimous => n,
            Quorum::KOfN(k) => (*k).min(n),
        };
        k.max(1)
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

/// Prefix of every member's audit-log subject.
const SUBJECT_PREFIX: &str = "svc/";

/// One independent appraiser instance.
pub struct Appraiser {
    /// Audit-log subject, `svc/<name>`, built once; [`Appraiser::name`]
    /// reads the name back out of it, so the two cannot disagree.
    subject: String,
    /// This instance's reference values.
    pub golden: GoldenStore,
    /// This instance's view of the fleet's verification keys.
    pub registry: KeyRegistry,
    /// Telemetry handles resolved from the first enabled handle this
    /// member appraises under, kept while it is given that handle.
    resolved: OnceLock<MemberTelemetry>,
}

/// What one federation member records into, resolved once per handle:
/// its `svc.appraiser.<name>` span, the `pda_ra` appraisal handles and
/// the federation's `svc.dissent` counter. The default records nothing.
#[derive(Clone, Default)]
struct MemberTelemetry {
    span: SpanSite,
    appraisal: AppraiserTelemetry,
    dissent: Option<Counter>,
}

impl MemberTelemetry {
    fn new(name: &str, telemetry: &Telemetry) -> Self {
        MemberTelemetry {
            span: telemetry.span_site(&format!("svc.appraiser.{name}")),
            appraisal: AppraiserTelemetry::new(telemetry),
            dissent: telemetry.registry().map(|r| r.counter("svc.dissent")),
        }
    }
}

impl Appraiser {
    /// Build an appraiser over its own copies of the reference state.
    pub fn new(name: impl Into<String>, golden: GoldenStore, registry: KeyRegistry) -> Appraiser {
        Appraiser {
            subject: format!("{SUBJECT_PREFIX}{}", name.into()),
            golden,
            registry,
            resolved: OnceLock::new(),
        }
    }

    /// Instance name (audit-log subject is `svc/<name>`).
    pub fn name(&self) -> &str {
        &self.subject[SUBJECT_PREFIX.len()..]
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
        self.appraise_into(records, nonce, chained, &self.handles(telemetry).appraisal)
    }

    fn appraise_into(
        &self,
        records: &[EvidenceRecord],
        nonce: Nonce,
        chained: bool,
        telemetry: &AppraiserTelemetry,
    ) -> AppraisalResult {
        pda_ra::appraise::appraise_records(
            records,
            &self.registry,
            &self.golden,
            nonce,
            chained,
            telemetry,
            &self.subject,
        )
    }

    /// This member's handles in `telemetry`: inert when it is disabled,
    /// the cached ones when it is the handle they were resolved from,
    /// else resolved afresh for this call.
    fn handles(&self, telemetry: &Telemetry) -> Cow<'_, MemberTelemetry> {
        if !telemetry.enabled() {
            return Cow::Owned(MemberTelemetry::default());
        }
        let resolved = self
            .resolved
            .get_or_init(|| MemberTelemetry::new(self.name(), telemetry));
        if resolved.appraisal.telemetry().same_as(telemetry) {
            Cow::Borrowed(resolved)
        } else {
            Cow::Owned(MemberTelemetry::new(self.name(), telemetry))
        }
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
    /// outcome; each member that disagreed with the quorum adds one to
    /// `svc.dissent`, which every member registers when it resolves
    /// its handles.
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
        // All members share the nonce-derived trace the switch opened
        // at measurement time; each gets its own child span.
        let ctx = TraceCtx::for_nonce(nonce.0);
        for (i, a) in self.appraisers.iter().enumerate() {
            let handles = a.handles(telemetry);
            let _span = handles.span.span_in(|| ctx.child(a.name(), i as u64));
            let r = a.appraise_into(records, nonce, chained, &handles.appraisal);
            checks += r.checks;
            if r.ok {
                yes += 1;
            } else if let Some(f) = r.failures.first() {
                causes.push(format!("{}: {f}", a.name()));
            }
            votes.push((a, handles, r.ok));
        }
        let ok = yes >= required;
        let mut dissenters = Vec::new();
        for (a, handles, _) in votes.iter().filter(|(_, _, v)| *v != ok) {
            if let Some(dissent) = &handles.dissent {
                dissent.inc();
            }
            dissenters.push(a.name().to_string());
        }
        telemetry.event(
            "svc.quorum",
            || ctx.child("quorum", 0),
            || {
                vec![
                    ("ok".to_string(), ok.into()),
                    ("yes".to_string(), (yes as u64).into()),
                    ("required".to_string(), (required as u64).into()),
                    ("dissent".to_string(), (dissenters.len() as u64).into()),
                ]
            },
        );
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
        // No members: one yes-vote is still required, and none can come.
        assert_eq!(Quorum::Majority.required(0), 1);
        assert_eq!(Quorum::Unanimous.required(0), 1);
        assert_eq!(Quorum::KOfN(2).required(0), 1);
    }

    #[test]
    fn a_federation_with_no_members_rejects_a_clean_chain() {
        use crate::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
        use pda_netsim::EvidenceMode;
        use pda_pera::evidence::assemble_chain;

        let mut fleet = standard_fleet(3);
        let (nonce, appraiser) = (Nonce(10), fleet.appraiser);
        fleet.send_attested(nonce, EvidenceMode::OutOfBand { appraiser }, b"clean");
        let (chain, orphans) = assemble_chain(fleet.sim.evidence_at(appraiser).to_vec());
        assert_eq!((chain.len(), orphans.len()), (3, 0));
        let tel = Telemetry::off();
        let (golden, registry) = (enroll_fleet_golden(&fleet), fleet_registry(&fleet));
        for quorum in [Quorum::Majority, Quorum::Unanimous, Quorum::KOfN(1)] {
            let member = Appraiser::new("a1", golden.clone(), registry.clone());
            let one = Federation {
                appraisers: vec![member],
                quorum,
            };
            assert!(
                one.appraise(&chain, nonce, true, &tel).ok,
                "the chain is clean"
            );
            let empty = Federation {
                appraisers: Vec::new(),
                quorum,
            };
            let verdict = empty.appraise(&chain, nonce, true, &tel);
            assert!(!verdict.ok, "{quorum}: {verdict:?}");
            assert_eq!((verdict.yes, verdict.total, verdict.required), (0, 0, 1));
        }
    }

    #[test]
    fn members_record_into_whichever_handle_they_are_given() {
        use crate::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
        use pda_netsim::EvidenceMode;
        use pda_pera::evidence::assemble_chain;

        let mut fleet = standard_fleet(3);
        let (nonce, appraiser) = (Nonce(4), fleet.appraiser);
        fleet.send_attested(nonce, EvidenceMode::OutOfBand { appraiser }, b"clean");
        let (chain, _) = assemble_chain(fleet.sim.evidence_at(appraiser).to_vec());
        let (golden, registry) = (enroll_fleet_golden(&fleet), fleet_registry(&fleet));
        let federation = Federation {
            appraisers: ["a1", "a2", "a3"]
                .map(|n| Appraiser::new(n, golden.clone(), registry.clone()))
                .into(),
            quorum: Quorum::Majority,
        };
        // The members resolve their handles from `first` and keep them;
        // `second` and a clone of `first` must still get their own due.
        let (first, second) = (Telemetry::collecting(), Telemetry::collecting());
        for tel in [&first, &second, &first.clone(), &Telemetry::off()] {
            assert!(federation.appraise(&chain, nonce, true, tel).ok);
        }
        for (tel, verdicts) in [(&first, 2), (&second, 1)] {
            let reg = tel.registry().unwrap();
            assert_eq!(reg.counter("ra.appraisals").get(), 3 * verdicts);
            assert_eq!(reg.histogram("svc.appraiser.a2.ns").count(), verdicts);
            assert_eq!(
                reg.histogram("ra.appraise_records.ns").count(),
                3 * verdicts
            );
            assert_eq!(reg.counter("svc.dissent").get(), 0);
            assert_eq!(tel.audit_log().unwrap().len() as u64, 4 * verdicts);
        }
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

    #[test]
    fn a_rogue_reload_after_a_clean_attestation_is_rejected() {
        use crate::churn::rogue_reload;
        use crate::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
        use pda_netsim::EvidenceMode;
        use pda_pera::evidence::assemble_chain;

        // The switch measures (and caches) its clean program for the
        // first nonce; the reloaded rogue must not attest that digest.
        let mut fleet = standard_fleet(3);
        let (golden, registry) = (enroll_fleet_golden(&fleet), fleet_registry(&fleet));
        let federation = Federation {
            appraisers: ["a1", "a2", "a3"]
                .map(|n| Appraiser::new(n, golden.clone(), registry.clone()))
                .into(),
            quorum: Quorum::Majority,
        };
        let appraiser = fleet.appraiser;
        let tel = Telemetry::off();
        let attest = |fleet: &mut pda_netsim::LinearPath, nonce| {
            fleet.send_attested(nonce, EvidenceMode::OutOfBand { appraiser }, b"pkt");
            let records = fleet.sim.evidence_at(appraiser);
            let (chain, _) = assemble_chain(
                records
                    .iter()
                    .filter(|r| r.nonce == nonce)
                    .cloned()
                    .collect(),
            );
            assert_eq!(chain.len(), 3);
            federation.appraise(&chain, nonce, true, &tel)
        };
        assert!(attest(&mut fleet, Nonce(1)).ok, "the clean program passes");
        rogue_reload(&mut fleet);
        let verdict = attest(&mut fleet, Nonce(2));
        assert!(!verdict.ok);
        assert_eq!(verdict.yes, 0);
        assert_eq!(verdict.causes.len(), 3);
        for cause in &verdict.causes {
            assert!(cause.contains("measurement of program"), "{cause}");
        }
    }
}
