//! Semantic appraisal: the [`RequireLintClean`] policy atom.
//!
//! Hash-based appraisal answers "is this *the* program we blessed?" —
//! it can only reject a rogue program whose digest is already on a
//! blacklist (or absent from a whitelist). The static analyzer
//! (`pda-analyze`) answers a different question: "does this program
//! *do* anything a dataplane should not?" `RequireLintClean` turns
//! that answer into an appraisal verdict, so a policy can demand
//! "hash matches **and** the analyzer finds nothing worse than the
//! tolerated severity" — rejecting a never-before-seen rogue program
//! with zero hash-list maintenance.
//!
//! The atom composes with PERA's `DetailLevel::LintVerdict` evidence:
//! the switch attests the digest of its own analysis verdict, the
//! appraiser re-runs the analyzer over the claimed program and checks
//! (a) the attested digest matches the recomputed one and (b) the
//! recomputed report is clean under the policy.

use crate::appraise::{AppraisalResult, Failure};
use crate::runtime::Environment;
use pda_analyze::{AnalysisReport, Diagnostic, Severity};
use pda_copland::ast::Place;
use pda_crypto::digest::Digest;
use pda_dataplane::pipeline::DataplaneProgram;

/// Policy atom: the analyzer must find nothing worse than
/// `max_severity` (codes on the `allow` list are tolerated at any
/// severity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequireLintClean {
    /// Worst severity the policy tolerates. `Severity::Warning` means
    /// warnings pass but any `Error` diagnostic fails the appraisal.
    pub max_severity: Severity,
    /// Diagnostic codes exempted from the severity bound (accepted
    /// residual risk, e.g. a known-benign `PDA401` on a lawful-mirror
    /// program).
    pub allow: Vec<String>,
}

impl RequireLintClean {
    /// A policy tolerating diagnostics up to and including
    /// `max_severity`.
    pub fn new(max_severity: Severity) -> RequireLintClean {
        RequireLintClean {
            max_severity,
            allow: Vec::new(),
        }
    }

    /// Builder: exempt a diagnostic code from the severity bound.
    pub fn allowing(mut self, code: impl Into<String>) -> RequireLintClean {
        self.allow.push(code.into());
        self
    }

    /// The diagnostics in `report` that violate this policy.
    pub fn violations<'r>(&self, report: &'r AnalysisReport) -> Vec<&'r Diagnostic> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity > self.max_severity)
            .filter(|d| !self.allow.iter().any(|c| c == d.code))
            .collect()
    }

    /// Appraise `program` semantically: run the analyzer, turn every
    /// intolerable diagnostic into a [`Failure::LintViolation`], and —
    /// when `attested_verdict` carries the digest a switch attested at
    /// `DetailLevel::LintVerdict` — check it against the locally
    /// recomputed verdict digest (a mismatch means the attester lied
    /// about what its analyzer saw).
    ///
    /// The verdict is recorded in the environment's audit log and
    /// `ra.*` counters exactly like hash-based appraisal.
    pub fn appraise_program(
        &self,
        env: &Environment,
        attester: &str,
        program: &DataplaneProgram,
        attested_verdict: Option<&Digest>,
    ) -> SemanticAppraisal {
        let _span = env.semantic_span.span();
        let report = pda_analyze::analyze_default(program);
        let mut result = AppraisalResult {
            ok: true,
            failures: Vec::new(),
            checks: 1,
        };
        if let Some(attested) = attested_verdict {
            result.checks += 1;
            let recomputed = report.verdict_digest();
            if *attested != recomputed {
                result.ok = false;
                result.failures.push(Failure::CorruptMeasurement {
                    target: "lint-verdict".to_string(),
                    target_place: Place::new(attester),
                    observed: *attested,
                    expected: recomputed,
                });
            }
        }
        for d in self.violations(&report) {
            result.checks += 1;
            result.ok = false;
            result.failures.push(Failure::LintViolation {
                program: program.name.clone(),
                code: d.code.to_string(),
                severity: d.severity.name().to_string(),
                detail: format!("{} {}: {}", d.location, d.subject, d.message),
            });
        }
        env.verdicts
            .record(&format!("lint({attester},{})", program.name), None, &result);
        SemanticAppraisal { result, report }
    }
}

/// Outcome of a semantic appraisal: the verdict plus the full analyzer
/// report that produced it (for diagnostics display / JSON export).
#[derive(Clone, Debug)]
pub struct SemanticAppraisal {
    /// The appraisal verdict, audit-logged like any other.
    pub result: AppraisalResult,
    /// The underlying analyzer report.
    pub report: AnalysisReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_analyze::corpus;

    /// The acceptance scenario: a rogue program whose hash is on *no*
    /// blacklist — the environment has never seen it — is still
    /// rejected, and the negative verdict lands in the audit log.
    #[test]
    fn rogue_off_every_blacklist_still_rejected() {
        let tel = pda_telemetry::Telemetry::collecting();
        let env = Environment::new().with_telemetry(tel.clone());
        let rogue = corpus::canonical_rogue_wiretap();
        // No golden value anywhere references this program's digest.
        assert!(env.golden.is_empty() && env.golden_sources.is_empty());
        let policy = RequireLintClean::new(Severity::Warning);
        let out = policy.appraise_program(&env, "Switch", &rogue, None);
        assert!(!out.result.ok);
        assert!(
            out.result.failures.iter().any(|f| matches!(
                f,
                Failure::LintViolation { code, severity, .. }
                    if code == "PDA401" && severity == "error"
            )),
            "{:?}",
            out.result.failures
        );
        // Verdict visible in the audit log with the diagnostic code.
        let audit = tel.audit_log().unwrap().records();
        let verdicts: Vec<_> = audit
            .iter()
            .filter_map(|r| match &r.event {
                pda_telemetry::AuditEvent::Appraisal {
                    subject, ok, cause, ..
                } => Some((subject.clone(), *ok, cause.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts.len(), 1);
        assert!(!verdicts[0].1);
        // The wiretap masquerades under the legit forwarder's name —
        // the audit subject records the *claimed* identity, and the
        // analyzer rejects it anyway.
        assert!(verdicts[0].0.contains("forward_v2.p4"));
        assert!(verdicts[0].2.as_deref().unwrap().contains("PDA401"));
        let reg = tel.registry().unwrap();
        assert_eq!(reg.counter("ra.appraisals").get(), 1);
        assert_eq!(reg.counter("ra.appraisal_failures").get(), 1);
    }

    /// The PDA5xx acceptance scenario: an ACL whose advertised block is
    /// symbolically dead (shadowed by a wildcard allow) is rejected by
    /// `RequireLintClean`, and the dead-rule code is visible in the
    /// audit log — hash lists can't catch it (the program is novel),
    /// taint can't either (nothing is exfiltrated); only whole-table
    /// reachability reasoning does.
    #[test]
    fn shadowed_blocklist_rejected_with_dead_rule_code_in_audit() {
        let tel = pda_telemetry::Telemetry::collecting();
        let env = Environment::new().with_telemetry(tel.clone());
        let rogue = corpus::canonical_rogue_acl_shadow();
        assert!(env.golden.is_empty() && env.golden_sources.is_empty());
        let policy = RequireLintClean::new(Severity::Warning);
        let out = policy.appraise_program(&env, "Switch", &rogue, None);
        assert!(!out.result.ok);
        assert!(
            out.result.failures.iter().any(|f| matches!(
                f,
                Failure::LintViolation { code, severity, .. }
                    if code == "PDA502" && severity == "error"
            )),
            "{:?}",
            out.result.failures
        );
        let audit = tel.audit_log().unwrap().records();
        let verdict = audit
            .iter()
            .find_map(|r| match &r.event {
                pda_telemetry::AuditEvent::Appraisal {
                    subject, ok, cause, ..
                } => Some((subject.clone(), *ok, cause.clone())),
                _ => None,
            })
            .expect("appraisal verdict audited");
        assert!(!verdict.1);
        // The rogue masquerades under the legit ACL's name; the audit
        // subject records the claimed identity, the cause the dead rule.
        assert!(verdict.0.contains("ACL_v3.p4"));
        assert!(verdict.2.as_deref().unwrap().contains("PDA502"));
    }

    #[test]
    fn benign_program_passes_and_rogues_fail_across_corpus() {
        let env = Environment::new();
        let policy = RequireLintClean::new(Severity::Warning);
        for (name, program, rogue) in corpus::builtins() {
            let out = policy.appraise_program(&env, "Switch", &program, None);
            assert_eq!(out.result.ok, !rogue, "{name}: {:?}", out.result.failures);
        }
    }

    #[test]
    fn allow_list_and_severity_bound_tolerate_findings() {
        let env = Environment::new();
        let rogue = corpus::canonical_rogue_flow_monitor();
        // Severed register fires PDA402 at Error severity.
        let strict = RequireLintClean::new(Severity::Warning);
        assert!(!strict.appraise_program(&env, "sw", &rogue, None).result.ok);
        // ...which an explicit allow-list entry can accept...
        let waived = RequireLintClean::new(Severity::Warning).allowing("PDA402");
        assert!(waived.appraise_program(&env, "sw", &rogue, None).result.ok);
        // ...as can raising the tolerated severity to Error.
        let lax = RequireLintClean::new(Severity::Error);
        assert!(lax.appraise_program(&env, "sw", &rogue, None).result.ok);
    }

    /// The attested lint-verdict digest must match what the appraiser
    /// recomputes — an attester cannot claim a clean verdict for a
    /// program whose analysis says otherwise.
    #[test]
    fn attested_verdict_digest_checked() {
        let env = Environment::new();
        let (program, _) = corpus::builtin("forwarding").unwrap();
        let policy = RequireLintClean::new(Severity::Warning);
        let honest = pda_analyze::analyze_default(&program).verdict_digest();
        let ok = policy.appraise_program(&env, "sw", &program, Some(&honest));
        assert!(ok.result.ok, "{:?}", ok.result.failures);
        let forged = honest.chain(b"tampered");
        let bad = policy.appraise_program(&env, "sw", &program, Some(&forged));
        assert!(!bad.result.ok);
        assert!(bad.result.failures.iter().any(|f| matches!(
            f,
            Failure::CorruptMeasurement { target, .. } if target == "lint-verdict"
        )));
    }
}
