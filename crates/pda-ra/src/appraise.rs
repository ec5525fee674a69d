//! Appraisal: verifying concrete evidence against the policy's expected
//! shape, the registered keys, golden measurement values, and the
//! request nonce. This is the Appraiser box of Fig. 1 — it turns
//! Evidence (2)-(3) into an Attestation Result (4).

use crate::evidence::Ev;
use crate::protocol::attest_arg_payload;
use crate::runtime::Environment;
use pda_copland::ast::Place;
use pda_copland::evidence::Evidence as Shape;
use pda_crypto::digest::Digest;
use pda_crypto::keyreg::KeyRegistry;
use pda_crypto::nonce::Nonce;
use pda_telemetry::{Counter, SpanSite, Telemetry};
use std::fmt;

/// One appraisal failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Evidence structure does not match the policy's evidence type.
    ShapeMismatch {
        /// What the policy demanded.
        expected: String,
        /// What arrived.
        got: String,
    },
    /// A signature failed to verify (forged, tampered, or wrong signer).
    BadSignature {
        /// The claimed signing place.
        place: Place,
    },
    /// The signing place has no registered key.
    UnknownSigner {
        /// The claimed signing place.
        place: Place,
    },
    /// A measurement observed a value different from the golden one.
    CorruptMeasurement {
        /// Measured component.
        target: String,
        /// Place of the component.
        target_place: Place,
        /// What the measurer reported.
        observed: Digest,
        /// What the appraiser expected.
        expected: Digest,
    },
    /// The appraiser has no golden value for a measured component.
    UnknownComponent {
        /// Measured component.
        target: String,
        /// Place of the component.
        target_place: Place,
    },
    /// An `attest` payload disagrees with the golden source values
    /// (e.g. a swapped dataplane program).
    SourceMismatch {
        /// The attesting place.
        place: Place,
        /// The attested properties.
        args: Vec<String>,
    },
    /// The evidence nonce differs from the request nonce (stale or
    /// replayed evidence).
    WrongNonce {
        /// Nonce found in evidence.
        got: Option<Nonce>,
        /// Nonce the appraiser issued.
        expected: Nonce,
    },
    /// A `#`-hash could not be matched against the recomputed expected
    /// digest (tampered pre-image or swapped attestation source).
    HashMismatch {
        /// The hashing place.
        place: Place,
    },
    /// The static analyzer found a diagnostic worse than the
    /// [`crate::semantic::RequireLintClean`] policy tolerates — the
    /// program misbehaves semantically even if its hash is on no
    /// blacklist.
    LintViolation {
        /// The analyzed program.
        program: String,
        /// The diagnostic code (e.g. `PDA401`).
        code: String,
        /// The diagnostic severity name.
        severity: String,
        /// Location, subject, and message of the finding.
        detail: String,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            Failure::BadSignature { place } => write!(f, "bad signature claimed by {place}"),
            Failure::UnknownSigner { place } => write!(f, "no key registered for {place}"),
            Failure::CorruptMeasurement {
                target,
                observed,
                expected,
                ..
            } => write!(
                f,
                "measurement of {target} observed {} but golden is {}",
                observed.short(),
                expected.short()
            ),
            Failure::UnknownComponent { target, .. } => {
                write!(f, "no golden value for component {target}")
            }
            Failure::SourceMismatch { place, args } => {
                write!(
                    f,
                    "attested sources {args:?} at {place} do not match golden values"
                )
            }
            Failure::WrongNonce { got, expected } => {
                write!(f, "nonce mismatch: got {got:?}, expected {expected}")
            }
            Failure::HashMismatch { place } => {
                write!(
                    f,
                    "hashed evidence from {place} does not match expected digest"
                )
            }
            Failure::LintViolation {
                program,
                code,
                severity,
                detail,
            } => {
                write!(
                    f,
                    "lint violation {code} ({severity}) in {program}: {detail}"
                )
            }
        }
    }
}

/// The Attestation Result of Fig. 1.
#[derive(Clone, Debug)]
pub struct AppraisalResult {
    /// Did every check pass?
    pub ok: bool,
    /// All failures found (empty iff `ok`).
    pub failures: Vec<Failure>,
    /// Number of checks performed (appraisal effort metric).
    pub checks: u64,
}

impl AppraisalResult {
    fn fail(&mut self, f: Failure) {
        self.ok = false;
        self.failures.push(f);
    }
}

/// Verify only the signatures inside `ev` (used by the in-protocol
/// `appraise` service).
pub fn verify_signatures(ev: &Ev, registry: &KeyRegistry) -> bool {
    let mut ok = true;
    ev.walk(&mut |e| {
        if let Ev::Signature { place, sig, sub } = e {
            match registry.verify_as(place.0.as_str(), &sub.encode(), sig) {
                Ok(true) => {}
                _ => ok = false,
            }
        }
    });
    ok
}

/// Full appraisal of `ev` against the policy's expected `shape`.
///
/// `expected_nonce` must match any nonce leaf in the evidence. Pass the
/// environment whose `registry`, `golden`, and `golden_sources` encode
/// the appraiser's reference values.
///
/// When the environment carries an enabled telemetry handle, every
/// verdict is recorded in the attestation audit log (subject, nonce,
/// ok, checks, and the first failure as cause) and counted under
/// `ra.appraisals` / `ra.appraisal_failures`.
pub fn appraise(
    ev: &Ev,
    shape: &Shape,
    env: &Environment,
    expected_nonce: Option<Nonce>,
) -> AppraisalResult {
    let _span = env.appraise_span.span();
    let mut result = AppraisalResult {
        ok: true,
        failures: Vec::new(),
        checks: 0,
    };
    walk(ev, shape, env, expected_nonce, &mut result);
    env.verdicts.record(&brief(ev), expected_nonce, &result);
    result
}

/// Where appraisal verdicts are recorded: a handle's audit log and its
/// `ra.appraisals` / `ra.appraisal_failures` counters, resolved once
/// (both are registered then). The default records nothing.
#[derive(Clone, Default)]
pub(crate) struct Verdicts {
    telemetry: Telemetry,
    counters: Option<(Counter, Counter)>,
}

impl Verdicts {
    pub(crate) fn new(telemetry: &Telemetry) -> Verdicts {
        Verdicts {
            telemetry: telemetry.clone(),
            counters: telemetry.registry().map(|r| {
                (
                    r.counter("ra.appraisals"),
                    r.counter("ra.appraisal_failures"),
                )
            }),
        }
    }

    /// Record one appraisal verdict in the audit log and counters; the
    /// single choke point every appraisal path goes through.
    pub(crate) fn record(&self, subject: &str, nonce: Option<Nonce>, result: &AppraisalResult) {
        if let Some((appraisals, failures)) = &self.counters {
            appraisals.inc();
            if !result.ok {
                failures.inc();
            }
        }
        self.telemetry
            .audit_with(|| pda_telemetry::AuditEvent::Appraisal {
                subject: subject.to_string(),
                nonce: nonce.map(|n| n.0),
                ok: result.ok,
                checks: result.checks,
                cause: result.failures.first().map(Failure::to_string),
            });
    }
}

/// What [`appraise_records`] records into, its handles resolved once
/// from one telemetry handle: the `ra.appraise_records` span and the
/// verdict counters. An appraiser that appraises on every request
/// keeps one per handle; the default records nothing.
#[derive(Clone, Default)]
pub struct AppraiserTelemetry {
    span: SpanSite,
    verdicts: Verdicts,
}

impl AppraiserTelemetry {
    /// Resolve the span and counters from `telemetry`.
    pub fn new(telemetry: &Telemetry) -> AppraiserTelemetry {
        AppraiserTelemetry {
            span: telemetry.span_site("ra.appraise_records"),
            verdicts: Verdicts::new(telemetry),
        }
    }

    /// The handle the span and counters were resolved from.
    pub fn telemetry(&self) -> &Telemetry {
        &self.verdicts.telemetry
    }
}

/// Appraise a chain of PERA hop-evidence records: cryptographic chain
/// validity (linkage, signatures, nonce) plus golden-value comparison,
/// reported in this module's [`Failure`] taxonomy and audit-logged
/// through the same choke point as phrase appraisal.
///
/// This is the entry point each federated appraiser instance of the
/// appraisal service runs independently: `subject` names the appraiser
/// (e.g. `svc/a1`), so dissenting verdicts from a corrupted instance
/// stay distinguishable in the shared audit log, and `telemetry` holds
/// the handles that appraiser resolved once.
pub fn appraise_records(
    records: &[pda_pera::EvidenceRecord],
    registry: &KeyRegistry,
    golden: &pda_pera::GoldenStore,
    expected_nonce: Nonce,
    chained: bool,
    telemetry: &AppraiserTelemetry,
    subject: &str,
) -> AppraisalResult {
    use pda_pera::evidence::ChainFailure;

    let mut span = telemetry
        .span
        .span_in(|| pda_telemetry::TraceCtx::for_nonce(expected_nonce.0).child(subject, 0));
    span.set("subject", subject);
    let place_of = |index: usize| -> Place {
        records
            .get(index)
            .map(|r| Place::new(r.switch.clone()))
            .unwrap_or_else(|| Place::new("?"))
    };
    let mut result = AppraisalResult {
        ok: true,
        failures: Vec::new(),
        // verify_chain performs four checks per record (nonce, chain
        // value, linkage, signature); golden comparison adds one per
        // carried detail.
        checks: records.len() as u64 * 4
            + records.iter().map(|r| r.details.len() as u64).sum::<u64>(),
    };
    let failures =
        pda_pera::golden::appraise_chain(records, registry, golden, expected_nonce, chained)
            .err()
            .unwrap_or_default();
    for e in failures {
        result.fail(match e {
            ChainFailure::BadSignature { index, switch } if registry.contains(switch.as_str()) => {
                Failure::BadSignature {
                    place: place_of(index),
                }
            }
            ChainFailure::BadSignature { switch, .. } => Failure::UnknownSigner {
                place: Place::new(switch),
            },
            ChainFailure::WrongNonce { index } => Failure::WrongNonce {
                got: records.get(index).map(|r| r.nonce),
                expected: expected_nonce,
            },
            ChainFailure::BrokenChainValue { index } => Failure::HashMismatch {
                place: place_of(index),
            },
            ChainFailure::BrokenLink { index } => Failure::ShapeMismatch {
                expected: "hop-linked evidence chain".to_string(),
                got: format!("record {index} does not link to its predecessor"),
            },
            ChainFailure::ValueMismatch {
                switch,
                level,
                observed,
                expected,
            } => Failure::CorruptMeasurement {
                target: level.to_string(),
                target_place: Place::new(switch),
                observed,
                expected,
            },
            ChainFailure::NoExpectation { switch, level } => Failure::UnknownComponent {
                target: level.to_string(),
                target_place: Place::new(switch),
            },
            ChainFailure::EmptyChain => Failure::ShapeMismatch {
                expected: "hop-linked evidence chain".to_string(),
                got: "no records".to_string(),
            },
        });
    }
    telemetry
        .verdicts
        .record(subject, Some(expected_nonce), &result);
    result
}

fn brief(e: &Ev) -> String {
    match e {
        Ev::Empty => "mt".into(),
        Ev::Nonce(_) => "nonce".into(),
        Ev::Measurement {
            measurer, target, ..
        } => format!("meas({measurer},{target})"),
        Ev::Signature { place, .. } => format!("sig@{place}"),
        Ev::Hashed { place, .. } => format!("hsh@{place}"),
        Ev::Service { name, place, .. } => format!("{name}@{place}"),
        Ev::Seq(_, _) => "seq".into(),
        Ev::Par(_, _) => "par".into(),
    }
}

fn walk(
    ev: &Ev,
    shape: &Shape,
    env: &Environment,
    nonce: Option<Nonce>,
    out: &mut AppraisalResult,
) {
    out.checks += 1;
    match (ev, shape) {
        (Ev::Empty, Shape::Empty) => {}
        (Ev::Nonce(n), Shape::Nonce) => {
            if let Some(expected) = nonce {
                if *n != expected {
                    out.fail(Failure::WrongNonce {
                        got: Some(*n),
                        expected,
                    });
                }
            }
        }
        (
            Ev::Measurement {
                measurer,
                target_place,
                target,
                observed,
                sub,
                ..
            },
            Shape::Measurement {
                measurer: sm,
                target_place: stp,
                target: st,
                sub: ssub,
                ..
            },
        ) => {
            if measurer != sm || target != st || target_place != stp {
                out.fail(Failure::ShapeMismatch {
                    expected: format!("meas({sm},{st})"),
                    got: format!("meas({measurer},{target})"),
                });
                return;
            }
            match env.golden.get(&(target_place.clone(), target.clone())) {
                None => out.fail(Failure::UnknownComponent {
                    target: target.clone(),
                    target_place: target_place.clone(),
                }),
                Some(golden) => {
                    if observed != golden {
                        out.fail(Failure::CorruptMeasurement {
                            target: target.clone(),
                            target_place: target_place.clone(),
                            observed: *observed,
                            expected: *golden,
                        });
                    }
                }
            }
            walk(sub, ssub, env, nonce, out);
        }
        (
            Ev::Signature { place, sig, sub },
            Shape::Signature {
                place: sp,
                sub: ssub,
            },
        ) => {
            if place.0 != sp.0 {
                out.fail(Failure::ShapeMismatch {
                    expected: format!("sig@{sp}"),
                    got: format!("sig@{place}"),
                });
                return;
            }
            match env.registry.verify_as(place.0.as_str(), &sub.encode(), sig) {
                Ok(true) => {}
                Ok(false) => out.fail(Failure::BadSignature {
                    place: place.clone(),
                }),
                Err(_) => out.fail(Failure::UnknownSigner {
                    place: place.clone(),
                }),
            }
            walk(sub, ssub, env, nonce, out);
        }
        (
            Ev::Hashed { place, digest },
            Shape::Hashed {
                place: sp,
                sub: ssub,
            },
        ) => {
            if place.0 != sp.0 {
                out.fail(Failure::ShapeMismatch {
                    expected: format!("hsh@{sp}"),
                    got: format!("hsh@{place}"),
                });
                return;
            }
            // Recompute the expected pre-image when the hashed shape is
            // reconstructible from golden values; otherwise accept the
            // digest as an opaque commitment.
            if let Some(expected) = build_expected(ssub, sp, env, nonce) {
                if expected.digest() != *digest {
                    out.fail(Failure::HashMismatch {
                        place: place.clone(),
                    });
                }
            }
        }
        (
            Ev::Service {
                name,
                args,
                place,
                payload,
                sub,
            },
            Shape::Service {
                name: sn,
                place: sp,
                sub: ssub,
                ..
            },
        ) => {
            if name != sn || place.0 != sp.0 {
                out.fail(Failure::ShapeMismatch {
                    expected: format!("{sn}@{sp}"),
                    got: format!("{name}@{place}"),
                });
                return;
            }
            if name == "attest" {
                let expected = expected_attest_payload(args, place, env);
                if &expected != payload {
                    out.fail(Failure::SourceMismatch {
                        place: place.clone(),
                        args: args.clone(),
                    });
                }
            }
            // A nonce-bound certificate must carry the request nonce
            // (the eq-(3) freshness link between RP1 and RP2).
            if name == "certify" && args.iter().any(|a| a == "n") {
                if let Some(expected) = nonce {
                    let got = payload
                        .get(..8)
                        .map(|b| Nonce::from_bytes(b.try_into().expect("8 bytes")));
                    if got != Some(expected) {
                        out.fail(Failure::WrongNonce { got, expected });
                    }
                }
            }
            walk(sub, ssub, env, nonce, out);
        }
        (Ev::Seq(l, r), Shape::Seq(sl, sr)) => {
            walk(l, sl, env, nonce, out);
            walk(r, sr, env, nonce, out);
        }
        (Ev::Par(l, r), Shape::Par(sl, sr)) => {
            walk(l, sl, env, nonce, out);
            walk(r, sr, env, nonce, out);
        }
        (got, expected) => out.fail(Failure::ShapeMismatch {
            expected: expected.to_string(),
            got: brief(got),
        }),
    }
}

fn expected_attest_payload(args: &[String], place: &Place, env: &Environment) -> Vec<u8> {
    let mut payload = Vec::with_capacity(args.len() * 32);
    for a in args {
        let golden = env.golden_sources.get(&(place.clone(), a.clone()));
        match golden {
            Some(d) => payload.extend_from_slice(d.as_bytes()),
            None => payload.extend_from_slice(&attest_arg_payload(None, a)),
        }
    }
    payload
}

/// Reconstruct the concrete evidence a *compliant* attester would have
/// produced for `shape`, using the appraiser's golden values. Returns
/// `None` when the shape contains elements whose bytes the appraiser
/// cannot predict (signatures, service payloads other than `attest`).
// `at_place` is threaded through recursion as the evaluation context
// even though only sub-shapes consume it — keeping the signature
// uniform with the evaluator it mirrors.
#[allow(clippy::only_used_in_recursion)]
pub fn build_expected(
    shape: &Shape,
    at_place: &Place,
    env: &Environment,
    nonce: Option<Nonce>,
) -> Option<Ev> {
    Some(match shape {
        Shape::Empty => Ev::Empty,
        Shape::Nonce => Ev::Nonce(nonce?),
        Shape::Measurement {
            measurer,
            target_place,
            target,
            place,
            sub,
        } => Ev::Measurement {
            measurer: measurer.clone(),
            target_place: target_place.clone(),
            target: target.clone(),
            place: place.clone(),
            observed: *env.golden.get(&(target_place.clone(), target.clone()))?,
            sub: Box::new(build_expected(sub, at_place, env, nonce)?),
        },
        Shape::Signature { .. } => return None, // unpredictable bytes
        Shape::Hashed { place, sub } => Ev::Hashed {
            place: place.clone(),
            digest: build_expected(sub, place, env, nonce)?.digest(),
        },
        Shape::Service {
            name,
            args,
            place,
            sub,
        } if name == "attest" => Ev::Service {
            name: name.clone(),
            args: args.clone(),
            place: place.clone(),
            payload: expected_attest_payload(args, place, env),
            sub: Box::new(build_expected(sub, place, env, nonce)?),
        },
        Shape::Service { .. } => return None,
        Shape::Seq(l, r) => Ev::Seq(
            Box::new(build_expected(l, at_place, env, nonce)?),
            Box::new(build_expected(r, at_place, env, nonce)?),
        ),
        Shape::Par(l, r) => Ev::Par(
            Box::new(build_expected(l, at_place, env, nonce)?),
            Box::new(build_expected(r, at_place, env, nonce)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::run_request;
    use crate::protocol::tests::bank_env;
    use crate::runtime::PlaceRuntime;
    use pda_copland::ast::examples;
    use pda_copland::evidence::eval_request;

    #[test]
    fn clean_run_appraises_ok() {
        let mut env = bank_env();
        let req = examples::bank_eq2();
        let shape = eval_request(&req);
        let report = run_request(&req, &mut env, None).unwrap();
        let result = appraise(&report.evidence, &shape, &env, None);
        assert!(result.ok, "{:?}", result.failures);
        assert!(result.checks >= 5);
    }

    #[test]
    fn corrupt_exts_detected() {
        let mut env = bank_env();
        let req = examples::bank_eq2();
        let shape = eval_request(&req);
        env.place_mut("us").unwrap().corrupt("exts");
        let report = run_request(&req, &mut env, None).unwrap();
        let result = appraise(&report.evidence, &shape, &env, None);
        assert!(!result.ok);
        assert!(result
            .failures
            .iter()
            .any(|f| matches!(f, Failure::CorruptMeasurement { target, .. } if target == "exts")));
    }

    #[test]
    fn lying_measurer_hides_exts_but_is_itself_caught() {
        // The eq-(2) attack executed concretely: bmon corrupt and lying.
        let mut env = bank_env();
        let req = examples::bank_eq2();
        let shape = eval_request(&req);
        env.place_mut("us").unwrap().corrupt("exts");
        env.place_mut("us").unwrap().corrupt("bmon");
        let report = run_request(&req, &mut env, None).unwrap();
        let result = appraise(&report.evidence, &shape, &env, None);
        assert!(!result.ok);
        // exts passes (liar), but av catches bmon.
        let targets: Vec<_> = result
            .failures
            .iter()
            .filter_map(|f| match f {
                Failure::CorruptMeasurement { target, .. } => Some(target.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec!["bmon"]);
    }

    #[test]
    fn tampered_evidence_fails_signature_check() {
        let mut env = bank_env();
        let req = examples::bank_eq2();
        let shape = eval_request(&req);
        let report = run_request(&req, &mut env, None).unwrap();
        // Tamper: flip the observed digest inside the first signed arm.
        let mut ev = report.evidence.clone();
        if let Ev::Seq(l, _) = &mut ev {
            if let Ev::Signature { sub, .. } = l.as_mut() {
                if let Ev::Measurement { observed, .. } = sub.as_mut() {
                    *observed = Digest::of(b"forged-clean-value");
                }
            }
        }
        let result = appraise(&ev, &shape, &env, None);
        assert!(!result.ok);
        assert!(result
            .failures
            .iter()
            .any(|f| matches!(f, Failure::BadSignature { .. })));
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut env = bank_env();
        let req = examples::bank_eq2();
        let shape = eval_request(&examples::bank_eq1()); // wrong policy shape
        let report = run_request(&req, &mut env, None).unwrap();
        let result = appraise(&report.evidence, &shape, &env, None);
        assert!(!result.ok);
        assert!(result
            .failures
            .iter()
            .any(|f| matches!(f, Failure::ShapeMismatch { .. })));
    }

    #[test]
    fn nonce_checked() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("RP1"));
        env.add_place(
            PlaceRuntime::new("Switch")
                .with_source("Hardware", b"hw")
                .with_source("Program", b"p4"),
        );
        env.add_place(PlaceRuntime::new("Appraiser"));
        let req = examples::pera_out_of_band();
        let shape = eval_request(&req);
        let report = run_request(&req, &mut env, Some(Nonce(5))).unwrap();
        let good = appraise(&report.evidence, &shape, &env, Some(Nonce(5)));
        assert!(good.ok, "{:?}", good.failures);
        let bad = appraise(&report.evidence, &shape, &env, Some(Nonce(6)));
        assert!(!bad.ok);
        assert!(bad
            .failures
            .iter()
            .any(|f| matches!(f, Failure::WrongNonce { .. })));
    }

    #[test]
    fn swapped_program_detected_through_hash() {
        // eq-(3) flow: the attest evidence is hashed (#) before signing,
        // so the appraiser must catch a rogue program *through* the hash.
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("RP1"));
        env.add_place(
            PlaceRuntime::new("Switch")
                .with_source("Hardware", b"hw")
                .with_source("Program", b"legit.p4"),
        );
        env.add_place(PlaceRuntime::new("Appraiser"));
        let req = examples::pera_out_of_band();
        let shape = eval_request(&req);
        env.place_mut("Switch")
            .unwrap()
            .swap_source("Program", b"rogue.p4");
        let report = run_request(&req, &mut env, Some(Nonce(5))).unwrap();
        let result = appraise(&report.evidence, &shape, &env, Some(Nonce(5)));
        assert!(!result.ok);
        assert!(
            result
                .failures
                .iter()
                .any(|f| matches!(f, Failure::HashMismatch { .. })),
            "{:?}",
            result.failures
        );
    }

    /// Every appraisal verdict — pass, measurement failure, and nonce
    /// replay — lands in the environment's attestation audit log with
    /// its cause, and the `ra.*` counters track totals.
    #[test]
    fn verdicts_recorded_in_audit_log() {
        let tel = pda_telemetry::Telemetry::collecting();
        let mut env = bank_env().with_telemetry(tel.clone());
        let req = examples::bank_eq2();
        let shape = eval_request(&req);
        let report = run_request(&req, &mut env, None).unwrap();
        let good = appraise(&report.evidence, &shape, &env, None);
        assert!(good.ok);
        env.place_mut("us").unwrap().corrupt("exts");
        let report = run_request(&req, &mut env, None).unwrap();
        let bad = appraise(&report.evidence, &shape, &env, None);
        assert!(!bad.ok);
        let audit = tel.audit_log().unwrap().records();
        let verdicts: Vec<_> = audit
            .iter()
            .filter_map(|r| match &r.event {
                pda_telemetry::AuditEvent::Appraisal { ok, cause, .. } => {
                    Some((*ok, cause.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0], (true, None));
        assert!(!verdicts[1].0);
        assert!(
            verdicts[1].1.as_deref().unwrap().contains("exts"),
            "cause must name the corrupt component: {:?}",
            verdicts[1].1
        );
        let reg = tel.registry().unwrap();
        assert_eq!(reg.counter("ra.appraisals").get(), 2);
        assert_eq!(reg.counter("ra.appraisal_failures").get(), 1);
        assert_eq!(reg.histogram("ra.appraise.ns").count(), 2);
    }

    #[test]
    fn verify_signatures_standalone() {
        let mut env = bank_env();
        let req = examples::bank_eq2();
        let report = run_request(&req, &mut env, None).unwrap();
        assert!(verify_signatures(&report.evidence, &env.registry));
        let mut tampered = report.evidence.clone();
        if let Ev::Seq(l, _) = &mut tampered {
            if let Ev::Signature { sub, .. } = l.as_mut() {
                **sub = Ev::Empty;
            }
        }
        assert!(!verify_signatures(&tampered, &env.registry));
    }
}

#[cfg(test)]
mod record_tests {
    use super::*;
    use pda_crypto::sig::{SigScheme, Signer};
    use pda_pera::config::DetailLevel;
    use pda_pera::{EvidenceRecord, GoldenStore};

    fn fixture() -> (Vec<EvidenceRecord>, KeyRegistry, GoldenStore) {
        let mut reg = KeyRegistry::new();
        let mut golden = GoldenStore::new();
        let mut prev = Digest::ZERO;
        let mut records = Vec::new();
        for name in ["sw1", "sw2"] {
            let mut s = Signer::new(SigScheme::Hmac, Digest::of(name.as_bytes()).0, 0);
            reg.register(name.into(), s.verify_key(0));
            let prog = Digest::of_parts(&[b"prog:", name.as_bytes()]);
            golden.expect(name, DetailLevel::Program, prog);
            let r = EvidenceRecord::create(
                name,
                vec![(DetailLevel::Program, prog)],
                Nonce(9),
                prev,
                &mut s,
            )
            .unwrap();
            prev = r.chain;
            records.push(r);
        }
        (records, reg, golden)
    }

    #[test]
    fn clean_chain_passes_and_audits_with_subject() {
        let (records, reg, golden) = fixture();
        let tel = pda_telemetry::Telemetry::collecting();
        let r = appraise_records(
            &records,
            &reg,
            &golden,
            Nonce(9),
            true,
            &AppraiserTelemetry::new(&tel),
            "svc/a1",
        );
        assert!(r.ok, "{:?}", r.failures);
        assert_eq!(r.checks, 2 * 4 + 2);
        let log = tel.audit_log().unwrap().records();
        assert!(log.iter().any(|rec| matches!(
            &rec.event,
            pda_telemetry::AuditEvent::Appraisal { subject, ok: true, .. } if subject == "svc/a1"
        )));
        assert_eq!(tel.registry().unwrap().counter("ra.appraisals").get(), 1);
    }

    #[test]
    fn corrupted_golden_store_dissents_as_corrupt_measurement() {
        let (records, reg, mut golden) = fixture();
        // An appraiser whose reference values were poisoned dissents on
        // an honest chain — the Byzantine-appraiser case federation
        // must out-vote.
        golden.expect("sw1", DetailLevel::Program, Digest::of(b"poisoned"));
        let tel = pda_telemetry::Telemetry::collecting();
        let r = appraise_records(
            &records,
            &reg,
            &golden,
            Nonce(9),
            true,
            &AppraiserTelemetry::new(&tel),
            "svc/bad",
        );
        assert!(!r.ok);
        assert!(r
            .failures
            .iter()
            .any(|f| matches!(f, Failure::CorruptMeasurement { .. })));
        assert_eq!(
            tel.registry()
                .unwrap()
                .counter("ra.appraisal_failures")
                .get(),
            1
        );
    }

    #[test]
    fn chain_failures_map_into_ra_taxonomy() {
        let (mut records, reg, golden) = fixture();
        records[1].nonce = Nonce(1000); // breaks chain value + nonce
        let r = appraise_records(
            &records,
            &reg,
            &golden,
            Nonce(9),
            true,
            &AppraiserTelemetry::default(),
            "svc/a1",
        );
        assert!(!r.ok);
        assert!(r
            .failures
            .iter()
            .any(|f| matches!(f, Failure::WrongNonce { .. })));
        assert!(r
            .failures
            .iter()
            .any(|f| matches!(f, Failure::HashMismatch { .. })));
        // And an unknown signer maps to UnknownSigner.
        let (mut records2, _, _) = fixture();
        let mut rogue = Signer::new(SigScheme::Hmac, [9u8; 32], 0);
        records2[0] = EvidenceRecord::create(
            "ghost",
            vec![(DetailLevel::Program, Digest::of(b"x"))],
            Nonce(9),
            Digest::ZERO,
            &mut rogue,
        )
        .unwrap();
        let r2 = appraise_records(
            &records2[..1],
            &reg,
            &golden,
            Nonce(9),
            false,
            &AppraiserTelemetry::default(),
            "svc/a1",
        );
        assert!(r2
            .failures
            .iter()
            .any(|f| matches!(f, Failure::UnknownSigner { place } if place.0 == "ghost")));
    }
}
