//! Concrete execution of Copland requests over place runtimes.
//!
//! This is the executable counterpart of the symbolic evaluator in
//! `pda-copland`: the same recursion, but every ASP performs real work —
//! measurements read component state, `!` produces actual signatures,
//! `#` hashes canonical encodings, and `@P […]` is accounted as a pair of
//! protocol messages (request + reply) whose bytes are tallied. The
//! message/byte accounting is what experiments E2 (in-band vs
//! out-of-band) and E12 (wire overhead) report.

use crate::evidence::Ev;
use crate::runtime::Environment;
use pda_copland::ast::{Asp, Phrase, Place, Request, Sp};
use pda_crypto::digest::Digest;
use pda_crypto::nonce::Nonce;
use std::fmt;

/// Cost/traffic statistics for one protocol run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Protocol messages exchanged (one request + one reply per `@P`).
    pub messages: u64,
    /// Total evidence bytes carried by those messages.
    pub bytes: u64,
    /// Signatures created.
    pub signatures: u64,
    /// Measurements taken.
    pub measurements: u64,
    /// Hash operations.
    pub hashes: u64,
    /// Service invocations.
    pub services: u64,
}

/// Errors during protocol execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// `@P` references a place with no runtime.
    UnknownPlace(Place),
    /// A measurement referenced a component that does not exist.
    UnknownComponent {
        /// Place searched.
        place: Place,
        /// Missing component.
        component: String,
    },
    /// The signer ran out of one-time keys.
    SigningFailed(Place),
    /// `retrieve(n)` found nothing stored under the nonce.
    NothingStored(Nonce),
    /// A nonce-keyed service ran but the request has no nonce.
    NoNonce,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownPlace(p) => write!(f, "no runtime for place {p}"),
            ProtocolError::UnknownComponent { place, component } => {
                write!(f, "component {component} not found at {place}")
            }
            ProtocolError::SigningFailed(p) => write!(f, "signing failed at {p}"),
            ProtocolError::NothingStored(n) => write!(f, "nothing stored under nonce {n}"),
            ProtocolError::NoNonce => write!(f, "nonce-keyed service without a request nonce"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Result of running a request.
#[derive(Debug)]
pub struct RunReport {
    /// The evidence produced.
    pub evidence: Ev,
    /// Traffic and cost statistics.
    pub stats: RunStats,
}

/// Execute `req` against `env`. `nonce` is bound to the request's nonce
/// parameter when present (becomes the initial evidence, per Helble et
/// al.'s convention and the paper's equation (3)).
pub fn run_request(
    req: &Request,
    env: &mut Environment,
    nonce: Option<Nonce>,
) -> Result<RunReport, ProtocolError> {
    let init = match (req.params.iter().any(|p| p == "n"), nonce) {
        (true, Some(n)) => Ev::Nonce(n),
        _ => Ev::Empty,
    };
    let mut stats = RunStats::default();
    let evidence = eval(&req.phrase, &req.rp, init, env, nonce, &mut stats)?;
    Ok(RunReport { evidence, stats })
}

/// Execute a bare phrase at `place`.
pub fn run_phrase(
    phrase: &Phrase,
    place: &Place,
    init: Ev,
    env: &mut Environment,
    nonce: Option<Nonce>,
) -> Result<RunReport, ProtocolError> {
    let mut stats = RunStats::default();
    let evidence = eval(phrase, place, init, env, nonce, &mut stats)?;
    Ok(RunReport { evidence, stats })
}

fn split(sp: Sp, e: &Ev) -> Ev {
    match sp {
        Sp::Pass => e.clone(),
        Sp::Drop => Ev::Empty,
    }
}

fn eval(
    phrase: &Phrase,
    place: &Place,
    e: Ev,
    env: &mut Environment,
    nonce: Option<Nonce>,
    stats: &mut RunStats,
) -> Result<Ev, ProtocolError> {
    match phrase {
        Phrase::Asp(asp) => eval_asp(asp, place, e, env, nonce, stats),
        Phrase::At(q, inner) => {
            if !env.places.contains_key(q) {
                return Err(ProtocolError::UnknownPlace(q.clone()));
            }
            // Request message carries accrued evidence to q…
            stats.messages += 1;
            stats.bytes += e.wire_size() as u64;
            let out = eval(inner, q, e, env, nonce, stats)?;
            // …reply carries the result back.
            stats.messages += 1;
            stats.bytes += out.wire_size() as u64;
            Ok(out)
        }
        Phrase::Arrow(l, r) => {
            let mid = eval(l, place, e, env, nonce, stats)?;
            eval(r, place, mid, env, nonce, stats)
        }
        Phrase::BrSeq(sl, sr, l, r) => {
            let le = eval(l, place, split(*sl, &e), env, nonce, stats)?;
            let re = eval(r, place, split(*sr, &e), env, nonce, stats)?;
            Ok(Ev::Seq(Box::new(le), Box::new(re)))
        }
        Phrase::BrPar(sl, sr, l, r) => {
            let le = eval(l, place, split(*sl, &e), env, nonce, stats)?;
            let re = eval(r, place, split(*sr, &e), env, nonce, stats)?;
            Ok(Ev::Par(Box::new(le), Box::new(re)))
        }
    }
}

fn eval_asp(
    asp: &Asp,
    place: &Place,
    e: Ev,
    env: &mut Environment,
    nonce: Option<Nonce>,
    stats: &mut RunStats,
) -> Result<Ev, ProtocolError> {
    match asp {
        Asp::Measure {
            measurer,
            target_place,
            target,
        } => {
            stats.measurements += 1;
            // Is the measurer itself corrupted at its place? A corrupted
            // measurer lies: it reports the golden value.
            let measurer_lies = env
                .places
                .get(place)
                .map(|rt| rt.corrupt_measurers.iter().any(|m| m == measurer))
                .unwrap_or(false);
            let rt = env
                .places
                .get(target_place)
                .ok_or_else(|| ProtocolError::UnknownPlace(target_place.clone()))?;
            let component =
                rt.components
                    .get(target)
                    .ok_or_else(|| ProtocolError::UnknownComponent {
                        place: target_place.clone(),
                        component: target.clone(),
                    })?;
            let observed = if measurer_lies {
                component.golden
            } else {
                component.observed()
            };
            Ok(Ev::Measurement {
                measurer: measurer.clone(),
                target_place: target_place.clone(),
                target: target.clone(),
                place: place.clone(),
                observed,
                sub: Box::new(e),
            })
        }
        Asp::Sign => {
            stats.signatures += 1;
            let msg = e.encode();
            let rt = env
                .places
                .get_mut(place)
                .ok_or_else(|| ProtocolError::UnknownPlace(place.clone()))?;
            let sig = rt
                .signer
                .sign(&msg)
                .map_err(|_| ProtocolError::SigningFailed(place.clone()))?;
            Ok(Ev::Signature {
                place: place.clone(),
                sig,
                sub: Box::new(e),
            })
        }
        Asp::Hash => {
            stats.hashes += 1;
            Ok(Ev::Hashed {
                place: place.clone(),
                digest: e.digest(),
            })
        }
        Asp::Copy => Ok(e),
        Asp::Null => Ok(Ev::Empty),
        Asp::Service { name, args } => {
            stats.services += 1;
            service(name, args, place, e, env, nonce)
        }
    }
}

/// The attest payload for one argument: source digest when the place has
/// such a source, a literal marker digest otherwise. Mirrored by
/// [`crate::appraise::build_expected`].
pub fn attest_arg_payload(sources: Option<&Vec<u8>>, arg: &str) -> [u8; 32] {
    match sources {
        Some(value) => Digest::of(value).0,
        None => Digest::of_parts(&[b"literal:", arg.as_bytes()]).0,
    }
}

fn service(
    name: &str,
    args: &[String],
    place: &Place,
    e: Ev,
    env: &mut Environment,
    nonce: Option<Nonce>,
) -> Result<Ev, ProtocolError> {
    let mk = |payload: Vec<u8>, sub: Ev| Ev::Service {
        name: name.to_string(),
        args: args.to_vec(),
        place: place.clone(),
        payload,
        sub: Box::new(sub),
    };
    match name {
        "attest" => {
            let rt = env
                .places
                .get(place)
                .ok_or_else(|| ProtocolError::UnknownPlace(place.clone()))?;
            let mut payload = Vec::with_capacity(args.len() * 32);
            for a in args {
                payload.extend_from_slice(&attest_arg_payload(rt.attest_sources.get(a), a));
            }
            Ok(mk(payload, e))
        }
        "appraise" => {
            // In-protocol appraisal: verify all signatures in the
            // accrued evidence (full appraisal with golden comparison is
            // the RP-side `pda_ra::appraise::appraise`).
            let ok = crate::appraise::verify_signatures(&e, &env.registry);
            Ok(mk(vec![u8::from(ok)], e))
        }
        "certify" => {
            let n = nonce.ok_or(ProtocolError::NoNonce);
            // The paper's eq (4) uses certify without an explicit nonce;
            // allow nonce-less certificates bound only to the evidence.
            let mut payload = Vec::with_capacity(40);
            if args.iter().any(|a| a == "n") {
                payload.extend_from_slice(&n?.to_bytes());
            }
            payload.extend_from_slice(e.digest().as_bytes());
            Ok(mk(payload, e))
        }
        "store" => {
            let n = nonce.ok_or(ProtocolError::NoNonce)?;
            let bytes = e.encode();
            let rt = env
                .places
                .get_mut(place)
                .ok_or_else(|| ProtocolError::UnknownPlace(place.clone()))?;
            rt.store.insert(n, bytes);
            Ok(mk(Vec::new(), e))
        }
        "retrieve" => {
            let n = nonce.ok_or(ProtocolError::NoNonce)?;
            let rt = env
                .places
                .get(place)
                .ok_or_else(|| ProtocolError::UnknownPlace(place.clone()))?;
            let stored = rt
                .store
                .get(&n)
                .ok_or(ProtocolError::NothingStored(n))?
                .clone();
            Ok(mk(stored, Ev::Empty))
        }
        _ => {
            // Unknown services are deterministic transforms of their
            // input (generic `C -> D` processing functions).
            let mut h = Vec::new();
            h.extend_from_slice(b"svc:");
            h.extend_from_slice(name.as_bytes());
            for a in args {
                h.extend_from_slice(a.as_bytes());
                h.push(0);
            }
            h.extend_from_slice(&e.encode());
            Ok(mk(Digest::of(&h).0.to_vec(), e))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::PlaceRuntime;
    use pda_copland::ast::examples;
    use pda_copland::parser::parse_request;

    /// The `bank_eq{1,2}` places: `bank_eq2` makes two `@P` hops.
    pub(crate) fn bank_env() -> Environment {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("bank"));
        env.add_place(PlaceRuntime::new("ks").with_component("av", b"av-v1"));
        env.add_place(
            PlaceRuntime::new("us")
                .with_component("bmon", b"bmon-v1")
                .with_component("exts", b"exts-clean"),
        );
        env
    }

    #[test]
    fn eq2_runs_and_produces_signed_measurements() {
        let mut env = bank_env();
        let report = run_request(&examples::bank_eq2(), &mut env, None).unwrap();
        assert_eq!(report.evidence.signature_count(), 2);
        assert_eq!(report.evidence.measurements().len(), 2);
        assert_eq!(report.stats.signatures, 2);
        assert_eq!(report.stats.measurements, 2);
        // Two @-hops (ks and us): 4 messages.
        assert_eq!(report.stats.messages, 4);
        assert!(report.stats.bytes > 0);
    }

    #[test]
    fn corrupt_target_changes_observed_digest() {
        let mut env = bank_env();
        let clean = run_request(&examples::bank_eq2(), &mut env, None).unwrap();
        env.place_mut("us").unwrap().corrupt("exts");
        let dirty = run_request(&examples::bank_eq2(), &mut env, None).unwrap();
        assert_ne!(clean.evidence.digest(), dirty.evidence.digest());
    }

    #[test]
    fn corrupt_measurer_lies() {
        let mut env = bank_env();
        env.place_mut("us").unwrap().corrupt("exts");
        env.place_mut("us").unwrap().corrupt("bmon"); // bmon now lies
        let report = run_request(&examples::bank_eq2(), &mut env, None).unwrap();
        // bmon's measurement of exts reports the golden value:
        let meas = report.evidence.measurements();
        let exts_meas = meas
            .iter()
            .find_map(|m| match m {
                Ev::Measurement {
                    target, observed, ..
                } if target == "exts" => Some(*observed),
                _ => None,
            })
            .unwrap();
        assert_eq!(exts_meas, Digest::of(b"exts-clean"), "liar reports golden");
        // but av's measurement of bmon sees the corruption:
        let bmon_meas = meas
            .iter()
            .find_map(|m| match m {
                Ev::Measurement {
                    target, observed, ..
                } if target == "bmon" => Some(*observed),
                _ => None,
            })
            .unwrap();
        assert_ne!(bmon_meas, Digest::of(b"bmon-v1"));
    }

    #[test]
    fn unknown_place_is_error() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("bank"));
        let err = run_request(&examples::bank_eq2(), &mut env, None).unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownPlace(_)));
    }

    #[test]
    fn unknown_component_is_error() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("p"));
        let req = parse_request("*p : m p ghost").unwrap();
        let err = run_request(&req, &mut env, None).unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownComponent { .. }));
    }

    #[test]
    fn store_and_retrieve_round_trip() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("Appraiser").with_source("x", b"v"));
        let store_req =
            parse_request("*Appraiser<n> : @Appraiser [attest(x) -> store(n)]").unwrap();
        let n = Nonce(77);
        run_request(&store_req, &mut env, Some(n)).unwrap();
        let get_req = parse_request("*RP2<n> : @Appraiser [retrieve(n)]").unwrap();
        let report = run_request(&get_req, &mut env, Some(n)).unwrap();
        let Ev::Service { name, payload, .. } = &report.evidence else {
            panic!("expected retrieve service node")
        };
        assert_eq!(name, "retrieve");
        assert!(!payload.is_empty());
        // Wrong nonce finds nothing.
        let err = run_request(&get_req, &mut env, Some(Nonce(78))).unwrap_err();
        assert_eq!(err, ProtocolError::NothingStored(Nonce(78)));
    }

    #[test]
    fn nonce_keyed_service_without_nonce_fails() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("Appraiser"));
        let req = parse_request("*RP : @Appraiser [store(n)]").unwrap();
        assert_eq!(
            run_request(&req, &mut env, None).unwrap_err(),
            ProtocolError::NoNonce
        );
    }

    #[test]
    fn out_of_band_example_executes() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("RP1"));
        env.add_place(
            PlaceRuntime::new("Switch")
                .with_source("Hardware", b"tofino-sim-v1")
                .with_source("Program", b"firewall_v5.p4"),
        );
        env.add_place(PlaceRuntime::new("Appraiser"));
        let report = run_request(&examples::pera_out_of_band(), &mut env, Some(Nonce(9))).unwrap();
        // Switch signed once, appraiser signed once.
        assert_eq!(report.evidence.signature_count(), 2);
        // Certificate is now stored at the appraiser under the nonce.
        assert!(env
            .place("Appraiser")
            .unwrap()
            .store
            .contains_key(&Nonce(9)));
        // RP2 retrieves it (second expression of eq 3).
        let r2 = run_request(&examples::pera_retrieve(), &mut env, Some(Nonce(9))).unwrap();
        let Ev::Service { payload, .. } = &r2.evidence else {
            panic!()
        };
        assert!(!payload.is_empty());
    }

    #[test]
    fn in_band_example_executes() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("RP1"));
        env.add_place(PlaceRuntime::new("RP2"));
        env.add_place(
            PlaceRuntime::new("Switch")
                .with_source("Hardware", b"tofino-sim-v1")
                .with_source("Program", b"firewall_v5.p4"),
        );
        env.add_place(PlaceRuntime::new("Appraiser"));
        let report = run_request(&examples::pera_in_band(), &mut env, None).unwrap();
        assert_eq!(report.evidence.signature_count(), 2);
        // In-band: Switch, RP2, Appraiser hops = 6 messages.
        assert_eq!(report.stats.messages, 6);
    }

    #[test]
    fn swapped_program_changes_attestation() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("RP1"));
        env.add_place(
            PlaceRuntime::new("Switch")
                .with_source("Hardware", b"hw")
                .with_source("Program", b"legit.p4"),
        );
        env.add_place(PlaceRuntime::new("Appraiser"));
        let before = run_request(&examples::pera_out_of_band(), &mut env, Some(Nonce(1)))
            .unwrap()
            .evidence
            .digest();
        env.place_mut("Switch")
            .unwrap()
            .swap_source("Program", b"rogue.p4");
        let after = run_request(&examples::pera_out_of_band(), &mut env, Some(Nonce(1)))
            .unwrap()
            .evidence
            .digest();
        assert_ne!(before, after, "rogue program must change the evidence");
    }
}
