//! The append-only attestation audit log.
//!
//! Every attestation-relevant action — evidence generation, cache
//! lookup, signature, appraisal verdict — is recorded as a typed
//! [`AuditEvent`] with a monotonically increasing sequence number.
//! Records serialize to JSONL and parse back losslessly, so an
//! appraiser's decisions can be replayed and audited offline.
//!
//! An appraisal verdict's causal trace is not stored: it is the
//! nonce's canonical [`TraceId::for_nonce`], which [`AuditRecord::to_json`]
//! writes as the record's `trace` key, so a verdict joins the
//! flight recorder's trace of the same nonce.

use crate::json::{parse, Json};
use crate::trace::TraceId;
use std::fmt;
use std::sync::Mutex;

/// One attestation-relevant action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditEvent {
    /// An evidence record was produced by an attester.
    Evidence {
        /// Attesting switch name.
        attester: String,
        /// Nonce bound into the record.
        nonce: u64,
        /// Detail levels included (e.g. `["Hardware", "Program"]`).
        levels: Vec<String>,
        /// Wire size of the record in bytes.
        bytes: u64,
        /// Whether the record extends a chain (vs pointwise).
        chained: bool,
    },
    /// An evidence-cache lookup.
    CacheLookup {
        /// Attesting switch name.
        attester: String,
        /// Detail level looked up.
        level: String,
        /// Hit (`true`) or miss/re-measure (`false`).
        hit: bool,
    },
    /// A signature over evidence.
    Signature {
        /// Signing principal.
        signer: String,
        /// Signature scheme name.
        scheme: String,
        /// Signature wire size in bytes.
        sig_bytes: u64,
    },
    /// An appraisal verdict.
    Appraisal {
        /// What was appraised (attester name or chain summary).
        subject: String,
        /// Expected nonce, when the policy checked freshness. It also
        /// names the verdict's causal trace ([`TraceId::for_nonce`]),
        /// linking it back to the switch-side measurement.
        nonce: Option<u64>,
        /// Verdict.
        ok: bool,
        /// Number of checks evaluated.
        checks: u64,
        /// First failure cause, when the verdict is negative.
        cause: Option<String>,
    },
    /// A static-analysis (lint) verdict over a loaded program — emitted
    /// when a PERA switch measures the `LintVerdict` evidence level or
    /// an appraiser evaluates a `RequireLintClean` policy.
    Lint {
        /// Where the analysis ran (switch or appraiser name).
        subject: String,
        /// The analyzed program's name.
        program: String,
        /// Total diagnostics found.
        findings: u64,
        /// Diagnostics at Error severity.
        errors: u64,
        /// Worst severity present (`"info"`/`"warning"`/`"error"`),
        /// `None` for a spotless program.
        worst: Option<String>,
        /// Hex lint-verdict digest (what evidence records carry).
        verdict: String,
    },
    /// A verify-unit (dataplane enforcement) verdict on one packet.
    Enforcement {
        /// Enforcing node (verify-unit location).
        unit: String,
        /// Nonce the packet's chain was checked against, if any.
        nonce: Option<u64>,
        /// Whether the packet was admitted.
        admitted: bool,
        /// Rejection cause (e.g. `"NoEvidence"`), when not admitted.
        cause: Option<String>,
    },
}

impl AuditEvent {
    /// The `subject` field of the kinds that carry one (appraisal and
    /// lint verdicts).
    pub fn subject(&self) -> Option<&str> {
        match self {
            AuditEvent::Appraisal { subject, .. } | AuditEvent::Lint { subject, .. } => {
                Some(subject)
            }
            _ => None,
        }
    }

    /// The `kind` discriminant used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditEvent::Evidence { .. } => "evidence",
            AuditEvent::CacheLookup { .. } => "cache_lookup",
            AuditEvent::Signature { .. } => "signature",
            AuditEvent::Appraisal { .. } => "appraisal",
            AuditEvent::Lint { .. } => "lint",
            AuditEvent::Enforcement { .. } => "enforcement",
        }
    }
}

/// An audit event plus its position in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// 0-based position in the log.
    pub seq: u64,
    /// The event.
    pub event: AuditEvent,
}

impl AuditRecord {
    /// Render as a JSON object. An appraisal with a nonce gains a
    /// `trace` key: the nonce's trace ID as 16-char hex.
    pub fn to_json(&self) -> Json {
        let mut f = vec![
            ("seq".to_string(), Json::UInt(self.seq)),
            ("kind".to_string(), Json::Str(self.event.kind().into())),
        ];
        match &self.event {
            AuditEvent::Evidence {
                attester,
                nonce,
                levels,
                bytes,
                chained,
            } => {
                f.push(("attester".into(), Json::Str(attester.clone())));
                f.push(("nonce".into(), Json::UInt(*nonce)));
                f.push((
                    "levels".into(),
                    Json::Arr(levels.iter().map(|l| Json::Str(l.clone())).collect()),
                ));
                f.push(("bytes".into(), Json::UInt(*bytes)));
                f.push(("chained".into(), Json::Bool(*chained)));
            }
            AuditEvent::CacheLookup {
                attester,
                level,
                hit,
            } => {
                f.push(("attester".into(), Json::Str(attester.clone())));
                f.push(("level".into(), Json::Str(level.clone())));
                f.push(("hit".into(), Json::Bool(*hit)));
            }
            AuditEvent::Signature {
                signer,
                scheme,
                sig_bytes,
            } => {
                f.push(("signer".into(), Json::Str(signer.clone())));
                f.push(("scheme".into(), Json::Str(scheme.clone())));
                f.push(("sig_bytes".into(), Json::UInt(*sig_bytes)));
            }
            AuditEvent::Appraisal {
                subject,
                nonce,
                ok,
                checks,
                cause,
            } => {
                f.push(("subject".into(), Json::Str(subject.clone())));
                match nonce {
                    Some(n) => f.push(("nonce".into(), Json::UInt(*n))),
                    None => f.push(("nonce".into(), Json::Null)),
                }
                f.push(("ok".into(), Json::Bool(*ok)));
                f.push(("checks".into(), Json::UInt(*checks)));
                match cause {
                    Some(c) => f.push(("cause".into(), Json::Str(c.clone()))),
                    None => f.push(("cause".into(), Json::Null)),
                }
                if let Some(n) = nonce {
                    f.push(("trace".into(), Json::Str(TraceId::for_nonce(*n).to_hex())));
                }
            }
            AuditEvent::Lint {
                subject,
                program,
                findings,
                errors,
                worst,
                verdict,
            } => {
                f.push(("subject".into(), Json::Str(subject.clone())));
                f.push(("program".into(), Json::Str(program.clone())));
                f.push(("findings".into(), Json::UInt(*findings)));
                f.push(("errors".into(), Json::UInt(*errors)));
                match worst {
                    Some(w) => f.push(("worst".into(), Json::Str(w.clone()))),
                    None => f.push(("worst".into(), Json::Null)),
                }
                f.push(("verdict".into(), Json::Str(verdict.clone())));
            }
            AuditEvent::Enforcement {
                unit,
                nonce,
                admitted,
                cause,
            } => {
                f.push(("unit".into(), Json::Str(unit.clone())));
                match nonce {
                    Some(n) => f.push(("nonce".into(), Json::UInt(*n))),
                    None => f.push(("nonce".into(), Json::Null)),
                }
                f.push(("admitted".into(), Json::Bool(*admitted)));
                match cause {
                    Some(c) => f.push(("cause".into(), Json::Str(c.clone()))),
                    None => f.push(("cause".into(), Json::Null)),
                }
            }
        }
        Json::Obj(f)
    }

    /// Parse one record back from its JSON form. An appraisal's `trace`
    /// key is ignored: the nonce determines it.
    pub fn from_json(v: &Json) -> Result<AuditRecord, AuditParseErr> {
        let field = |name: &str| v.get(name).ok_or(AuditParseErr::Missing(name.to_string()));
        let str_field = |name: &str| -> Result<String, AuditParseErr> {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or(AuditParseErr::Type(name.to_string()))
        };
        let u64_field = |name: &str| -> Result<u64, AuditParseErr> {
            field(name)?
                .as_u64()
                .ok_or(AuditParseErr::Type(name.to_string()))
        };
        let bool_field = |name: &str| -> Result<bool, AuditParseErr> {
            field(name)?
                .as_bool()
                .ok_or(AuditParseErr::Type(name.to_string()))
        };
        let seq = u64_field("seq")?;
        let kind = str_field("kind")?;
        let event = match kind.as_str() {
            "evidence" => AuditEvent::Evidence {
                attester: str_field("attester")?,
                nonce: u64_field("nonce")?,
                levels: field("levels")?
                    .as_arr()
                    .ok_or(AuditParseErr::Type("levels".into()))?
                    .iter()
                    .map(|l| {
                        l.as_str()
                            .map(str::to_string)
                            .ok_or(AuditParseErr::Type("levels".into()))
                    })
                    .collect::<Result<_, _>>()?,
                bytes: u64_field("bytes")?,
                chained: bool_field("chained")?,
            },
            "cache_lookup" => AuditEvent::CacheLookup {
                attester: str_field("attester")?,
                level: str_field("level")?,
                hit: bool_field("hit")?,
            },
            "signature" => AuditEvent::Signature {
                signer: str_field("signer")?,
                scheme: str_field("scheme")?,
                sig_bytes: u64_field("sig_bytes")?,
            },
            "appraisal" => AuditEvent::Appraisal {
                subject: str_field("subject")?,
                nonce: match field("nonce")? {
                    Json::Null => None,
                    other => Some(other.as_u64().ok_or(AuditParseErr::Type("nonce".into()))?),
                },
                ok: bool_field("ok")?,
                checks: u64_field("checks")?,
                cause: match field("cause")? {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_str()
                            .map(str::to_string)
                            .ok_or(AuditParseErr::Type("cause".into()))?,
                    ),
                },
            },
            "lint" => AuditEvent::Lint {
                subject: str_field("subject")?,
                program: str_field("program")?,
                findings: u64_field("findings")?,
                errors: u64_field("errors")?,
                worst: match field("worst")? {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_str()
                            .map(str::to_string)
                            .ok_or(AuditParseErr::Type("worst".into()))?,
                    ),
                },
                verdict: str_field("verdict")?,
            },
            "enforcement" => AuditEvent::Enforcement {
                unit: str_field("unit")?,
                nonce: match field("nonce")? {
                    Json::Null => None,
                    other => Some(other.as_u64().ok_or(AuditParseErr::Type("nonce".into()))?),
                },
                admitted: bool_field("admitted")?,
                cause: match field("cause")? {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_str()
                            .map(str::to_string)
                            .ok_or(AuditParseErr::Type("cause".into()))?,
                    ),
                },
            },
            other => return Err(AuditParseErr::Kind(other.to_string())),
        };
        Ok(AuditRecord { seq, event })
    }
}

/// Audit-log parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditParseErr {
    /// A line was not valid JSON.
    Json(String),
    /// A required field is absent.
    Missing(String),
    /// A field has the wrong type.
    Type(String),
    /// Unknown record kind.
    Kind(String),
}

impl fmt::Display for AuditParseErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditParseErr::Json(e) => write!(f, "audit line is not valid json: {e}"),
            AuditParseErr::Missing(name) => write!(f, "audit record missing field `{name}`"),
            AuditParseErr::Type(name) => write!(f, "audit field `{name}` has the wrong type"),
            AuditParseErr::Kind(kind) => write!(f, "unknown audit record kind `{kind}`"),
        }
    }
}

impl std::error::Error for AuditParseErr {}

/// The append-only audit log. Cheap to clone (shared), thread-safe.
#[derive(Clone, Default)]
pub struct AuditLog {
    records: std::sync::Arc<Mutex<Vec<AuditRecord>>>,
}

impl AuditLog {
    /// New empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Append one event; returns its sequence number.
    pub fn append(&self, event: AuditEvent) -> u64 {
        let mut recs = self.records.lock().unwrap();
        let seq = recs.len() as u64;
        recs.push(AuditRecord { seq, event });
        seq
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all records, oldest first.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.records.lock().unwrap().clone()
    }

    /// The last `limit` records that `keep` accepts, oldest first,
    /// chosen under the log's lock so only they are copied.
    pub fn last_matching(
        &self,
        limit: usize,
        keep: impl Fn(&AuditRecord) -> bool,
    ) -> Vec<AuditRecord> {
        let recs = self.records.lock().unwrap();
        let mut out: Vec<AuditRecord> = recs
            .iter()
            .rev()
            .filter(|r| keep(r))
            .take(limit)
            .cloned()
            .collect();
        out.reverse();
        out
    }

    /// Serialize the whole log as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        let recs = self.records.lock().unwrap();
        let mut out = String::new();
        for r in recs.iter() {
            out.push_str(&r.to_json().encode());
            out.push('\n');
        }
        out
    }

    /// Render the whole log as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.records
                .lock()
                .unwrap()
                .iter()
                .map(AuditRecord::to_json)
                .collect(),
        )
    }
}

/// Parse a JSONL audit log back into records. Blank lines are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<AuditRecord>, AuditParseErr> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = parse(line).map_err(|e| AuditParseErr::Json(e.to_string()))?;
            AuditRecord::from_json(&v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<AuditEvent> {
        vec![
            AuditEvent::CacheLookup {
                attester: "sw0".into(),
                level: "Program".into(),
                hit: false,
            },
            AuditEvent::Evidence {
                attester: "sw0".into(),
                nonce: (1u64 << 53) + 7, // must survive round-trip exactly
                levels: vec!["Hardware".into(), "Program".into()],
                bytes: 312,
                chained: true,
            },
            AuditEvent::Signature {
                signer: "sw0".into(),
                scheme: "HMAC-SHA256".into(),
                sig_bytes: 32,
            },
            AuditEvent::Appraisal {
                subject: "sw0 nonce=42".into(),
                nonce: Some(42),
                ok: false,
                checks: 5,
                cause: Some("golden value mismatch at Program".into()),
            },
            AuditEvent::Appraisal {
                subject: "sw1".into(),
                nonce: None,
                ok: true,
                checks: 3,
                cause: None,
            },
            AuditEvent::Lint {
                subject: "sw0".into(),
                program: "forward_v2.p4".into(),
                findings: 3,
                errors: 1,
                worst: Some("error".into()),
                verdict: "ab".repeat(32),
            },
            AuditEvent::Lint {
                subject: "appraiser".into(),
                program: "monitor_v1.p4".into(),
                findings: 0,
                errors: 0,
                worst: None,
                verdict: "00".repeat(32),
            },
            AuditEvent::Enforcement {
                unit: "edge".into(),
                nonce: None,
                admitted: false,
                cause: Some("NoEvidence".into()),
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let log = AuditLog::new();
        for e in sample_events() {
            log.append(e);
        }
        let text = log.to_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, log.records());
    }

    #[test]
    fn append_assigns_dense_sequence_numbers() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        for (i, e) in sample_events().into_iter().enumerate() {
            assert_eq!(log.append(e), i as u64);
        }
        let recs = log.records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(
            parse_jsonl("not json"),
            Err(AuditParseErr::Json(_))
        ));
        assert!(matches!(
            parse_jsonl(r#"{"seq": 0}"#),
            Err(AuditParseErr::Missing(_))
        ));
        assert!(matches!(
            parse_jsonl(r#"{"seq": 0, "kind": "martian"}"#),
            Err(AuditParseErr::Kind(_))
        ));
        assert!(matches!(
            parse_jsonl(
                r#"{"seq": 0, "kind": "signature", "signer": 3, "scheme": "x", "sig_bytes": 1}"#
            ),
            Err(AuditParseErr::Type(_))
        ));
    }

    #[test]
    fn pre_trace_appraisal_lines_still_parse() {
        // Logs written before the trace key existed omit it; a written
        // trace is the nonce's, so both lines parse to one record.
        let line = r#"{"seq": 0, "kind": "appraisal", "subject": "sw0", "nonce": 1, "ok": true, "checks": 2, "cause": null}"#;
        let recs = parse_jsonl(line).unwrap();
        let traced = recs[0].to_json().encode();
        let hex = TraceId::for_nonce(1).to_hex();
        assert!(traced.ends_with(&format!(r#""cause":null,"trace":"{hex}"}}"#)));
        assert_eq!(parse_jsonl(&traced).unwrap(), recs);
    }

    #[test]
    fn blank_lines_skipped() {
        let log = AuditLog::new();
        log.append(sample_events().remove(0));
        let text = format!("\n{}\n\n", log.to_jsonl());
        assert_eq!(parse_jsonl(&text).unwrap().len(), 1);
    }
}
