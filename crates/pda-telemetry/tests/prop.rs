//! Property tests (via the in-tree proptest shim) for the histogram
//! bucketing math and the audit-log JSONL round-trip.

use pda_telemetry::audit::{parse_jsonl, AuditEvent, AuditLog};
use pda_telemetry::metrics::{bucket_index, bucket_lower, Histogram, BUCKETS};
use proptest::prelude::*;

proptest! {
    /// Bucketing maps every value into range, the bucket's lower bound
    /// never exceeds the value, and the relative error is at most 1/16
    /// once values leave the exact region (v >= 16).
    #[test]
    fn bucketing_invariants(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS, "index {i} out of range for {v}");
        let lo = bucket_lower(i);
        prop_assert!(lo <= v, "lower bound {lo} exceeds value {v}");
        if v >= 16 {
            prop_assert!(v - lo <= v / 16, "error {} > {}/16 for {v}", v - lo, v);
        } else {
            prop_assert_eq!(lo, v, "values below 16 are exact");
        }
        if i + 1 < BUCKETS {
            prop_assert!(bucket_lower(i + 1) > v, "{v} must sit below bucket {}", i + 1);
        }
    }

    /// Bucket lower bounds are strictly increasing, and indexing a
    /// bucket's own lower bound returns that bucket.
    #[test]
    fn bucket_lower_is_monotone(i in 0usize..BUCKETS) {
        let lo = bucket_lower(i);
        prop_assert_eq!(bucket_index(lo), i);
        if i + 1 < BUCKETS {
            prop_assert!(bucket_lower(i + 1) > lo);
        }
    }

    /// Histogram quantiles are ordered, bracketed by min/max, and the
    /// count matches the number of samples.
    #[test]
    fn histogram_quantile_ordering(samples in proptest::collection::vec(any::<u64>(), 1..64)) {
        let h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(h.min(), Some(min));
        prop_assert_eq!(h.max(), Some(max));
        let p50 = h.quantile(0.50).unwrap();
        let p90 = h.quantile(0.90).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        prop_assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        prop_assert!(p99 <= max, "a lower-bound quantile cannot exceed the max");
        prop_assert!(p50 >= bucket_lower(bucket_index(min)), "p50 below min bucket");
    }

    /// Any audit log survives a JSONL write → parse round trip intact,
    /// including u64 nonces beyond f64's exact range and strings that
    /// need escaping.
    #[test]
    fn audit_jsonl_round_trip(events in proptest::collection::vec(audit_event(), 0..16)) {
        let log = AuditLog::new();
        for e in events {
            log.append(e);
        }
        let parsed = parse_jsonl(&log.to_jsonl()).unwrap();
        prop_assert_eq!(parsed, log.records());
    }
}

/// Strategy over all audit-event variants with adversarial field
/// contents (huge nonces, escapes, empty strings). The shim's
/// regex-lite `&str` strategy covers character classes with ranges;
/// the class below includes `\`, `"`, and space to exercise escaping.
fn audit_event() -> BoxedStrategy<AuditEvent> {
    let name = "[a-z0-9._\\\" -]{0,12}".boxed();
    let levels = proptest::collection::vec(name.clone(), 0..4).boxed();
    prop_oneof![
        (
            name.clone(),
            any::<u64>(),
            levels,
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(
                |(attester, nonce, levels, bytes, chained)| AuditEvent::Evidence {
                    attester,
                    nonce,
                    levels,
                    bytes,
                    chained,
                }
            ),
        (name.clone(), name.clone(), any::<bool>()).prop_map(|(attester, level, hit)| {
            AuditEvent::CacheLookup {
                attester,
                level,
                hit,
            }
        }),
        (name.clone(), name.clone(), any::<u64>()).prop_map(|(signer, scheme, sig_bytes)| {
            AuditEvent::Signature {
                signer,
                scheme,
                sig_bytes,
            }
        }),
        (
            (name.clone(), name.clone()),
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|((subject, cause), nonce, has_nonce, checks, ok)| {
                AuditEvent::Appraisal {
                    subject,
                    nonce: has_nonce.then_some(nonce),
                    ok,
                    checks,
                    cause: (!ok).then_some(cause),
                }
            }),
        (
            (name.clone(), name),
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|((unit, cause), nonce, has_nonce, admitted)| {
                AuditEvent::Enforcement {
                    unit,
                    nonce: has_nonce.then_some(nonce),
                    admitted,
                    cause: (!admitted).then_some(cause),
                }
            }),
    ]
    .boxed()
}

/// Arbitrary text for the parser: runs of printable ASCII, JSON and
/// audit-record tokens, line breaks and multi-byte characters, in any
/// order. U+0085 and U+00A0 are among them because their UTF-8
/// continuation bytes are whitespace when read as Latin-1.
fn text() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> =
        r#"{ } [ ] " : , \ \u \ud83d \u00e9 "seq":0 "kind":"appraisal" "nonce": null true - 1e9"#
            .split(' ')
            .collect();
    let fragment = prop_oneof![
        "[ -~]{1,4}",
        (0..tokens.len()).prop_map(move |i| tokens[i].to_string()),
        "[\n\té▶☃\u{85}\u{a0}𝄞]",
    ];
    proptest::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `parse_jsonl` never panics on arbitrary text.
    #[test]
    fn audit_parser_never_panics_on_arbitrary_text(src in text()) {
        let _ = parse_jsonl(&src);
    }
}
