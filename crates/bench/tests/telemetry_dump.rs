//! The `--telemetry json` acceptance check: the dump the harness writes
//! must parse back with `pda_telemetry::json`, carry per-stage pipeline
//! latency histograms, and contain at least one attestation audit
//! event. The same assertions run against an on-disk dump when
//! `TELEMETRY_DUMP` points at one (the CI job sets it to the
//! `telemetry.json` a real harness run produced).

use pda_telemetry::json::{self, Json};
use pda_telemetry::Telemetry;

/// Assert the dump shape the harness promises.
fn check_dump(dump: &str, source: &str) {
    let v = json::parse(dump).unwrap_or_else(|e| panic!("{source}: dump does not parse: {e}"));
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{source}: no `metrics` object"));

    // Per-stage latency histograms from the traced pipeline: the parse
    // and deparse stages plus at least one named match-action stage.
    for required in ["pipeline.parse.ns", "pipeline.deparse.ns"] {
        let h = metrics
            .iter()
            .find(|(k, _)| k == required)
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("{source}: missing histogram `{required}`"));
        assert_eq!(
            h.get("type").and_then(Json::as_str),
            Some("histogram"),
            "{source}: `{required}` is not a histogram"
        );
        assert!(
            h.get("count").and_then(Json::as_u64).unwrap_or(0) > 0,
            "{source}: `{required}` recorded nothing"
        );
        for q in ["p50", "p90", "p99"] {
            assert!(
                h.get(q).is_some(),
                "{source}: `{required}` lacks quantile `{q}`"
            );
        }
    }
    assert!(
        metrics
            .iter()
            .any(|(k, _)| k.starts_with("pipeline.stage.")),
        "{source}: no per-stage `pipeline.stage.*` histogram"
    );

    // The dump declares how many events its subscriber evicted, so a
    // consumer can tell a complete timeline from a truncated one.
    assert!(
        v.get("events_dropped").and_then(Json::as_u64).is_some(),
        "{source}: no `events_dropped` counter"
    );

    // At least one attestation audit event, and every record carries a
    // recognised kind.
    let audit = v
        .get("audit")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{source}: no `audit` array"));
    assert!(!audit.is_empty(), "{source}: audit log is empty");
    let kinds: Vec<&str> = audit
        .iter()
        .filter_map(|r| r.get("kind").and_then(Json::as_str))
        .collect();
    assert_eq!(
        kinds.len(),
        audit.len(),
        "{source}: audit record lacks kind"
    );
    assert!(
        kinds
            .iter()
            .any(|k| matches!(*k, "evidence" | "cache_lookup" | "signature" | "appraisal")),
        "{source}: no attestation event among kinds {kinds:?}"
    );
}

#[test]
fn telemetry_dump_parses_with_stage_histograms_and_audit() {
    let tel = Telemetry::collecting();
    // Two of the three instrumented experiments the harness runs under
    // `--telemetry`, at small scale. E15 is exercised only through the
    // on-disk check below: its Merkle height-12 keygen is prohibitive
    // in debug builds, and the CI harness run covers it in release.
    let _ = bench::exp_fig1(&tel);
    let _ = bench::exp_fig3(200, &tel);
    check_dump(&tel.dump_json().encode(), "in-memory run");

    // Appraisal verdicts from fig1 must be in the audit trail.
    let audit = tel.audit_log().unwrap();
    assert!(
        audit
            .records()
            .iter()
            .any(|r| r.event.kind() == "appraisal"),
        "fig1 appraisals missing from audit log"
    );
}

#[test]
fn on_disk_dump_parses_when_provided() {
    let Ok(path) = std::env::var("TELEMETRY_DUMP") else {
        return; // only meaningful after a real `--telemetry json` run
    };
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read TELEMETRY_DUMP={path}: {e}"));
    check_dump(&body, &path);

    // The CI harness run includes the E16 fault sweep, so the dump must
    // show the fault plane actually fired: fault-plane gauges from the
    // simulator and enforcement verdicts in the audit trail.
    let v = json::parse(&body).unwrap();
    let metrics = v.get("metrics").and_then(Json::as_obj).unwrap();
    for gauge in [
        "netsim.faults.data_lost",
        "netsim.faults.control_lost",
        "netsim.faults.control_retransmits",
    ] {
        assert!(
            metrics.iter().any(|(k, _)| k == gauge),
            "{path}: e16 ran but gauge `{gauge}` is missing"
        );
    }
    let audit = v.get("audit").and_then(Json::as_arr).unwrap();
    assert!(
        audit
            .iter()
            .any(|r| r.get("kind").and_then(Json::as_str) == Some("enforcement")),
        "{path}: e16 ran but no enforcement verdict was audited"
    );
}
