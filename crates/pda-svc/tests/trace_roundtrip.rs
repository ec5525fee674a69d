//! End-to-end trace propagation: the trace id stamped at switch
//! measurement time (derived from the nonce) must be recoverable at
//! every later stage — the JSON-RPC response echo, the quorum's audit
//! record, and the flight recorder's per-trace dump — for accepted
//! *and* rejected verdicts, under E18-style churn.

use pda_crypto::nonce::Nonce;
use pda_netsim::EvidenceMode;
use pda_svc::churn::{run_churn, ChurnConfig};
use pda_svc::client::SvcClient;
use pda_svc::fleet::standard_fleet;
use pda_svc::runtime::serve;
use pda_svc::service::{AppraisalService, SvcConfig};
use pda_telemetry::json::Json;
use pda_telemetry::{
    render_trace_trees, AuditEvent, FlightRecorder, SloPolicy, Telemetry, TraceCtx, TraceId,
};
use std::sync::Arc;

/// A service whose telemetry feeds a flight recorder, with the
/// verdict-latency SLO active.
fn traced_service() -> (Arc<AppraisalService>, Arc<FlightRecorder>, Telemetry) {
    let recorder = Arc::new(FlightRecorder::new(256, 128));
    let tel = Telemetry::new(recorder.clone());
    let svc = Arc::new(
        AppraisalService::new(SvcConfig::default(), tel.clone())
            .with_flight_recorder(recorder.clone())
            // Generous target: only genuine stalls breach it in tests.
            .with_slo(SloPolicy::new("svc.verdict.ns", 60_000_000_000, 0.99)),
    );
    (svc, recorder, tel)
}

#[test]
fn trace_id_survives_submit_appraise_audit_and_echo() {
    let (svc, _recorder, _tel) = traced_service();
    let mut server = serve("127.0.0.1:0", 2, Arc::clone(&svc)).unwrap();
    let client = SvcClient::new(server.addr);

    let nonce = 7u64;
    let mut fleet = standard_fleet(3);
    let appraiser = fleet.appraiser;
    fleet.send_attested(Nonce(nonce), EvidenceMode::OutOfBand { appraiser }, b"pkt");
    let records = fleet.sim.evidence_at(appraiser).to_vec();
    assert_eq!(records.len(), 3, "every hop reported");

    let expect_tp = TraceCtx::for_nonce(nonce).traceparent();
    let (sub, sub_echo) = client.submit_evidence_traced(&records).unwrap();
    assert_eq!(sub.get("accepted").and_then(Json::as_u64), Some(3));
    assert_eq!(
        sub_echo.as_deref(),
        Some(expect_tp.as_str()),
        "submit echoes the caller's traceparent"
    );

    let (verdict, app_echo) = client.appraise_traced(nonce).unwrap();
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        app_echo.as_deref(),
        Some(expect_tp.as_str()),
        "appraise echoes the caller's traceparent"
    );

    // The quorum's audit record carries the same trace id.
    let log = client.query_audit_log(Some("svc/quorum"), None).unwrap();
    let recs = log.get("records").and_then(Json::as_arr).unwrap();
    let hex = TraceId::for_nonce(nonce).to_hex();
    assert!(
        recs.iter()
            .any(|r| r.get("trace").and_then(Json::as_str) == Some(hex.as_str())),
        "quorum audit record carries the measurement-time trace id"
    );
    server.stop();
}

#[test]
fn churn_traces_span_switch_to_quorum_for_accepted_and_rejected() {
    let (svc, recorder, tel) = traced_service();
    let mut server = serve("127.0.0.1:0", 2, Arc::clone(&svc)).unwrap();
    let client = SvcClient::new(server.addr);
    let config = ChurnConfig {
        epochs: 4,
        packets_per_epoch: 3,
        rogue_every: 2,
        link_loss: 0.0,
        ..ChurnConfig::default()
    };
    let report = run_churn(&client, &config, &tel).expect("churn run completes");
    server.stop();

    assert!(
        report.rejected > 0,
        "rogue epochs produce rejections: {report:?}"
    );
    assert!(
        report.accepted > 0,
        "clean epochs produce acceptances: {report:?}"
    );
    assert!(
        recorder.triggers() > 0,
        "rejected verdicts triggered the flight recorder"
    );

    // Recover one accepted and one rejected trace id from the
    // appraiser-side audit log: a verdict's trace is its nonce's.
    let log = svc.telemetry().audit_log().unwrap();
    let mut accepted = None;
    let mut rejected = None;
    for r in log.records() {
        if let AuditEvent::Appraisal {
            subject,
            ok,
            nonce: Some(n),
            ..
        } = &r.event
        {
            if subject == "svc/quorum" {
                let id = TraceId::for_nonce(*n);
                if *ok {
                    accepted.get_or_insert(id);
                } else {
                    rejected.get_or_insert(id);
                }
            }
        }
    }
    let cases = [
        ("accepted", accepted.expect("a clean chain was accepted")),
        ("rejected", rejected.expect("a rogue chain was rejected")),
    ];

    // Each trace's flight dump renders to a tree containing the whole
    // lifecycle — switch measurement, control channel, every
    // federation member, quorum — in causal order.
    for (label, trace) in cases {
        let dump = recorder.trigger("test-dump", trace);
        let tree = render_trace_trees(&dump, Some(trace)).expect("dump renders");
        for needle in [
            "pera.attest",
            "channel.",
            "svc.appraiser.a1",
            "svc.appraiser.a2",
            "svc.appraiser.a3",
            "svc.quorum",
        ] {
            assert!(
                tree.contains(needle),
                "{label} trace tree missing {needle}:\n{tree}"
            );
        }
        let pos = |n: &str| tree.find(n).unwrap();
        assert!(
            pos("pera.attest") < pos("channel."),
            "{label}: measurement precedes the channel:\n{tree}"
        );
        assert!(
            pos("channel.") < pos("svc.appraiser.a1"),
            "{label}: channel precedes appraisal:\n{tree}"
        );
        assert!(
            pos("svc.appraiser.a1") < pos("svc.quorum"),
            "{label}: members vote before the quorum combines:\n{tree}"
        );
    }
}
