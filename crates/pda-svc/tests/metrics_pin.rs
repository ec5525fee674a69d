//! Pins what a collecting service exports for a fixed RPC sequence:
//! every `/metrics` line apart from the timing-valued ones (summary
//! quantiles and `_sum`s), and the whole audit log as JSONL. How the
//! service records telemetry may change; what it records may not.

use pda_crypto::nonce::Nonce;
use pda_netsim::EvidenceMode;
use pda_svc::rpc::{to_hex, RpcRequest};
use pda_svc::{rogue_reload, AppraisalService, Handler, Quorum, SvcConfig};
use pda_telemetry::json::Json;
use pda_telemetry::{Telemetry, TraceCtx};

/// Hex wire records of one 3-hop chain for `nonce`, from a clean fleet
/// or from one whose `sw1` runs a rogue program.
fn wire_chain(nonce: u64, rogue: bool) -> String {
    let mut fleet = pda_svc::fleet::standard_fleet(3);
    if rogue {
        rogue_reload(&mut fleet);
    }
    let appraiser = fleet.appraiser;
    fleet.send_attested(Nonce(nonce), EvidenceMode::OutOfBand { appraiser }, b"pin");
    let mut bytes = Vec::new();
    for r in fleet.sim.evidence_at(appraiser) {
        r.write_wire(&mut bytes);
    }
    to_hex(&bytes)
}

fn call(svc: &AppraisalService, id: u64, method: &str, params: Vec<(&str, Json)>, nonce: u64) {
    let params = Json::Obj(
        params
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let req = RpcRequest::new(id, method, params)
        .with_traceparent(TraceCtx::for_nonce(nonce).traceparent());
    svc.dispatch(&req);
}

/// A clean chain, a rogue chain and a nonce with no evidence, then two
/// closed connections (one reused).
fn drive(svc: &AppraisalService) {
    for (nonce, rogue) in [(1, false), (2, true)] {
        let records = Json::Str(wire_chain(nonce, rogue));
        call(
            svc,
            2 * nonce,
            "submit-evidence",
            vec![("records", records)],
            nonce,
        );
        call(
            svc,
            2 * nonce + 1,
            "appraise",
            vec![("nonce", Json::UInt(nonce))],
            nonce,
        );
    }
    call(svc, 7, "appraise", vec![("nonce", Json::UInt(3))], 3);
    svc.connection_closed(1);
    svc.connection_closed(6);
}

/// The exported text with its timing-valued lines left out.
fn pinned(svc: &AppraisalService) -> String {
    let tel = svc.telemetry();
    let mut out = String::new();
    for line in tel.registry().unwrap().encode_prometheus().lines() {
        let sample = line.split(' ').next().unwrap_or("");
        if sample.contains("{quantile=") || sample.ends_with("_sum") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&tel.audit_log().unwrap().to_jsonl());
    out
}

#[test]
fn a_fixed_rpc_sequence_exports_the_pinned_metrics_and_audit_log() {
    // The default service accepts the clean chain; a 2-of-3 federation
    // with a poisoned member accepts it over that member's dissent.
    // Both reject the rogue chain and find nothing under nonce 3.
    let configs = [
        SvcConfig::default(),
        SvcConfig {
            quorum: Quorum::KOfN(2),
            corrupt: true,
            ..SvcConfig::default()
        },
    ];
    for (config, expected) in configs
        .into_iter()
        .zip([EXPECTED_DEFAULT, EXPECTED_CORRUPT])
    {
        let svc = AppraisalService::new(config.clone(), Telemetry::collecting());
        drive(&svc);
        let got = pinned(&svc);
        assert_eq!(got, expected, "{config:?}:\n{got}");
    }
}

// Both texts were exported by the service as it was before its metric
// handles were resolved once per component and registry.
const EXPECTED_DEFAULT: &str = r##"# HELP ra_appraisal_failures ra.appraisal_failures
# TYPE ra_appraisal_failures counter
ra_appraisal_failures 3
# HELP ra_appraisals ra.appraisals
# TYPE ra_appraisals counter
ra_appraisals 6
# HELP ra_appraise_records_ns ra.appraise_records.ns
# TYPE ra_appraise_records_ns summary
ra_appraise_records_ns_count 6
# HELP svc_appraisal_failures svc.appraisal_failures
# TYPE svc_appraisal_failures counter
svc_appraisal_failures 1
# HELP svc_appraisals svc.appraisals
# TYPE svc_appraisals counter
svc_appraisals 2
# HELP svc_appraiser_a1_ns svc.appraiser.a1.ns
# TYPE svc_appraiser_a1_ns summary
svc_appraiser_a1_ns_count 2
# HELP svc_appraiser_a2_ns svc.appraiser.a2.ns
# TYPE svc_appraiser_a2_ns summary
svc_appraiser_a2_ns_count 2
# HELP svc_appraiser_a3_ns svc.appraiser.a3.ns
# TYPE svc_appraiser_a3_ns summary
svc_appraiser_a3_ns_count 2
# HELP svc_dissent svc.dissent
# TYPE svc_dissent counter
svc_dissent 0
# HELP svc_http_connections svc.http.connections
# TYPE svc_http_connections counter
svc_http_connections 2
# HELP svc_http_requests svc.http.requests
# TYPE svc_http_requests counter
svc_http_requests 7
# HELP svc_http_reused_connections svc.http.reused_connections
# TYPE svc_http_reused_connections counter
svc_http_reused_connections 1
# HELP svc_records svc.records
# TYPE svc_records counter
svc_records 6
# HELP svc_rpc_ns svc.rpc.ns
# TYPE svc_rpc_ns summary
svc_rpc_ns_count 5
# HELP svc_submissions svc.submissions
# TYPE svc_submissions counter
svc_submissions 2
# HELP svc_verdict_ns svc.verdict.ns
# TYPE svc_verdict_ns summary
svc_verdict_ns_count 2
{"seq":0,"kind":"appraisal","subject":"svc/a1","nonce":1,"ok":true,"checks":18,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":1,"kind":"appraisal","subject":"svc/a2","nonce":1,"ok":true,"checks":18,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":2,"kind":"appraisal","subject":"svc/a3","nonce":1,"ok":true,"checks":18,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":3,"kind":"appraisal","subject":"svc/quorum","nonce":1,"ok":true,"checks":54,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":4,"kind":"appraisal","subject":"svc/a1","nonce":2,"ok":false,"checks":18,"cause":"measurement of program observed e50482ff but golden is 847d3f89","trace":"1f3cc9bd09f4ade4"}
{"seq":5,"kind":"appraisal","subject":"svc/a2","nonce":2,"ok":false,"checks":18,"cause":"measurement of program observed e50482ff but golden is 847d3f89","trace":"1f3cc9bd09f4ade4"}
{"seq":6,"kind":"appraisal","subject":"svc/a3","nonce":2,"ok":false,"checks":18,"cause":"measurement of program observed e50482ff but golden is 847d3f89","trace":"1f3cc9bd09f4ade4"}
{"seq":7,"kind":"appraisal","subject":"svc/quorum","nonce":2,"ok":false,"checks":54,"cause":"quorum not met: 0/3 yes, 2 required","trace":"1f3cc9bd09f4ade4"}
"##;

const EXPECTED_CORRUPT: &str = r##"# HELP ra_appraisal_failures ra.appraisal_failures
# TYPE ra_appraisal_failures counter
ra_appraisal_failures 4
# HELP ra_appraisals ra.appraisals
# TYPE ra_appraisals counter
ra_appraisals 6
# HELP ra_appraise_records_ns ra.appraise_records.ns
# TYPE ra_appraise_records_ns summary
ra_appraise_records_ns_count 6
# HELP svc_appraisal_failures svc.appraisal_failures
# TYPE svc_appraisal_failures counter
svc_appraisal_failures 1
# HELP svc_appraisals svc.appraisals
# TYPE svc_appraisals counter
svc_appraisals 2
# HELP svc_appraiser_a1_ns svc.appraiser.a1.ns
# TYPE svc_appraiser_a1_ns summary
svc_appraiser_a1_ns_count 2
# HELP svc_appraiser_a2_ns svc.appraiser.a2.ns
# TYPE svc_appraiser_a2_ns summary
svc_appraiser_a2_ns_count 2
# HELP svc_appraiser_a3_ns svc.appraiser.a3.ns
# TYPE svc_appraiser_a3_ns summary
svc_appraiser_a3_ns_count 2
# HELP svc_dissent svc.dissent
# TYPE svc_dissent counter
svc_dissent 1
# HELP svc_http_connections svc.http.connections
# TYPE svc_http_connections counter
svc_http_connections 2
# HELP svc_http_requests svc.http.requests
# TYPE svc_http_requests counter
svc_http_requests 7
# HELP svc_http_reused_connections svc.http.reused_connections
# TYPE svc_http_reused_connections counter
svc_http_reused_connections 1
# HELP svc_records svc.records
# TYPE svc_records counter
svc_records 6
# HELP svc_rpc_ns svc.rpc.ns
# TYPE svc_rpc_ns summary
svc_rpc_ns_count 5
# HELP svc_submissions svc.submissions
# TYPE svc_submissions counter
svc_submissions 2
# HELP svc_verdict_ns svc.verdict.ns
# TYPE svc_verdict_ns summary
svc_verdict_ns_count 2
{"seq":0,"kind":"appraisal","subject":"svc/a1","nonce":1,"ok":true,"checks":18,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":1,"kind":"appraisal","subject":"svc/a2","nonce":1,"ok":true,"checks":18,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":2,"kind":"appraisal","subject":"svc/a3","nonce":1,"ok":false,"checks":18,"cause":"measurement of program observed 847d3f89 but golden is ece3e406","trace":"64fe8fa44c251c1d"}
{"seq":3,"kind":"appraisal","subject":"svc/quorum","nonce":1,"ok":true,"checks":54,"cause":null,"trace":"64fe8fa44c251c1d"}
{"seq":4,"kind":"appraisal","subject":"svc/a1","nonce":2,"ok":false,"checks":18,"cause":"measurement of program observed e50482ff but golden is 847d3f89","trace":"1f3cc9bd09f4ade4"}
{"seq":5,"kind":"appraisal","subject":"svc/a2","nonce":2,"ok":false,"checks":18,"cause":"measurement of program observed e50482ff but golden is 847d3f89","trace":"1f3cc9bd09f4ade4"}
{"seq":6,"kind":"appraisal","subject":"svc/a3","nonce":2,"ok":false,"checks":18,"cause":"measurement of program observed e50482ff but golden is ece3e406","trace":"1f3cc9bd09f4ade4"}
{"seq":7,"kind":"appraisal","subject":"svc/quorum","nonce":2,"ok":false,"checks":54,"cause":"quorum not met: 0/3 yes, 2 required","trace":"1f3cc9bd09f4ade4"}
"##;
