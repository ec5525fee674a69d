//! The appraisal service proper: JSON-RPC methods over the federation.
//!
//! Method surface (all POST `/rpc`, JSON-RPC 2.0):
//!
//! | method            | params                          | result |
//! |-------------------|---------------------------------|--------|
//! | `submit-evidence` | `{records: <hex wire bytes>}`   | `{accepted, nonces}` |
//! | `appraise`        | `{nonce}`                       | quorum verdict |
//! | `query-audit-log` | `{subject?, limit?}`            | `{records: [...]}` |
//! | `metrics`         | —                               | metrics snapshot |
//! | `health`          | —                               | `{ok, appraisers, quorum}` |
//! | `shutdown`        | —                               | `{stopping: true}` |
//!
//! Plain GET `/metrics` serves the Prometheus text rendition and GET
//! `/health` the health JSON, for scrapers that don't speak JSON-RPC.

use crate::federation::{Appraiser, Federation, Quorum, QuorumVerdict};
use crate::fleet::{enroll_fleet_golden, fleet_registry, standard_fleet};
use crate::http::{HttpRequest, HttpResponse};
use crate::rpc::{err_response, from_hex, ok_response_traced, RpcRequest};
use crate::runtime::Handler;
use pda_crypto::nonce::Nonce;
use pda_pera::config::DetailLevel;
use pda_pera::evidence::assemble_chain;
use pda_pera::EvidenceRecord;
use pda_telemetry::json::Json;
use pda_telemetry::{
    AuditRecord, Counter, FlightRecorder, Histogram, Registry, SloPolicy, SpanSite, Telemetry,
    TraceCtx, TraceId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Switches in the appraised fleet's linear path.
    pub hops: usize,
    /// Federation size.
    pub appraisers: usize,
    /// Quorum rule combining the appraisers.
    pub quorum: Quorum,
    /// Deliberately corrupt the last appraiser's golden store
    /// (Byzantine-member drill; its dissent shows in the audit log).
    pub corrupt: bool,
    /// Worker threads serving connections.
    pub workers: usize,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            hops: 3,
            appraisers: 3,
            quorum: Quorum::Majority,
            corrupt: false,
            workers: 4,
        }
    }
}

/// The service's metric handles, resolved once from its telemetry
/// handle's registry when the service is built (which registers every
/// series).
struct SvcMetrics {
    verdict_ns: Histogram,
    submissions: Counter,
    records: Counter,
    appraisals: Counter,
    appraisal_failures: Counter,
    connections: Counter,
    requests: Counter,
    reused_connections: Counter,
}

impl SvcMetrics {
    fn new(telemetry: &Telemetry) -> Option<SvcMetrics> {
        let reg = telemetry.registry()?;
        Some(SvcMetrics {
            verdict_ns: reg.histogram("svc.verdict.ns"),
            submissions: reg.counter("svc.submissions"),
            records: reg.counter("svc.records"),
            appraisals: reg.counter("svc.appraisals"),
            appraisal_failures: reg.counter("svc.appraisal_failures"),
            connections: reg.counter("svc.http.connections"),
            requests: reg.counter("svc.http.requests"),
            reused_connections: reg.counter("svc.http.reused_connections"),
        })
    }
}

/// Flight-recorder triggers a request tripped: (reason, trace).
type Trips = Vec<(&'static str, TraceId)>;

/// The long-running appraisal service.
pub struct AppraisalService {
    config: SvcConfig,
    federation: Federation,
    /// Whether submitted evidence is hop-linked (default PERA config).
    chained: bool,
    telemetry: Telemetry,
    /// `None` when `telemetry` is disabled.
    metrics: Option<SvcMetrics>,
    /// The `svc.rpc` span every request opens.
    rpc_span: SpanSite,
    /// Submitted evidence, grouped by nonce, awaiting appraisal.
    store: Mutex<HashMap<u64, Vec<EvidenceRecord>>>,
    /// Set by the `shutdown` RPC; the serve driver polls it.
    shutdown_requested: AtomicBool,
    /// Flight recorder fed by the same telemetry handle; anomalous
    /// verdicts trigger a per-trace dump.
    flight: Option<Arc<FlightRecorder>>,
    /// Verdict-latency SLO: evaluated per appraisal for the flight
    /// recorder's p99 trigger, published as gauges where metrics are
    /// rendered.
    slo: Option<SloPolicy>,
}

impl AppraisalService {
    /// Build the service: reconstruct the fleet's deterministic
    /// enrollment, stand up the federation, optionally poisoning the
    /// last member.
    pub fn new(config: SvcConfig, telemetry: Telemetry) -> AppraisalService {
        let fleet = standard_fleet(config.hops);
        let golden = enroll_fleet_golden(&fleet);
        let registry = fleet_registry(&fleet);
        let mut appraisers: Vec<Appraiser> = (1..=config.appraisers)
            .map(|i| Appraiser::new(format!("a{i}"), golden.clone(), registry.clone()))
            .collect();
        if config.corrupt {
            if let Some(last) = appraisers.last_mut() {
                last.poison("sw1", DetailLevel::Program);
            }
        }
        AppraisalService {
            federation: Federation {
                appraisers,
                quorum: config.quorum,
            },
            chained: true,
            config,
            metrics: SvcMetrics::new(&telemetry),
            rpc_span: telemetry.span_site("svc.rpc"),
            telemetry,
            store: Mutex::new(HashMap::new()),
            shutdown_requested: AtomicBool::new(false),
            flight: None,
            slo: None,
        }
    }

    /// Attach a flight recorder. The recorder must be (part of) the
    /// subscriber behind this service's [`Telemetry`] handle to see
    /// any events; the service only drives its anomaly triggers
    /// (rejected verdict, dissent, indeterminate appraisal, p99 SLO
    /// breach).
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> AppraisalService {
        self.flight = Some(recorder);
        self
    }

    /// Track a verdict-latency SLO over `svc.verdict.ns`: its
    /// compliance, burn-rate and p99-breach gauges are published
    /// whenever metrics are rendered (`GET /metrics`, the `metrics`
    /// RPC), and a p99 breach trips the flight recorder.
    pub fn with_slo(mut self, policy: SloPolicy) -> AppraisalService {
        self.slo = Some(policy);
        self
    }

    /// The service's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether a `shutdown` RPC has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// `submit-evidence`: decode hex-encoded wire records and store
    /// them by nonce.
    fn rpc_submit(&self, params: &Json) -> Result<Json, String> {
        let hex = params
            .get("records")
            .and_then(Json::as_str)
            .ok_or("params.records (hex string) is required")?;
        let bytes = from_hex(hex).ok_or("params.records is not valid hex")?;
        let records =
            EvidenceRecord::read_wire_all(&bytes).ok_or("records do not decode as evidence")?;
        if records.is_empty() {
            return Err("no records in submission".to_string());
        }
        let accepted = records.len() as u64;
        let mut nonces: Vec<u64> = Vec::new();
        {
            let mut store = self.store.lock().expect("store poisoned");
            for r in records {
                let n = r.nonce.0;
                if !nonces.contains(&n) {
                    nonces.push(n);
                }
                store.entry(n).or_default().push(r);
            }
        }
        if let Some(m) = &self.metrics {
            m.submissions.inc();
            m.records.add(accepted);
        }
        Ok(Json::Obj(vec![
            ("accepted".to_string(), Json::UInt(accepted)),
            (
                "nonces".to_string(),
                Json::Arr(nonces.into_iter().map(Json::UInt).collect()),
            ),
        ]))
    }

    /// `appraise`: run the federation over everything submitted for a
    /// nonce. The flight-recorder triggers the verdict trips are pushed
    /// to `trips`, for [`Self::dispatch`] to fire once the request's
    /// `svc.rpc` span has closed.
    fn rpc_appraise(&self, params: &Json, trips: &mut Trips) -> Result<Json, String> {
        let nonce = params
            .get("nonce")
            .and_then(Json::as_u64)
            .ok_or("params.nonce is required")?;
        let records = {
            let store = self.store.lock().expect("store poisoned");
            store
                .get(&nonce)
                .cloned()
                .ok_or(format!("no evidence submitted for nonce {nonce}"))?
        };
        // Loss-tolerant ingest: submissions may arrive duplicated or
        // reordered (lossy control channels retry); reassemble first.
        let (chain, _extras) = assemble_chain(records);
        let trace = TraceId::for_nonce(nonce);
        let start = Instant::now();
        let verdict = self
            .federation
            .appraise(&chain, Nonce(nonce), self.chained, &self.telemetry);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        if let Some(m) = &self.metrics {
            m.verdict_ns.record_traced(elapsed_ns, trace);
            m.appraisals.inc();
            if !verdict.ok {
                m.appraisal_failures.inc();
            }
        }
        if self.flight.is_some() {
            if !verdict.ok {
                trips.push(("rejected", trace));
            } else if !verdict.dissenters.is_empty() {
                trips.push(("dissent", trace));
            }
            if let (Some(slo), Some(m)) = (&self.slo, &self.metrics) {
                if slo.evaluate(&m.verdict_ns).p99_breached {
                    // A p99 breach is an aggregate symptom: the slow
                    // requests are the histogram's exemplars, not
                    // necessarily the request that tipped the quantile.
                    // Dump them plus the current one, deduplicated.
                    let mut slow_traces: Vec<TraceId> = m
                        .verdict_ns
                        .exemplars()
                        .into_iter()
                        .map(|e| e.trace)
                        .collect();
                    if !slow_traces.contains(&trace) {
                        slow_traces.push(trace);
                    }
                    trips.extend(slow_traces.into_iter().map(|t| ("slo_p99_breach", t)));
                }
            }
        }
        Ok(verdict_json(&verdict, nonce, chain.len(), elapsed_ns))
    }

    /// `query-audit-log`: the shared audit trail, optionally filtered
    /// by subject substring, most recent last. Records are chosen under
    /// the log's lock and only those returned are rendered.
    fn rpc_audit_log(&self, params: &Json) -> Result<Json, String> {
        let subject = params.get("subject").and_then(Json::as_str);
        let limit = params
            .get("limit")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX) as usize;
        let log = self
            .telemetry
            .audit_log()
            .ok_or("telemetry is disabled; no audit log")?;
        let out: Vec<Json> = log
            .last_matching(limit, |r| {
                subject.is_none_or(|s| r.event.subject().is_some_and(|subj| subj.contains(s)))
            })
            .iter()
            .map(AuditRecord::to_json)
            .collect();
        Ok(Json::Obj(vec![
            ("count".to_string(), Json::UInt(out.len() as u64)),
            ("records".to_string(), Json::Arr(out)),
        ]))
    }

    fn rpc_metrics(&self) -> Result<Json, String> {
        self.rendered_registry()
            .map(Registry::encode_json)
            .ok_or("telemetry is disabled; no metrics".to_string())
    }

    /// The registry about to be rendered, with the SLO gauges
    /// published from the histogram it holds, so a rendering is
    /// consistent; `None` when telemetry is disabled.
    fn rendered_registry(&self) -> Option<&Registry> {
        let (m, reg) = (self.metrics.as_ref()?, self.telemetry.registry()?);
        if let Some(slo) = &self.slo {
            slo.publish(reg, &m.verdict_ns);
        }
        Some(reg)
    }

    fn health_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            (
                "appraisers".to_string(),
                Json::UInt(self.config.appraisers as u64),
            ),
            (
                "quorum".to_string(),
                Json::Str(self.config.quorum.to_string()),
            ),
            ("hops".to_string(), Json::UInt(self.config.hops as u64)),
            ("corrupt".to_string(), Json::Bool(self.config.corrupt)),
        ])
    }

    /// Dispatch one JSON-RPC request.
    pub fn dispatch(&self, req: &RpcRequest) -> String {
        // Join the caller's trace: an explicit traceparent wins, else
        // derive from the nonce parameter (the canonical trace key).
        // Only a span that keeps events or a flight dump reads it.
        let ctx = || {
            req.traceparent
                .as_deref()
                .and_then(TraceCtx::parse_traceparent)
                .or_else(|| {
                    req.params
                        .get("nonce")
                        .and_then(Json::as_u64)
                        .map(TraceCtx::for_nonce)
                })
        };
        let mut span = self
            .rpc_span
            .span_in(|| ctx().map(|c| c.child("svc.rpc", req.id)));
        span.set("method", req.method.as_str());
        let mut trips = Trips::new();
        let result = match req.method.as_str() {
            "submit-evidence" => self.rpc_submit(&req.params),
            "appraise" => self.rpc_appraise(&req.params, &mut trips),
            "query-audit-log" => self.rpc_audit_log(&req.params),
            "metrics" => self.rpc_metrics(),
            "health" => Ok(self.health_json()),
            "shutdown" => {
                self.shutdown_requested.store(true, Ordering::SeqCst);
                Ok(Json::Obj(vec![("stopping".to_string(), Json::Bool(true))]))
            }
            other => Err(format!("unknown method {other:?}")),
        };
        // An appraisal that could not run at all (e.g. no evidence
        // under the nonce) is an indeterminate verdict: worth a dump.
        if self.flight.is_some() && req.method == "appraise" && result.is_err() {
            if let Some(c) = ctx() {
                trips.push(("indeterminate", c.trace));
            }
        }
        // The span closes first, so each dump holds this request.
        drop(span);
        if let Some(flight) = &self.flight {
            for (reason, trace) in trips {
                flight.trigger(reason, trace);
            }
        }
        match result {
            Ok(v) => ok_response_traced(req.id, v, req.traceparent.as_deref()),
            Err(msg) => err_response(req.id, -32000, &msg),
        }
    }
}

/// Render a quorum verdict as the `appraise` RPC result.
fn verdict_json(v: &QuorumVerdict, nonce: u64, chain_len: usize, elapsed_ns: u64) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(v.ok)),
        ("nonce".to_string(), Json::UInt(nonce)),
        ("yes".to_string(), Json::UInt(v.yes as u64)),
        ("total".to_string(), Json::UInt(v.total as u64)),
        ("required".to_string(), Json::UInt(v.required as u64)),
        (
            "dissenters".to_string(),
            Json::Arr(v.dissenters.iter().map(|d| Json::Str(d.clone())).collect()),
        ),
        (
            "causes".to_string(),
            Json::Arr(v.causes.iter().map(|c| Json::Str(c.clone())).collect()),
        ),
        ("chain_len".to_string(), Json::UInt(chain_len as u64)),
        ("elapsed_ns".to_string(), Json::UInt(elapsed_ns)),
    ])
}

impl Handler for AppraisalService {
    /// Connection-plane accounting: every closed connection bumps
    /// `svc.http.connections` and adds its request count to
    /// `svc.http.requests`; connections that served more than one
    /// request (keep-alive reuse) bump `svc.http.reused_connections`.
    /// The CI smoke job asserts reuse through these on `/metrics`.
    fn connection_closed(&self, requests_served: u64) {
        if let Some(m) = &self.metrics {
            m.connections.inc();
            m.requests.add(requests_served);
            if requests_served >= 2 {
                m.reused_connections.inc();
            }
        }
    }

    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/rpc") => {
                let Ok(text) = std::str::from_utf8(&req.body) else {
                    return HttpResponse::json(400, err_response(0, -32700, "body is not UTF-8"));
                };
                match RpcRequest::parse(text) {
                    Ok(rpc) => HttpResponse::json(200, self.dispatch(&rpc)),
                    Err(e) => HttpResponse::json(400, err_response(0, -32600, &e.to_string())),
                }
            }
            ("GET", "/metrics") => match self.rendered_registry() {
                Some(reg) => HttpResponse::text(200, reg.encode_prometheus()),
                None => HttpResponse::text(404, "telemetry disabled\n".to_string()),
            },
            ("GET", "/health") => HttpResponse::json(200, self.health_json().encode()),
            ("POST", _) | ("GET", _) => {
                HttpResponse::text(404, format!("no such endpoint: {}\n", req.path))
            }
            _ => HttpResponse::text(405, "method not allowed\n".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::to_hex;
    use pda_netsim::EvidenceMode;

    /// Drive a fleet to produce a wire-encoded evidence chain.
    fn wire_chain(hops: usize, nonce: u64) -> String {
        wire_from(&mut standard_fleet(hops), hops, nonce)
    }

    /// The wire-encoded chain a fleet of `hops` switches reports for one
    /// attested packet.
    fn wire_from(fleet: &mut pda_netsim::LinearPath, hops: usize, nonce: u64) -> String {
        let appraiser = fleet.appraiser;
        fleet.send_attested(Nonce(nonce), EvidenceMode::OutOfBand { appraiser }, b"pkt");
        let records = fleet.sim.evidence_at(appraiser);
        assert_eq!(records.len(), hops, "every hop reported");
        let mut bytes = Vec::new();
        for r in records {
            r.write_wire(&mut bytes);
        }
        to_hex(&bytes)
    }

    fn submit_and_appraise(svc: &AppraisalService, nonce: u64, hex: &str) -> Json {
        let sub = RpcRequest::new(
            1,
            "submit-evidence",
            Json::Obj(vec![("records".to_string(), Json::Str(hex.to_string()))]),
        );
        let (reply, _) = crate::rpc::parse_response(&svc.dispatch(&sub)).expect("submit accepted");
        assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(3));
        let app = RpcRequest::new(
            2,
            "appraise",
            Json::Obj(vec![("nonce".to_string(), Json::UInt(nonce))]),
        );
        crate::rpc::parse_response(&svc.dispatch(&app))
            .expect("appraisal ran")
            .0
    }

    #[test]
    fn clean_chain_passes_unanimously() {
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
        let verdict = submit_and_appraise(&svc, 7, &wire_chain(3, 7));
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(verdict.get("yes").and_then(Json::as_u64), Some(3));
        assert_eq!(
            verdict.get("dissenters").and_then(Json::as_arr),
            Some(&[][..])
        );
    }

    #[test]
    fn corrupt_appraiser_dissents_but_quorum_holds() {
        let config = SvcConfig {
            quorum: Quorum::KOfN(2),
            corrupt: true,
            ..SvcConfig::default()
        };
        let svc = AppraisalService::new(config, Telemetry::collecting());
        let verdict = submit_and_appraise(&svc, 9, &wire_chain(3, 9));
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(verdict.get("yes").and_then(Json::as_u64), Some(2));
        let dissenters = verdict.get("dissenters").and_then(Json::as_arr).unwrap();
        assert_eq!(dissenters, &[Json::Str("a3".to_string())]);
        // The dissent is attributable in the audit log.
        let q = RpcRequest::new(
            3,
            "query-audit-log",
            Json::Obj(vec![(
                "subject".to_string(),
                Json::Str("svc/a3".to_string()),
            )]),
        );
        let (log, _) = crate::rpc::parse_response(&svc.dispatch(&q)).unwrap();
        let recs = log.get("records").and_then(Json::as_arr).unwrap();
        assert!(!recs.is_empty(), "dissenter's verdict is in the log");
        assert_eq!(
            recs.last().unwrap().get("ok").and_then(Json::as_bool),
            Some(false),
            "dissenting verdict recorded as a failure"
        );
    }

    /// A flight-dump sink the test reads back.
    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The triggers fire once the request's `svc.rpc` span has closed,
    /// so the dump a rogue chain's rejection writes holds the `appraise`
    /// RPC that tripped it.
    #[test]
    fn a_rejected_dump_holds_the_appraise_rpc() {
        let recorder = Arc::new(FlightRecorder::new(256, 16));
        let sink = SharedSink::default();
        recorder.set_sink(Box::new(sink.clone()));
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::new(recorder.clone()))
            .with_flight_recorder(recorder);
        let mut fleet = standard_fleet(3);
        crate::churn::rogue_reload(&mut fleet);
        let verdict = submit_and_appraise(&svc, 11, &wire_from(&mut fleet, 3, 11));
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(false));
        let dump = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<Json> = dump
            .lines()
            .map(|l| pda_telemetry::json::parse(l).expect("dump lines are JSON"))
            .collect();
        let header = lines
            .iter()
            .position(|l| l.get("flight_trigger").and_then(Json::as_str) == Some("rejected"))
            .expect("the rejection tripped a dump");
        let events = lines[header].get("events").and_then(Json::as_u64).unwrap() as usize;
        let rpcs: Vec<&str> = lines[header + 1..=header + events]
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("svc.rpc"))
            .filter_map(|e| e.get("method").and_then(Json::as_str))
            .collect();
        assert!(
            rpcs.contains(&"appraise"),
            "svc.rpc methods dumped: {rpcs:?}"
        );
    }

    #[test]
    fn wrong_nonce_fails_the_quorum() {
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
        let sub = RpcRequest::new(
            1,
            "submit-evidence",
            Json::Obj(vec![("records".to_string(), Json::Str(wire_chain(3, 5)))]),
        );
        svc.dispatch(&sub);
        // Appraising nonce 5's chain is fine; there is nothing under 6.
        let missing = RpcRequest::new(
            2,
            "appraise",
            Json::Obj(vec![("nonce".to_string(), Json::UInt(6))]),
        );
        assert!(crate::rpc::parse_response(&svc.dispatch(&missing)).is_err());
    }

    #[test]
    fn bad_submissions_are_rejected() {
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
        for bad in [
            Json::Obj(vec![]),
            Json::Obj(vec![("records".to_string(), Json::Str("zz".to_string()))]),
            Json::Obj(vec![(
                "records".to_string(),
                Json::Str("deadbeef".to_string()),
            )]),
            Json::Obj(vec![("records".to_string(), Json::Str(String::new()))]),
        ] {
            let req = RpcRequest::new(1, "submit-evidence", bad);
            assert!(crate::rpc::parse_response(&svc.dispatch(&req)).is_err());
        }
    }

    #[test]
    fn audit_query_returns_the_latest_subject_matches_of_every_kind_oldest_first() {
        use pda_telemetry::AuditEvent;
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
        let tel = svc.telemetry();
        let appraisal = |subject: &str, nonce| AuditEvent::Appraisal {
            subject: subject.into(),
            nonce: Some(nonce),
            ok: true,
            checks: 1,
            cause: None,
        };
        // Every kind, subject-bearing ones interleaved with kinds that
        // carry none: an attester, signer or unit that contains the
        // query string is not a subject and must not match.
        let who = || "svc/a1".to_string();
        for event in [
            appraisal("svc/a1", 1),
            AuditEvent::Evidence {
                attester: who(),
                nonce: 2,
                levels: vec!["Program".into()],
                bytes: 10,
                chained: true,
            },
            AuditEvent::Lint {
                subject: "svc/a2".into(),
                program: "p".into(),
                findings: 0,
                errors: 0,
                worst: None,
                verdict: "00".into(),
            },
            AuditEvent::CacheLookup {
                attester: who(),
                level: "Program".into(),
                hit: true,
            },
            appraisal("svc/quorum", 3),
            AuditEvent::Signature {
                signer: who(),
                scheme: "HMAC-SHA256".into(),
                sig_bytes: 32,
            },
            appraisal("svc/a3", 4),
            AuditEvent::Enforcement {
                unit: who(),
                nonce: Some(5),
                admitted: false,
                cause: Some("NoEvidence".into()),
            },
        ] {
            tel.audit(event);
        }
        // The reply as it was built before: every record rendered,
        // filtered on its JSON `subject`, trimmed to the last `limit`.
        let reference = |subject: Option<&str>, limit: usize| {
            let mut out: Vec<Json> = tel
                .audit_log()
                .unwrap()
                .records()
                .iter()
                .map(|r| r.to_json())
                .filter(|j| {
                    subject.is_none_or(|s| {
                        j.get("subject")
                            .and_then(Json::as_str)
                            .is_some_and(|subj| subj.contains(s))
                    })
                })
                .collect();
            out.drain(..out.len().saturating_sub(limit));
            let count = ("count".to_string(), Json::UInt(out.len() as u64));
            let result = Json::Obj(vec![count, ("records".to_string(), Json::Arr(out))]);
            ok_response_traced(1, result, None)
        };
        for (subject, limit, seqs) in [
            (Some("svc/a"), 2, vec![2, 6]),
            (Some("svc/"), 3, vec![2, 4, 6]),
            (Some("svc/a"), 10, vec![0, 2, 6]),
            (None, 3, vec![5, 6, 7]),
            (Some("nobody"), 5, vec![]),
            (None, 0, vec![]),
        ] {
            let mut params = vec![("limit".to_string(), Json::UInt(limit as u64))];
            if let Some(s) = subject {
                params.push(("subject".to_string(), Json::Str(s.to_string())));
            }
            let reply = svc.dispatch(&RpcRequest::new(1, "query-audit-log", Json::Obj(params)));
            assert_eq!(
                reply,
                reference(subject, limit),
                "{subject:?}, limit {limit}"
            );
            let (log, _) = crate::rpc::parse_response(&reply).unwrap();
            let got: Vec<u64> = log
                .get("records")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|r| r.get("seq").and_then(Json::as_u64).unwrap())
                .collect();
            assert_eq!(got, seqs, "{subject:?}, limit {limit}: most recent last");
        }
    }

    #[test]
    fn slo_gauges_show_in_both_metric_renderings() {
        let slo = SloPolicy::new("svc.verdict.ns", 60_000_000_000, 0.99);
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting())
            .with_slo(slo.clone());
        for nonce in 1..=3 {
            submit_and_appraise(&svc, nonce, &wire_chain(3, nonce));
        }
        let verdicts = svc
            .telemetry()
            .registry()
            .unwrap()
            .histogram("svc.verdict.ns");
        let status = slo.evaluate(&verdicts);
        assert_eq!(status.count, 3);
        let want = [
            ("compliance_ppm", (status.compliance * 1e6) as i64),
            ("burn_rate_ppm", (status.burn_rate * 1e6) as i64),
            ("p99_breached", i64::from(status.p99_breached)),
        ];
        // The `metrics` RPC first, so it cannot lean on a scrape.
        let reply = svc.dispatch(&RpcRequest::new(1, "metrics", Json::Null));
        let reply = pda_telemetry::json::parse(&reply).unwrap();
        let metrics = reply.get("result").unwrap();
        for (suffix, value) in want {
            let gauge = metrics
                .get(&format!("svc.verdict.ns.slo.{suffix}"))
                .unwrap();
            assert_eq!(gauge.get("type").and_then(Json::as_str), Some("gauge"));
            assert_eq!(
                gauge.get("value").and_then(Json::as_f64),
                Some(value as f64)
            );
        }
        let scrape = svc.handle(&HttpRequest {
            method: "GET".to_string(),
            path: "/metrics".to_string(),
            version: "HTTP/1.1".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        });
        assert_eq!(scrape.status, 200);
        let text = String::from_utf8(scrape.body).unwrap();
        for (suffix, value) in want {
            let name = format!("svc_verdict_ns_slo_{suffix}");
            assert!(text.contains(&format!("# HELP {name} ")), "{name}:\n{text}");
            assert!(
                text.contains(&format!("\n{name} {value}\n")),
                "{name}:\n{text}"
            );
        }
    }

    #[test]
    fn shutdown_rpc_sets_the_flag() {
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
        assert!(!svc.shutdown_requested());
        let req = RpcRequest::new(1, "shutdown", Json::Null);
        let (reply, _) = crate::rpc::parse_response(&svc.dispatch(&req)).unwrap();
        assert_eq!(reply.get("stopping").and_then(Json::as_bool), Some(true));
        assert!(svc.shutdown_requested());
    }
}
