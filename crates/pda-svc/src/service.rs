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
use pda_telemetry::{FlightRecorder, SloPolicy, Telemetry, TraceCtx, TraceId};
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

/// The long-running appraisal service.
pub struct AppraisalService {
    config: SvcConfig,
    federation: Federation,
    /// Whether submitted evidence is hop-linked (default PERA config).
    chained: bool,
    telemetry: Telemetry,
    /// Submitted evidence, grouped by nonce, awaiting appraisal.
    store: Mutex<HashMap<u64, Vec<EvidenceRecord>>>,
    /// Set by the `shutdown` RPC; the serve driver polls it.
    shutdown_requested: AtomicBool,
    /// Flight recorder fed by the same telemetry handle; anomalous
    /// verdicts trigger a per-trace dump.
    flight: Option<Arc<FlightRecorder>>,
    /// Verdict-latency SLO, re-evaluated and published per appraisal.
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

    /// Track a verdict-latency SLO over `svc.verdict.ns`, publishing
    /// compliance and burn-rate gauges after every appraisal.
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

    fn bump(&self, name: &str, n: u64) {
        if let Some(reg) = self.telemetry.registry() {
            reg.counter(name).add(n);
        }
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
        self.bump("svc.submissions", 1);
        self.bump("svc.records", accepted);
        Ok(Json::Obj(vec![
            ("accepted".to_string(), Json::UInt(accepted)),
            (
                "nonces".to_string(),
                Json::Arr(nonces.into_iter().map(Json::UInt).collect()),
            ),
        ]))
    }

    /// `appraise`: run the federation over everything submitted for a
    /// nonce.
    fn rpc_appraise(&self, params: &Json) -> Result<Json, String> {
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
        let mut p99_breached = false;
        let mut slow_traces: Vec<TraceId> = Vec::new();
        if let Some(reg) = self.telemetry.registry() {
            let hist = reg.histogram("svc.verdict.ns");
            hist.record_traced(elapsed_ns, trace);
            if let Some(slo) = &self.slo {
                p99_breached = slo.publish(reg, &hist).p99_breached;
                if p99_breached {
                    // A p99 breach is an aggregate symptom: the slow
                    // requests are the histogram's exemplars, not
                    // necessarily the request that tipped the quantile.
                    slow_traces = hist.exemplars().into_iter().map(|e| e.trace).collect();
                }
            }
        }
        self.bump("svc.appraisals", 1);
        if !verdict.ok {
            self.bump("svc.appraisal_failures", 1);
        }
        if let Some(flight) = &self.flight {
            if !verdict.ok {
                flight.trigger("rejected", trace);
            } else if !verdict.dissenters.is_empty() {
                flight.trigger("dissent", trace);
            }
            if p99_breached {
                // Dump the exemplar (actually-slow) traces plus the
                // current one, deduplicated.
                if !slow_traces.contains(&trace) {
                    slow_traces.push(trace);
                }
                for t in &slow_traces {
                    flight.trigger("slo_p99_breach", *t);
                }
            }
        }
        Ok(verdict_json(&verdict, nonce, chain.len(), elapsed_ns))
    }

    /// `query-audit-log`: the shared audit trail, optionally filtered
    /// by subject substring, most recent last.
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
        let mut out: Vec<Json> = log
            .records()
            .iter()
            .map(|r| r.to_json())
            .filter(|j| match subject {
                None => true,
                Some(s) => j
                    .get("subject")
                    .and_then(Json::as_str)
                    .is_some_and(|subj| subj.contains(s)),
            })
            .collect();
        if out.len() > limit {
            out.drain(..out.len() - limit);
        }
        Ok(Json::Obj(vec![
            ("count".to_string(), Json::UInt(out.len() as u64)),
            ("records".to_string(), Json::Arr(out)),
        ]))
    }

    fn rpc_metrics(&self) -> Result<Json, String> {
        self.telemetry
            .registry()
            .map(|r| r.encode_json())
            .ok_or("telemetry is disabled; no metrics".to_string())
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
        let ctx = req
            .traceparent
            .as_deref()
            .and_then(TraceCtx::parse_traceparent)
            .or_else(|| {
                req.params
                    .get("nonce")
                    .and_then(Json::as_u64)
                    .map(TraceCtx::for_nonce)
            });
        let mut span = self.telemetry.span("svc.rpc");
        if span.is_active() {
            span.set("method", req.method.as_str());
            if let Some(c) = &ctx {
                c.child("svc.rpc", req.id).stamp(&mut span);
            }
        }
        let _span = span;
        let result = match req.method.as_str() {
            "submit-evidence" => self.rpc_submit(&req.params),
            "appraise" => self.rpc_appraise(&req.params),
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
        if let (Some(flight), Some(c)) = (&self.flight, &ctx) {
            if req.method == "appraise" && result.is_err() {
                flight.trigger("indeterminate", c.trace);
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
        self.bump("svc.http.connections", 1);
        self.bump("svc.http.requests", requests_served);
        if requests_served >= 2 {
            self.bump("svc.http.reused_connections", 1);
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
            ("GET", "/metrics") => match self.telemetry.registry() {
                Some(reg) => {
                    // Refresh the SLO gauges so scrapes always see
                    // values consistent with the histogram they read.
                    if let Some(slo) = &self.slo {
                        slo.publish(reg, &reg.histogram("svc.verdict.ns"));
                    }
                    HttpResponse::text(200, reg.encode_prometheus())
                }
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
        let mut fleet = standard_fleet(hops);
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
        let reply = crate::rpc::parse_response(&svc.dispatch(&sub)).expect("submit accepted");
        assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(3));
        let app = RpcRequest::new(
            2,
            "appraise",
            Json::Obj(vec![("nonce".to_string(), Json::UInt(nonce))]),
        );
        crate::rpc::parse_response(&svc.dispatch(&app)).expect("appraisal ran")
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
        let log = crate::rpc::parse_response(&svc.dispatch(&q)).unwrap();
        let recs = log.get("records").and_then(Json::as_arr).unwrap();
        assert!(!recs.is_empty(), "dissenter's verdict is in the log");
        assert_eq!(
            recs.last().unwrap().get("ok").and_then(Json::as_bool),
            Some(false),
            "dissenting verdict recorded as a failure"
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
    fn shutdown_rpc_sets_the_flag() {
        let svc = AppraisalService::new(SvcConfig::default(), Telemetry::collecting());
        assert!(!svc.shutdown_requested());
        let req = RpcRequest::new(1, "shutdown", Json::Null);
        let reply = crate::rpc::parse_response(&svc.dispatch(&req)).unwrap();
        assert_eq!(reply.get("stopping").and_then(Json::as_bool), Some(true));
        assert!(svc.shutdown_requested());
    }
}
