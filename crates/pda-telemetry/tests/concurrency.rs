//! Concurrency tests: the metrics registry and the audit log are
//! shared across every worker thread of the appraisal service, so
//! their behaviour under parallel writers is load-bearing. These tests
//! pin it: counter totals are exact (no lost updates), histogram
//! counts are exact, and the audit log is loss-free with every record
//! present exactly once and the JSONL rendition well-formed.

use pda_telemetry::audit::parse_jsonl;
use pda_telemetry::{AuditEvent, Telemetry};
use std::thread;

const THREADS: usize = 8;
const OPS: usize = 500;

#[test]
fn counters_are_exact_under_parallel_writers() {
    let tel = Telemetry::collecting();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = tel.clone();
            thread::spawn(move || {
                let reg = tel.registry().expect("collecting handle has a registry");
                // Every thread bumps the same shared counter and its own.
                let shared = reg.counter("svc.appraisals");
                let own = reg.counter(&format!("svc.worker{t}"));
                let hist = reg.histogram("svc.verdict.ns");
                for i in 0..OPS {
                    shared.inc();
                    own.add(2);
                    hist.record((t * OPS + i) as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let reg = tel.registry().unwrap();
    assert_eq!(
        reg.counter("svc.appraisals").get(),
        (THREADS * OPS) as u64,
        "no counter increment was lost"
    );
    for t in 0..THREADS {
        assert_eq!(
            reg.counter(&format!("svc.worker{t}")).get(),
            (OPS * 2) as u64
        );
    }
    let hist = reg.histogram("svc.verdict.ns");
    assert_eq!(hist.count(), (THREADS * OPS) as u64);
    let expected_sum: u64 = (0..(THREADS * OPS) as u64).sum();
    assert_eq!(hist.sum(), expected_sum, "every observation was recorded");
}

#[test]
fn audit_log_is_loss_free_and_well_formed_under_parallel_appenders() {
    let tel = Telemetry::collecting();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = tel.clone();
            thread::spawn(move || {
                for i in 0..OPS {
                    tel.audit(AuditEvent::Appraisal {
                        subject: format!("svc/t{t}"),
                        nonce: Some((t * OPS + i) as u64),
                        ok: i % 2 == 0,
                        checks: 4,
                        cause: None,
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let log = tel.audit_log().unwrap();
    assert_eq!(log.len(), THREADS * OPS, "no append was lost");

    // Sequence numbers are a gapless, duplicate-free 0..N.
    let records = log.records();
    let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..(THREADS * OPS) as u64).collect::<Vec<_>>());

    // Every thread's every nonce appears exactly once.
    let mut nonces: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            AuditEvent::Appraisal { nonce, .. } => *nonce,
            _ => None,
        })
        .collect();
    nonces.sort_unstable();
    assert_eq!(nonces, (0..(THREADS * OPS) as u64).collect::<Vec<_>>());

    // The JSONL rendition is well-formed: every line parses back, and
    // the round trip preserves the records.
    let jsonl = log.to_jsonl();
    assert_eq!(jsonl.lines().count(), THREADS * OPS);
    let parsed = parse_jsonl(&jsonl).expect("every JSONL line parses");
    assert_eq!(parsed, records);
}

#[test]
fn mixed_metric_and_audit_traffic_stays_consistent() {
    let tel = Telemetry::collecting();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = tel.clone();
            thread::spawn(move || {
                let reg = tel.registry().unwrap();
                for i in 0..OPS {
                    reg.counter("ra.appraisals").inc();
                    if i % 5 == 0 {
                        reg.counter("ra.appraisal_failures").inc();
                        tel.audit(AuditEvent::Appraisal {
                            subject: format!("svc/t{t}"),
                            nonce: Some(i as u64),
                            ok: false,
                            checks: 1,
                            cause: Some("drill".to_string()),
                        });
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let reg = tel.registry().unwrap();
    let fails_per_thread = OPS.div_ceil(5);
    assert_eq!(reg.counter("ra.appraisals").get(), (THREADS * OPS) as u64);
    assert_eq!(
        reg.counter("ra.appraisal_failures").get(),
        (THREADS * fails_per_thread) as u64
    );
    assert_eq!(
        tel.audit_log().unwrap().len(),
        THREADS * fails_per_thread,
        "audit volume tracks the failure counter exactly"
    );
}
