//! Tests of the benchmark itself, at tiny sizes.

use pda_telemetry::json::{parse, Json};
use pdabench::{result_json, run, Config, Sizes, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Workload runs time themselves, and the traced ledger's checks compare
/// replayed calls with each other: run two at once on a small host and
/// each becomes the other's noise. The tests take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config(workload: Workload, trace: bool, invert_truth: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        sizes: Sizes::tiny(),
        invert_truth,
        server_exe: PathBuf::from(env!("CARGO_BIN_EXE_pdabench")),
        spans_dir: None,
    }
}

/// The result line's metrics as (name, value, unit), after checking the
/// line's shape.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    let v = parse(line).expect("result line is JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(v.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    v.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn names_and_units(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_failures() {
    let _turn = turn();
    for w in Workload::ALL {
        let out = run(&config(w, false, false)).expect("workload runs");
        assert_eq!(out.failed, 0, "{w:?}: {:?}", out.lines);
        assert!(out.correct(), "{w:?}: {:?}", out.lines);
        assert_eq!(out.fail_frac(), 0.0);
        let metrics = metrics_of(&result_json(&out));
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, names_and_units(END_TO_END), "{w:?}");
        for (name, value, _) in &metrics {
            // Peak-RSS growth of a tiny in-process run can stay within
            // pages the process already held; every other figure is a
            // measured rate, time or size.
            if name == "peak_rss_mb" {
                assert!(*value >= 0.0, "{w:?} {name} = {value}");
            } else {
                assert!(*value > 0.0, "{w:?} {name} = {value}");
            }
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_with_a_sound_ledger() {
    let _turn = turn();
    for w in Workload::ALL {
        let out = run(&config(w, true, false)).expect("workload runs");
        assert!(out.correct(), "{w:?}: {:?}", out.lines);
        assert!(
            out.broken_checks.is_empty(),
            "{w:?}: {:?}",
            out.broken_checks
        );
        let metrics = metrics_of(&result_json(&out));
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, names_and_units(PER_LAYER), "{w:?}");
        let ledger = out.ledger.as_ref().expect("traced runs build a ledger");
        assert!(ledger.ops > 0 && !ledger.rows.is_empty(), "{w:?}");
        // Per operation the residue is >= 0, and no layer's total self
        // time is negative.
        assert!(ledger.problems.is_empty(), "{w:?}: {:?}", ledger.problems);
        let measured = |name: &str| metrics.iter().any(|(n, v, _)| n == name && *v > 0.0);
        let layers: &[&str] = match w {
            Workload::Forward => &[
                "dataplane.parse_ns",
                "dataplane.lookup_ns",
                "pera.process_packet_ns",
                "crypto.sign_ns",
                "pera.records",
            ],
            Workload::Verdict => &[
                "svc.appraise_us",
                "svc.handle_appraise_us",
                "svc.federation_us",
                "ra.appraise_us",
                "crypto.verify_ns",
            ],
            Workload::Churn => &[
                "svc.submit_us",
                "svc.hex_decode_ns",
                "pera.assemble_ns",
                "svc.dissent",
                "netsim.retransmits",
            ],
            Workload::Verify => &["netkat.equiv_ms", "netkat.reach_ms", "netkat.slice_ms"],
        };
        for name in layers {
            assert!(measured(name), "{w:?} did not measure {name}");
        }
    }
}

#[test]
fn inverted_ground_truth_drives_fail_frac_above_zero() {
    let _turn = turn();
    for w in Workload::ALL {
        let out = run(&config(w, false, true)).expect("workload runs");
        assert!(out.fail_frac() > 0.0, "{w:?}: {:?}", out.lines);
        assert!(!out.correct());
        assert!(result_json(&out).starts_with("{\"correct\": false"));
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), names_and_units(END_TO_END));
    assert_eq!(listed("per_layer"), names_and_units(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
