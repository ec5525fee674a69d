//! The experiment harness: regenerates every figure/table artifact of
//! the paper as text tables. `cargo run -p bench --bin harness --release`
//!
//! Pass experiment ids (`fig1 fig2 eq12 table1 fig3 fig4 uc1 uc3 uc4
//! enforce crypto wire netkat e15 e16 e17 e18 e19`) to run a subset; no
//! arguments runs everything (`netkat` is an alias for `e19`).
//!
//! `--telemetry json|prom|off` (default `off`) collects metrics and the
//! attestation audit log while the instrumented experiments (`fig1`,
//! `fig3`, `e15`, `e16`, `e17`, `e18`) run, and writes
//! `telemetry.json` / `telemetry.prom` to the current directory on
//! exit. Under `e18` the same handle is shared by the service and the
//! churning fleets, so the dump carries end-to-end traces.
//!
//! `--bench-json <path>` additionally writes the E15 evidence-path
//! rows, the E18 service-under-churn rows, or the E19 verify-scaling
//! rows (whichever ran) as a machine-readable JSON document — what CI
//! uploads as the `BENCH_e15.json` / `BENCH_e18.json` / `BENCH_e19.json`
//! artifacts so regressions are diffable across commits. When several
//! experiments run, the file holds an array of their documents.

use bench::*;
use pda_pera::config::Sampling;
use pda_telemetry::json::Json;
use pda_telemetry::Telemetry;

/// How `--telemetry` asks for the registry dump.
enum TelemetryMode {
    Off,
    Json,
    Prom,
}

/// Pull `--telemetry <mode>` (or `--telemetry=<mode>`) out of `args` so
/// the remaining strings are all experiment ids.
fn parse_telemetry(args: &mut Vec<String>) -> TelemetryMode {
    let mut mode = TelemetryMode::Off;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--telemetry" {
            if i + 1 >= args.len() {
                eprintln!("--telemetry needs a mode: json | prom | off");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            v
        } else if let Some(v) = args[i].strip_prefix("--telemetry=") {
            let v = v.to_string();
            args.remove(i);
            v
        } else {
            i += 1;
            continue;
        };
        mode = match value.as_str() {
            "off" => TelemetryMode::Off,
            "json" => TelemetryMode::Json,
            "prom" => TelemetryMode::Prom,
            other => {
                eprintln!("unknown --telemetry mode `{other}` (want json | prom | off)");
                std::process::exit(2);
            }
        };
    }
    mode
}

/// Pull `--bench-json <path>` (or `--bench-json=<path>`) out of `args`.
fn parse_bench_json(args: &mut Vec<String>) -> Option<String> {
    let mut path = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--bench-json" {
            if i + 1 >= args.len() {
                eprintln!("--bench-json needs a path, e.g. --bench-json BENCH_e15.json");
                std::process::exit(2);
            }
            path = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix("--bench-json=") {
            path = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    path
}

/// The current git revision, or "unknown" outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Render the E15 rows as the `BENCH_e15.json` document.
fn e15_json(rows: &[E15Row]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e15".into())),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("variant".into(), Json::Str(r.variant.clone())),
                            ("seed_emulation".into(), Json::Bool(r.seed_emulation)),
                            ("batch".into(), Json::UInt(u64::from(r.batch))),
                            ("packets".into(), Json::UInt(r.packets)),
                            ("pkts_per_sec".into(), Json::Num(r.pkts_per_sec)),
                            ("ns_per_packet".into(), Json::Num(1e9 / r.pkts_per_sec)),
                            ("records".into(), Json::UInt(r.records)),
                            ("measurements".into(), Json::UInt(r.measurements)),
                            ("hit_rate".into(), Json::Num(r.hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render the E18 churn rows plus the connection-plane sweep as the
/// `BENCH_e18.json` document.
fn e18_json(rows: &[E18Row], sweep: &[E18SweepRow]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e18".into())),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("variant".into(), Json::Str(r.variant.clone())),
                            ("quorum".into(), Json::Str(r.quorum.clone())),
                            ("corrupt_appraiser".into(), Json::Bool(r.corrupt_appraiser)),
                            ("epochs".into(), Json::UInt(r.epochs as u64)),
                            ("appraisals".into(), Json::UInt(r.appraisals)),
                            ("accepted".into(), Json::UInt(r.accepted)),
                            ("rejected".into(), Json::UInt(r.rejected)),
                            ("correct".into(), Json::UInt(r.correct)),
                            ("rogue_epochs".into(), Json::UInt(r.rogue_epochs as u64)),
                            ("rogue_detected".into(), Json::UInt(r.rogue_detected)),
                            ("dissent".into(), Json::UInt(r.dissent)),
                            ("appraisals_per_sec".into(), Json::Num(r.appraisals_per_sec)),
                            ("p50_ns".into(), Json::UInt(r.p50_ns)),
                            ("p99_ns".into(), Json::UInt(r.p99_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sweep".into(),
            Json::Arr(
                sweep
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("variant".into(), Json::Str(r.variant.clone())),
                            ("keep_alive".into(), Json::Bool(r.keep_alive)),
                            ("workers".into(), Json::UInt(r.workers as u64)),
                            ("verdicts".into(), Json::UInt(r.verdicts)),
                            ("verdicts_per_sec".into(), Json::Num(r.verdicts_per_sec)),
                            ("p50_ns".into(), Json::UInt(r.p50_ns)),
                            ("p99_ns".into(), Json::UInt(r.p99_ns)),
                            ("client_reuses".into(), Json::UInt(r.client_reuses)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render the E19 scaling rows as the `BENCH_e19.json` document.
fn e19_json(rows: &[E19Row]) -> Json {
    let opt = |o: Option<u128>| o.map_or(Json::Null, |v| Json::UInt(v as u64));
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e19".into())),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("switches".into(), Json::UInt(r.switches as u64)),
                            ("policy_size".into(), Json::UInt(r.policy_size as u64)),
                            ("sym_equiv_ns".into(), Json::UInt(r.sym_equiv_ns as u64)),
                            ("enum_equiv_ns".into(), opt(r.enum_equiv_ns)),
                            ("sym_reach_ns".into(), Json::UInt(r.sym_reach_ns as u64)),
                            ("enum_reach_ns".into(), opt(r.enum_reach_ns)),
                            ("equivalent".into(), Json::Bool(r.equivalent)),
                            ("reachable".into(), Json::Bool(r.reachable)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_telemetry(&mut args);
    let bench_json = parse_bench_json(&mut args);
    let mut bench_docs: Vec<Json> = Vec::new();
    let tel = match mode {
        TelemetryMode::Off => Telemetry::off(),
        _ => Telemetry::collecting(),
    };
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    if want("fig1") {
        println!("== E1 / Fig. 1: RA principals round (eq 3, out-of-band) ==");
        println!(
            "{:<14} {:>9} {:>12} {:>8} {:>6}",
            "scheme", "messages", "bytes", "checks", "ok"
        );
        for r in exp_fig1(&tel) {
            println!(
                "{:<14} {:>9} {:>12} {:>8} {:>6}",
                r.scheme.to_string(),
                r.messages,
                r.bytes,
                r.checks,
                r.ok
            );
        }
        println!();
    }

    if want("fig2") {
        println!("== E2 / Fig. 2: in-band vs out-of-band evidence ==");
        println!(
            "{:<12} {:>5} {:>12} {:>9} {:>10} {:>11} {:>8} {:>4}",
            "variant", "hops", "wire-bytes", "ctl-msgs", "ctl-bytes", "latency-ns", "records", "ok"
        );
        for r in exp_fig2(&[2, 4, 8, 16]) {
            println!(
                "{:<12} {:>5} {:>12} {:>9} {:>10} {:>11} {:>8} {:>4}",
                r.variant,
                r.hops,
                r.wire_bytes,
                r.control_messages,
                r.control_bytes,
                r.latency_ns,
                r.records,
                r.ok
            );
        }
        println!();
    }

    if want("eq12") {
        println!("== E3 / equations (1)-(2): adversary analysis ==");
        println!(
            "{:<22} {:<52} {:>7} {:>7} {:>8} {:>7}",
            "policy", "verdict", "corrupt", "recent", "repairs", "lins"
        );
        for r in exp_eqn12() {
            println!(
                "{:<22} {:<52} {:>7} {:>7} {:>8} {:>7}",
                r.policy, r.verdict, r.corruptions, r.recent, r.repairs, r.evadable_linearizations
            );
        }
        println!();
    }

    if want("table1") {
        println!("== E4-E6 / Table 1: attestation policies AP1-AP3 ==");
        println!(
            "{:<6} {:>8} {:>8} {:>10} {:>9} {:>8} {:>10} {:>12}",
            "policy",
            "path",
            "clauses",
            "directives",
            "bindings",
            "skipped",
            "wire-B",
            "resolve-ns"
        );
        for r in exp_table1(&[2, 4, 8]) {
            println!(
                "{:<6} {:>8} {:>8} {:>10} {:>9} {:>8} {:>10} {:>12}",
                r.policy,
                r.path_len,
                r.clauses,
                r.directives,
                r.bindings,
                r.skipped,
                r.wire_bytes,
                r.resolve_ns
            );
        }
        println!();
    }

    if want("fig3") {
        println!("== E7 / Fig. 3: PERA pipeline cost (10k packets, 64 flows) ==");
        println!(
            "{:<28} {:>9} {:>12} {:>9} {:>9}",
            "config", "packets", "ns/packet", "records", "slowdown"
        );
        for r in exp_fig3(10_000, &tel) {
            println!(
                "{:<28} {:>9} {:>12.1} {:>9} {:>8.2}x",
                r.config, r.packets, r.ns_per_packet, r.records, r.slowdown
            );
        }
        println!();
    }

    if want("fig4") {
        println!("== E8 / Fig. 4: design space (1000 packets, 64 flows) ==");
        println!(
            "{:<16} {:<14} {:<10} {:>6} {:>8} {:>10} {:>9}",
            "details", "sampling", "compose", "cache", "records", "B/packet", "hit-rate"
        );
        for r in exp_fig4() {
            println!(
                "{:<16} {:<14} {:<10} {:>6} {:>8} {:>10.1} {:>9.3}",
                r.details,
                r.sampling,
                r.composition,
                r.cache,
                r.records,
                r.bytes_per_packet,
                r.cache_hit_rate
            );
        }
        println!();
    }

    if want("uc1") {
        println!("== E10 / UC1: detection latency vs sampling ==");
        println!(
            "{:<16} {:>22} {:>9}",
            "sampling", "packets-to-detection", "records"
        );
        for r in exp_uc1_detection(&[
            Sampling::PerPacket,
            Sampling::EveryN(10),
            Sampling::EveryN(100),
            Sampling::PerFlow,
            Sampling::PerFlowEpoch(50),
            Sampling::PerEpoch(50),
        ]) {
            println!(
                "{:<16} {:>22} {:>9}",
                r.sampling,
                r.packets_to_detection
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "never".into()),
                r.records
            );
        }
        println!();
    }

    if want("uc3") {
        println!("== E9 / UC3: DDoS mitigation gate ==");
        let r = exp_uc3(20, 200);
        println!(
            "legit {}/{} admitted, attack {}/{} admitted → precision {:.3}, recall {:.3}",
            r.legit_admitted, r.legit, r.attack_admitted, r.attack, r.precision, r.recall
        );
        println!();
    }

    if want("uc4") {
        println!("== E14 / UC4: C2-scanner fidelity (seeded workload) ==");
        println!(
            "{:<7} {:>13} {:>15} {:>15} {:>14} {:>6}",
            "flows", "beacon-flows", "beacon-packets", "flagged-packets", "audit-entries", "exact"
        );
        for (flows, pct, seed) in [(64u32, 10u32, 1u64), (128, 25, 2), (256, 5, 3)] {
            let r = exp_uc4(flows, pct, seed);
            println!(
                "{:<7} {:>13} {:>15} {:>15} {:>14} {:>6}",
                r.flows,
                r.beacon_flows,
                r.beacon_packets,
                r.flagged_packets,
                r.audit_entries,
                r.exact
            );
        }
        println!();
    }

    if want("enforce") {
        println!("== E13 / UC3 in-network: edge verify unit (Fig. 3) ==");
        println!(
            "{:<9} {:>16} {:>17} {:>18}",
            "enforce", "legit-delivered", "attack-delivered", "enforcement-drops"
        );
        for r in exp_enforcement(10, 100) {
            println!(
                "{:<9} {:>16} {:>17} {:>18}",
                r.enforce, r.legit_delivered, r.attack_delivered, r.enforcement_drops
            );
        }
        println!();
    }

    if want("crypto") {
        println!("== E11: root-of-trust primitive costs ==");
        println!("{:<22} {:>14} {:>10}", "op", "ns/op", "size-B");
        for r in exp_crypto(256) {
            println!("{:<22} {:>14.0} {:>10}", r.op, r.ns_per_op, r.size_bytes);
        }
        println!();
    }

    if want("wire") {
        println!("== E12: wire overhead vs path length ==");
        println!("{:<6} {:>12} {:>15}", "hops", "policy-B", "evidence-B");
        for r in exp_wire(&[2, 4, 8, 16]) {
            println!(
                "{:<6} {:>12} {:>15}",
                r.hops, r.policy_bytes, r.evidence_bytes
            );
        }
        println!();
    }

    if want("e15") {
        println!("== E15: evidence-path throughput (10k packets, 64 flows) ==");
        println!(
            "{:<40} {:>5} {:>12} {:>8} {:>9} {:>9} {:>8}",
            "variant", "batch", "pkts/sec", "records", "measures", "hit-rate", "vs-seed"
        );
        let rows = exp_e15(10_000, &tel);
        let seed_pps = rows
            .iter()
            .find(|r| r.seed_emulation)
            .map(|r| r.pkts_per_sec)
            .unwrap_or(f64::NAN);
        for r in &rows {
            println!(
                "{:<40} {:>5} {:>12.0} {:>8} {:>9} {:>8.1}% {:>7.2}x",
                r.variant,
                r.batch,
                r.pkts_per_sec,
                r.records,
                r.measurements,
                r.hit_rate * 100.0,
                r.pkts_per_sec / seed_pps
            );
        }
        println!();
        if bench_json.is_some() {
            bench_docs.push(e15_json(&rows));
        }
    }

    if want("e16") {
        println!("== E16: attestation under loss (3 PERA hops, 400 pkts/cell) ==");
        println!(
            "{:<6} {:>6} {:<12} {:>13} {:>11} {:>8} {:>11} {:>10}",
            "loss",
            "budget",
            "fail-mode",
            "completeness",
            "retransmits",
            "goodput",
            "false-drop",
            "fail-open"
        );
        for r in exp_e16(&tel) {
            println!(
                "{:<6} {:>6} {:<12} {:>12.1}% {:>11} {:>7.1}% {:>10.1}% {:>10}",
                r.loss,
                r.retry_budget,
                format!("{:?}", r.fail_mode),
                r.completeness * 100.0,
                r.retransmits,
                r.goodput * 100.0,
                r.false_drop_rate * 100.0,
                r.fail_open_admits,
            );
        }
        println!();
    }

    if want("e17") {
        println!(
            "== E17: static appraisal over the builtin corpus (RequireLintClean @ warning) =="
        );
        println!(
            "{:<20} {:>6} {:>5} {:>5} {:>6} {:>10} {:>12}",
            "program", "rogue", "info", "warn", "error", "verdict", "analysis-ns"
        );
        let mut separated = true;
        for r in exp_e17(&tel) {
            separated &= r.lint_clean_ok != r.rogue;
            println!(
                "{:<20} {:>6} {:>5} {:>5} {:>6} {:>10} {:>12}",
                r.builtin,
                r.rogue,
                r.info,
                r.warnings,
                r.errors,
                if r.lint_clean_ok { "pass" } else { "REJECT" },
                r.analysis_ns,
            );
        }
        println!(
            "rogue/benign separation: {} (no hash lists consulted)",
            if separated { "complete" } else { "BROKEN" }
        );
        println!();
    }

    if want("e18") {
        println!("== E18: appraisal service under churn (pda-svc, live TCP, 3 appraisers) ==");
        println!(
            "{:<22} {:<9} {:>7} {:>10} {:>8} {:>8} {:>8} {:>7} {:>12} {:>9} {:>9}",
            "variant",
            "quorum",
            "corrupt",
            "appraisals",
            "accepted",
            "correct",
            "rogue",
            "dissent",
            "verdicts/s",
            "p50-us",
            "p99-us"
        );
        let rows = exp_e18(&tel);
        for r in &rows {
            println!(
                "{:<22} {:<9} {:>7} {:>10} {:>8} {:>8} {:>4}/{:<3} {:>7} {:>12.0} {:>9.1} {:>9.1}",
                r.variant,
                r.quorum,
                r.corrupt_appraiser,
                r.appraisals,
                r.accepted,
                r.correct,
                r.rogue_detected,
                r.rogue_epochs,
                r.dissent,
                r.appraisals_per_sec,
                r.p50_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
            );
        }
        println!();

        println!("== E18 sweep: connection persistence x workers (pure appraise RPCs) ==");
        println!(
            "{:<16} {:>8} {:>9} {:>12} {:>9} {:>9} {:>8}",
            "variant", "workers", "verdicts", "verdicts/s", "p50-us", "p99-us", "reuses"
        );
        let sweep = exp_e18_sweep();
        for r in &sweep {
            println!(
                "{:<16} {:>8} {:>9} {:>12.0} {:>9.1} {:>9.1} {:>8}",
                r.variant,
                r.workers,
                r.verdicts,
                r.verdicts_per_sec,
                r.p50_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.client_reuses,
            );
        }
        // Keep-alive speedup at equal worker count: the headline delta.
        for workers in [1usize, 4] {
            let rate = |ka: bool| {
                sweep
                    .iter()
                    .find(|r| r.keep_alive == ka && r.workers == workers)
                    .map(|r| r.verdicts_per_sec)
            };
            if let (Some(ka), Some(close)) = (rate(true), rate(false)) {
                println!(
                    "keep-alive speedup at {workers} worker(s): {:.2}x",
                    ka / close
                );
            }
        }
        println!();
        if bench_json.is_some() {
            bench_docs.push(e18_json(&rows, &sweep));
        }
    }

    if want("e19") || want("netkat") {
        println!("== E19: NetKAT verify-time scaling, symbolic vs enumerative ==");
        println!(
            "{:<10} {:>10} {:>14} {:>14} {:>14} {:>14}",
            "switches", "size", "sym-equiv-ns", "enum-equiv-ns", "sym-reach-ns", "enum-reach-ns"
        );
        let rows = exp_e19(&[4, 16, 64, 256, 1024], 256);
        let fmt_opt = |o: Option<u128>| o.map_or_else(|| "-".into(), |v| v.to_string());
        for r in &rows {
            println!(
                "{:<10} {:>10} {:>14} {:>14} {:>14} {:>14}",
                r.switches,
                r.policy_size,
                r.sym_equiv_ns,
                fmt_opt(r.enum_equiv_ns),
                r.sym_reach_ns,
                fmt_opt(r.enum_reach_ns),
            );
        }
        if let Some(r) = rows.iter().rev().find(|r| r.enum_equiv_ns.is_some()) {
            let speedup = r.enum_equiv_ns.expect("filtered") as f64 / r.sym_equiv_ns.max(1) as f64;
            println!(
                "symbolic speedup at {} switches (largest common size): {speedup:.0}x",
                r.switches
            );
        }
        println!();
        if bench_json.is_some() {
            bench_docs.push(e19_json(&rows));
        }
    }

    if let Some(path) = &bench_json {
        if bench_docs.is_empty() {
            eprintln!("--bench-json has no effect unless the e15, e18, or e19 experiment runs");
        } else {
            let doc = if bench_docs.len() == 1 {
                bench_docs.pop().expect("one doc")
            } else {
                Json::Arr(bench_docs)
            };
            if let Err(e) = std::fs::write(path, doc.encode()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("bench-json: wrote bench rows to {path}");
        }
    }

    match mode {
        TelemetryMode::Off => {}
        TelemetryMode::Json => {
            let path = "telemetry.json";
            let body = tel.dump_json().encode();
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("telemetry: wrote registry + audit log to {path}");
        }
        TelemetryMode::Prom => {
            let path = "telemetry.prom";
            if let Err(e) = std::fs::write(path, tel.dump_prometheus()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("telemetry: wrote registry to {path}");
        }
    }
}
