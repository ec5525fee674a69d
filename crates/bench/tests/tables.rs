//! The cheap experiment sections at small sizes: each yields a
//! consistent table whose JSON document round-trips, a few deterministic
//! cells are pinned, and the harness binary rejects unknown section ids.

use bench::*;
use pda_pera::config::Sampling;
use pda_telemetry::json::{parse, Json};
use pda_telemetry::Telemetry;
use std::process::Command;

fn cheap_tables() -> Vec<Table> {
    vec![
        exp_fig1(&Telemetry::off()),
        exp_eqn12(),
        exp_table1(&[2]),
        exp_wire(&[2]),
        exp_uc1_detection(&[Sampling::PerPacket, Sampling::PerFlow]),
        exp_enforcement(2, 10),
    ]
}

#[test]
fn every_document_round_trips() {
    for t in cheap_tables() {
        assert!(!t.rows().is_empty(), "{}: no rows", t.id);
        let text = t.to_json("rev").encode();
        let doc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", t.id));
        assert_eq!(doc.encode(), text, "{}: re-encoding differs", t.id);
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(t.id));
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), t.rows().len(), "{}", t.id);
        for row in rows {
            let keys: Vec<&str> = row
                .as_obj()
                .expect("row object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, t.columns(), "{}", t.id);
        }
        let text = t.render();
        assert!(text.starts_with(&format!("== {} ==\n", t.title)), "{text}");
        assert_eq!(text.lines().count(), 3 + t.rows().len() + t.notes.len());
    }
}

#[test]
fn deterministic_cells_are_pinned() {
    let fig1 = exp_fig1(&Telemetry::off());
    assert_eq!(fig1.get(0, "scheme").and_then(Json::as_str), Some("hmac"));
    assert_eq!(fig1.get(0, "bytes").and_then(Json::as_u64), Some(318));
    assert_eq!(fig1.get(0, "ok").and_then(Json::as_bool), Some(true));

    let wire = exp_wire(&[2]);
    assert_eq!(
        wire.get(0, "policy_bytes").and_then(Json::as_u64),
        Some(198)
    );
    assert_eq!(
        wire.get(0, "evidence_bytes").and_then(Json::as_u64),
        Some(362)
    );

    // Per-flow sampling never re-attests the flow: the cell is empty.
    let uc1 = exp_uc1_detection(&[Sampling::PerPacket, Sampling::PerFlow]);
    assert_eq!(uc1.get(0, "packets_to_detection"), Some(&Json::UInt(1)));
    assert_eq!(uc1.get(1, "packets_to_detection"), Some(&Json::Null));

    let enforce = exp_enforcement(2, 10);
    assert_eq!(
        enforce.get(1, "attack_delivered").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        enforce.get(1, "enforcement_drops").and_then(Json::as_u64),
        Some(10)
    );
}

fn harness(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("harness runs")
}

#[test]
fn unknown_section_id_exits_2() {
    let out = harness(&["wire", "no-such-section"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-section"), "{stderr}");
}

#[test]
fn bench_json_writes_one_document_per_table() {
    let path = std::env::temp_dir().join(format!("bench-tables-{}.json", std::process::id()));
    let out = harness(&["eq12", "wire", "--bench-json", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let doc = parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    std::fs::remove_file(&path).ok();
    let ids: Vec<&str> = doc
        .as_arr()
        .expect("two tables, an array")
        .iter()
        .filter_map(|d| d.get("experiment").and_then(Json::as_str))
        .collect();
    assert_eq!(ids, ["eq12", "wire"]);
}
