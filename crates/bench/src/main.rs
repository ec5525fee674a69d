//! The experiment harness: regenerates every figure/table artifact of
//! the paper as text tables. `cargo run -p bench --bin harness --release`
//!
//! Pass section ids (the first column of `SECTIONS`: `fig1 fig2 eq12
//! table1 fig3 fig4 uc1 uc3 uc4 enforce crypto wire e15 e16 e17 e18
//! e19`, with `netkat` an alias for `e19`) to run a subset; no ids runs
//! everything. An id that names no section is an error (exit 2).
//!
//! `--telemetry json|prom|off` (default `off`) collects metrics and the
//! attestation audit log while the instrumented experiments (`fig1`,
//! `fig3`, `e15`, `e16`, `e17`, `e18`) run, and writes
//! `telemetry.json` / `telemetry.prom` to the current directory on
//! exit. Under `e18` the same handle is shared by the service and the
//! churning fleets, so the dump carries end-to-end traces.
//!
//! `--bench-json <path>` additionally writes every table that ran as a
//! `{experiment, git_rev, rows}` JSON document (see `Table::to_json`),
//! so runs are diffable across commits; `BENCH_fig3.json`,
//! `BENCH_e15.json`, `BENCH_e18.json` and `BENCH_e19.json` are such
//! files. When several tables run (`e18` alone prints two), the file
//! holds an array of their documents.

use bench::*;
use pda_pera::config::Sampling;
use pda_telemetry::json::Json;
use pda_telemetry::Telemetry;

/// One harness section: the ids that select it and what it runs.
type Section = (&'static [&'static str], fn(&Telemetry) -> Vec<Table>);

/// Every section with its parameters, in the order they run.
const SECTIONS: [Section; 17] = [
    (&["fig1"], |tel| vec![exp_fig1(tel)]),
    (&["fig2"], |_| vec![exp_fig2(&[2, 4, 8, 16])]),
    (&["eq12"], |_| vec![exp_eqn12()]),
    (&["table1"], |_| vec![exp_table1(&[2, 4, 8])]),
    (&["fig3"], |tel| vec![exp_fig3(10_000, tel)]),
    (&["fig4"], |_| vec![exp_fig4()]),
    (&["uc1"], |_| {
        vec![exp_uc1_detection(&[
            Sampling::PerPacket,
            Sampling::EveryN(10),
            Sampling::EveryN(100),
            Sampling::PerFlow,
            Sampling::PerFlowEpoch(50),
            Sampling::PerEpoch(50),
        ])]
    }),
    (&["uc3"], |_| vec![exp_uc3(20, 200)]),
    (&["uc4"], |_| {
        vec![exp_uc4(&[(64, 10, 1), (128, 25, 2), (256, 5, 3)])]
    }),
    (&["enforce"], |_| vec![exp_enforcement(10, 100)]),
    (&["crypto"], |_| vec![exp_crypto(256)]),
    (&["wire"], |_| vec![exp_wire(&[2, 4, 8, 16])]),
    (&["e15"], |tel| vec![exp_e15(10_000, tel)]),
    (&["e16"], |tel| vec![exp_e16(tel)]),
    (&["e17"], |tel| vec![exp_e17(tel)]),
    (&["e18"], |tel| vec![exp_e18(tel), exp_e18_sweep()]),
    (&["e19", "netkat"], |_| {
        vec![exp_e19(&[4, 16, 64, 256, 1024], 256)]
    }),
];

/// Print `msg` and exit with status `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// Pull `--<name> <value>` (or `--<name>=<value>`) out of `args`; the
/// last occurrence wins.
fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if i + 1 >= args.len() {
                fail(2, &format!("{name} needs a value"));
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    value
}

/// Write `body` to `path` or exit 1.
fn write(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        fail(1, &format!("failed to write {path}: {e}"));
    }
}

/// The current git revision, suffixed `-dirty` when tracked files
/// differ from it (so a baseline written before its commit exists does
/// not read as the parent's), or "unknown" outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=40",
            "--exclude=*",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = take_flag(&mut args, "--telemetry");
    let tel = match telemetry.as_deref() {
        None | Some("off") => Telemetry::off(),
        Some("json" | "prom") => Telemetry::collecting(),
        Some(other) => fail(
            2,
            &format!("unknown --telemetry mode `{other}` (want json | prom | off)"),
        ),
    };
    let bench_json = take_flag(&mut args, "--bench-json");
    let ids: Vec<&str> = SECTIONS
        .iter()
        .flat_map(|(ids, _)| ids.iter().copied())
        .collect();
    if let Some(bad) = args.iter().find(|a| !ids.contains(&a.as_str())) {
        fail(
            2,
            &format!(
                "unknown experiment id `{bad}` (want any of: {})",
                ids.join(" ")
            ),
        );
    }

    let rev = git_rev();
    let mut docs = Vec::new();
    for (ids, run) in SECTIONS {
        if args.is_empty() || args.iter().any(|a| ids.contains(&a.as_str())) {
            for table in run(&tel) {
                print!("{}", table.render());
                docs.push(table.to_json(&rev));
            }
        }
    }

    if let Some(path) = &bench_json {
        let doc = if docs.len() == 1 {
            docs.remove(0)
        } else {
            Json::Arr(docs)
        };
        write(path, &doc.encode());
        eprintln!("bench-json: wrote bench rows to {path}");
    }
    match telemetry.as_deref() {
        Some("json") => {
            write("telemetry.json", &tel.dump_json().encode());
            eprintln!("telemetry: wrote registry + audit log to telemetry.json");
        }
        Some("prom") => {
            write("telemetry.prom", &tel.dump_prometheus());
            eprintln!("telemetry: wrote registry to telemetry.prom");
        }
        _ => {}
    }
}
