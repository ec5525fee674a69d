//! Command line: `pdabench --workload <forward|verdict|churn|verify>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints the run's human-readable lines, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A traced
//! run writes its spans to `$CARGO_TARGET_DIR/pdabench-spans/` (default
//! `target/`). `pdabench serve-child ...` is the appraisal service the
//! `verdict` and `churn` workloads start in a child process.

use pdabench::{result_json, run, Config, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: pdabench --workload <forward|verdict|churn|verify> --seed <n> --seconds <s> \
     --trace <0|1>"
        .to_string()
}

fn parse(args: &[String]) -> Result<Config, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}; {}", usage()))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other}")),
    };
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        invert_truth: false,
        server_exe: std::env::current_exe().map_err(|e| format!("current exe: {e}"))?,
        spans_dir: Some(target.join("pdabench-spans")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return match pdabench::server::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve-child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse(&args).and_then(|cfg| run(&cfg));
    match result {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", result_json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pdabench: {e}");
            ExitCode::FAILURE
        }
    }
}
