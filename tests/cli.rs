//! Integration tests for the `pda` CLI binary.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn pda(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pda"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn parse_prints_evidence_shape() {
    let (ok, stdout, _) = pda(&[
        "parse",
        "*bank : @ks [av us bmon -> !] -<- @us [bmon us exts -> !]",
    ]);
    assert!(ok);
    assert!(stdout.contains("sig@ks"), "{stdout}");
    assert!(stdout.contains("meas(bmon,us,exts)"), "{stdout}");
}

#[test]
fn analyze_reports_verdict_and_schedule() {
    let (ok, stdout, _) = pda(&[
        "analyze",
        "*bank : @ks [av us bmon] +~+ @us [bmon us exts]",
        "--control",
        "us",
        "--goal",
        "exts",
    ]);
    assert!(ok);
    assert!(stdout.contains("prior-corruption"), "{stdout}");
    assert!(stdout.contains("repair(bmon)"), "{stdout}");
}

#[test]
fn resolve_binds_and_skips() {
    let (ok, stdout, _) = pda(&[
        "resolve",
        "*b<n> : forall hop, client : (@hop [K |> attest(n) -> !] -+> @A [appraise]) *=> @client [K |> !]",
        "--path",
        "sw1:ra,key;old;sw2:ra,key;laptop:ra,key",
        "--param",
        "n=9",
    ]);
    assert!(ok);
    assert!(stdout.contains(r#""client": "laptop""#), "{stdout}");
    assert!(stdout.contains(r#"skipped:  ["old"]"#), "{stdout}");
}

/// Flags may come before the input: a valued flag's value is never
/// read as the request or policy.
#[test]
fn analyze_and_resolve_accept_flags_first() {
    let (ok, stdout, stderr) = pda(&[
        "analyze",
        "--control",
        "us",
        "--goal",
        "exts",
        "*bank : @ks [av us bmon] +~+ @us [bmon us exts]",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("prior-corruption"), "{stdout}");
    assert!(stdout.contains("repair(bmon)"), "{stdout}");

    let (ok, stdout, stderr) = pda(&[
        "resolve",
        "--path",
        "sw1:ra,key;old;sw2:ra,key;laptop:ra,key",
        "--param",
        "n=9",
        "--pointwise",
        "*b<n> : forall hop, client : (@hop [K |> attest(n) -> !] -+> @A [appraise]) *=> @client [K |> !]",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(r#""client": "laptop""#), "{stdout}");
    assert!(stdout.contains(r#"skipped:  ["old"]"#), "{stdout}");
}

#[test]
fn wire_and_decode_round_trip() {
    let (ok, hex, _) = pda(&[
        "wire",
        "*s<P> : @edge [P |> attest(P) -> !] -+> @A [appraise]",
        "--path",
        "",
        "--param",
        "P=c2",
        "--nonce",
        "42",
    ]);
    assert!(ok);
    let hex = hex.trim();
    assert!(!hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit()));
    let (ok, stdout, _) = pda(&["decode", hex]);
    assert!(ok);
    assert!(stdout.contains("0x000000000000002a"), "{stdout}");
    assert!(stdout.contains("attest(c2)"), "{stdout}");
}

#[test]
fn decode_rejects_non_hex_without_panicking() {
    // `é` is two bytes: a digit pair must not split it.
    for input in ["aéb", "zz", "abc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pda"))
            .args(["decode", input])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{input}: {stderr}");
        assert!(stderr.contains("error: not hex"), "{input}: {stderr}");
    }
}

#[test]
fn non_ascii_text_is_an_error_not_a_crash() {
    // Read as a Latin-1 `char`, a UTF-8 lead byte (0xC3 as `Ã`, 0xE2 as
    // `â`) passes for an identifier character, and an identifier that
    // ends after it splits the multi-byte character.
    let cases = [
        ["parse", "é"],
        ["parse", "*bank : @ksé [!]"],
        ["hybrid", "*RPP▶ #Q->)"],
        ["hybrid", "*rp: @pé [!]"],
        ["hybrid", "*rp:\u{a0}@p1 [!]"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pda"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "pda {args:?}: {stderr}");
        assert!(stderr.contains("error:"), "pda {args:?}: {stderr}");
    }
}

#[test]
fn simulate_appraises() {
    let (ok, stdout, _) = pda(&["simulate", "--hops", "3", "--legacy", "1"]);
    assert!(ok);
    assert!(stdout.contains("appraisal: PASS"), "{stdout}");
}

#[test]
fn netkat_equivalence() {
    let (ok, stdout, _) = pda(&[
        "netkat",
        "equiv",
        "filter sw = 1 ; pt := 2",
        "(filter sw = 1 ; pt := 2) + drop",
    ]);
    assert!(ok);
    assert!(stdout.contains("equivalent: yes"), "{stdout}");
    let (ok, stdout, _) = pda(&["netkat", "equiv", "pt := 1", "pt := 2"]);
    assert!(ok);
    assert!(stdout.contains("equivalent: NO"), "{stdout}");
}

#[test]
fn netkat_equiv_check_runs_the_corpus() {
    let (ok, stdout, stderr) = pda(&["netkat", "equiv", "--check"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fabric-4-broken"), "{stdout}");
    assert!(!stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn netkat_reach_subcommand() {
    let step = "(filter sw = 0 ; filter dst = 2 ; sw := 2) + (filter !(sw = 0) ; sw := 0)";
    let (ok, stdout, _) = pda(&[
        "netkat",
        "reach",
        step,
        "--from",
        "sw=1,dst=2",
        "--goal",
        "sw = 2",
    ]);
    assert!(ok);
    assert!(stdout.contains("reachable: yes"), "{stdout}");
    assert!(stdout.contains("switches:  [1, 0, 2]"), "{stdout}");
    let (ok, stdout, _) = pda(&[
        "netkat",
        "reach",
        step,
        "--from",
        "sw=1,dst=2",
        "--goal",
        "sw = 9",
    ]);
    assert!(ok);
    assert!(stdout.contains("reachable: no"), "{stdout}");
}

/// Reachability reads `dup` as the identity, so a step with `dup` is
/// answered like the same step without it.
#[test]
fn netkat_reach_answers_dup_steps() {
    let (ok, stdout, stderr) = pda(&[
        "netkat",
        "reach",
        "dup ; filter sw = 1 ; sw := 2",
        "--from",
        "sw=1",
        "--goal",
        "sw = 2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("reachable: yes"), "{stdout}");
}

/// Text nested far past each parser's bound is a parse error (exit 1),
/// not a stack overflow (exit 134).
#[test]
fn deeply_nested_text_is_an_error_not_a_crash() {
    let deep = |levels: usize, open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
    };
    let cases = [
        vec!["netkat".to_string(), deep(16_000, "(", "id", ")")],
        vec![
            "parse".to_string(),
            format!("*bank: {}", deep(20_000, "@p1 [", "attest p1 sys", "]")),
        ],
        vec![
            "hybrid".to_string(),
            format!("*rp: {}", deep(20_000, "(", "@p1 [attest p1 sys]", ")")),
        ],
        // A left-associated chain nests once per arrow.
        vec![
            "parse".to_string(),
            format!("*bank: @p1 [{}]", vec!["_"; 25_000].join(" -> ")),
        ],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pda"))
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "pda {}", args[0]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "pda {}: {stderr}", args[0]);
        assert!(
            stderr.contains("nesting deeper than"),
            "pda {}: {stderr}",
            args[0]
        );
    }
}

/// A run of 120,000 stars is one star, `(p*)* ≡ p*`: a 120 KB argument
/// that parses, prints and slices.
#[test]
fn a_run_of_stars_is_one_star() {
    let (ok, stdout, stderr) = pda(&["netkat", "id**"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("parsed: (filter true)*\n"), "{stdout}");
    assert!(stdout.contains("size:   2 nodes"), "{stdout}");
    let stars = format!("id{}", "*".repeat(120_000));
    let (ok, stdout, stderr) = pda(&["netkat", &stars]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("size:   2 nodes"), "{stdout}");
    let (ok, stdout, stderr) = pda(&["netkat", "slice", &stars, "--switch", "1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verified: yes"), "{stdout}");
}

#[test]
fn netkat_slice_subcommand() {
    let (ok, stdout, _) = pda(&[
        "netkat",
        "slice",
        "(filter sw = 1 ; pt := 10) + (filter sw = 2 ; pt := 20)",
        "--switch",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("verified: yes"), "{stdout}");
    assert!(stdout.contains("dead:     no"), "{stdout}");
    let (ok, stdout, _) = pda(&[
        "netkat",
        "slice",
        "filter sw = 1 ; pt := 10",
        "--switch",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("dead:     yes"), "{stdout}");
}

#[test]
fn lint_flags_rogues_and_passes_benigns() {
    // The acceptance split: both rogues carry an `error` diagnostic,
    // every benign builtin stays at `info` or below.
    let (ok, stdout, _) = pda(&["lint", "rogue_wiretap"]);
    assert!(ok);
    assert!(stdout.contains("PDA401 error"), "{stdout}");
    let (ok, stdout, _) = pda(&["lint", "rogue_flow_monitor"]);
    assert!(ok);
    assert!(stdout.contains("PDA402 error"), "{stdout}");
    let (ok, stdout, _) = pda(&["lint", "rogue_acl_shadow"]);
    assert!(ok);
    assert!(stdout.contains("PDA502 error"), "{stdout}");
    let (ok, stdout, _) = pda(&["lint", "forwarding"]);
    assert!(ok);
    assert!(stdout.contains("worst: info"), "{stdout}");
    assert!(!stdout.contains("error"), "{stdout}");
}

#[test]
fn lint_check_gate_passes_over_the_whole_corpus() {
    let (ok, _, stderr) = pda(&["lint", "all", "--check"]);
    assert!(ok, "{stderr}");
}

#[test]
fn lint_json_is_machine_readable() {
    let (ok, stdout, _) = pda(&["lint", "all", "--format", "json"]);
    assert!(ok);
    let parsed = pda_telemetry::json::parse(stdout.trim()).expect("valid json");
    let arr = parsed.as_arr().expect("array");
    assert_eq!(arr.len(), 10);
    let rogues: Vec<_> = arr
        .iter()
        .filter(|p| p.get("rogue").and_then(|r| r.as_bool()) == Some(true))
        .filter_map(|p| p.get("builtin").and_then(|b| b.as_str()))
        .collect();
    assert_eq!(
        rogues,
        vec!["rogue_flow_monitor", "rogue_wiretap", "rogue_acl_shadow"]
    );
    for p in arr {
        let report = p.get("report").expect("report");
        assert!(report.get("program_digest").is_some());
        assert!(report.get("verdict_digest").is_some());
    }
}

#[test]
fn lint_rejects_unknown_builtin() {
    let (ok, _, stderr) = pda(&["lint", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("unknown builtin"), "{stderr}");
}

#[test]
fn errors_exit_nonzero() {
    let (ok, _, stderr) = pda(&["parse", "not a + valid ^ policy"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
    let (ok, _, _) = pda(&["bogus-subcommand"]);
    assert!(!ok);
    let (ok, _, _) = pda(&[]);
    assert!(!ok);
}

/// Run `pda args` for at most ten seconds: its exit code, `None` when
/// it was still running and was killed, and its stderr.
fn pda_within(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pda"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill");
            child.wait().expect("reap");
            return (None, "still running after 10 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// A flag the command does not take, a valued flag with nothing after
/// it, or a value the command cannot read or run (`--hops 0`,
/// `--appraisers 0`, a `--legacy` switch off the path or listed twice)
/// is an error naming the flag (exit 1), never skipped. A command that
/// would serve instead is killed after ten seconds and fails the test.
#[test]
fn unknown_flags_are_errors() {
    let cases: [(&[&str], &str); 16] = [
        (
            &["netkat", "equiv", "pt := 1", "pt := 2", "--backend", "enum"],
            "--backend",
        ),
        (
            &["simulate", "--hops", "2", "--bogus-flag", "7"],
            "--bogus-flag",
        ),
        (&["serve", "--no-keep-alive"], "--no-keep-alive"),
        (
            &[
                "client",
                "--addr",
                "127.0.0.1:1",
                "--no-keep-alive",
                "health",
            ],
            "--no-keep-alive",
        ),
        (&["netkat", "pt := 1", "--equiv", "pt := 2"], "--equiv"),
        (&["simulate", "--hops"], "--hops"),
        (&["simulate", "--legacy", "1,x"], "--legacy"),
        (&["resolve", "*rp: @p1 [!]", "--param", "n9"], "--param"),
        (&["simulate", "--packets", "0"], "--packets"),
        (&["simulate", "--hops", "0"], "--hops"),
        (&["simulate", "--hops", "2", "--legacy", "5"], "--legacy"),
        (&["simulate", "--hops", "2", "--legacy", "0,0"], "--legacy"),
        (
            &["simulate", "--hops", "1", "--legacy", "0,1,2", "--oob"],
            "--legacy",
        ),
        (&["serve", "--port", "0", "--hops", "0"], "--hops"),
        (
            &["serve", "--port", "0", "--appraisers", "0"],
            "--appraisers",
        ),
        (
            &["client", "--addr", "127.0.0.1:1", "submit", "--hops", "0"],
            "--hops",
        ),
    ];
    for (args, flag) in cases {
        let (code, stderr) = pda_within(args);
        assert_eq!(code, Some(1), "pda {args:?}: {stderr}");
        assert!(stderr.contains(flag), "pda {args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = pda(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"), "{stdout}");
}
